//! The **straightforward redundancy removal** baseline: remove untestable
//! faults in arbitrary order by asserting the stuck value and propagating.
//!
//! This is the procedure the paper warns about (Sections I and III): on
//! most circuits it is harmless, but on the carry-skip adder it deletes
//! the skip logic and *slows the circuit down* to ripple speed. The KMS
//! algorithm (in `kms-core`) is the delay-safe alternative; the
//! `naive_vs_kms` experiment (E5) regenerates the comparison.
//!
//! [`naive_redundancy_removal`] is also the loop behind the KMS
//! algorithm's last step ("remove remaining redundancies in any order"):
//! every restart scans the collapsed fault list with the shared-CNF
//! engine and removes the first redundant fault it finds. The scans are
//! incremental ([`kms_atpg::IncrementalScan`]): after a removal only the
//! faults whose cone the removal could have changed are screened again.

use kms_atpg::{Engine, Fault, FaultSite};
use kms_netlist::transform::{ConstEdits, Touched};
use kms_netlist::Network;
use kms_proof::CertificationReport;
use kms_sat::Stats;

/// What one naive removal pass did.
#[derive(Clone, Debug)]
pub struct NaiveRemovalReport {
    /// The faults removed, in removal order.
    pub removed: Vec<Fault>,
    /// Simple-gate count before and after.
    pub gates_before: usize,
    /// See [`NaiveRemovalReport::gates_before`].
    pub gates_after: usize,
    /// Solver search counters of the shared-CNF engine, summed over every
    /// restart.
    pub solver: Stats,
    /// Faults the scans simulated against the cached tests, summed over
    /// every restart.
    pub screened: u64,
    /// Faults the scans skipped because an earlier scan proved them
    /// testable and no removal since could have changed their cone.
    pub skipped: u64,
    /// Faults that reached a per-fault decision procedure (PODEM or SAT),
    /// summed over every restart.
    pub engine_calls: u64,
    /// The proof-checking ledger, present when the removal ran with
    /// [`kms_atpg::ParallelOptions::certify`]: one checked certificate per
    /// redundant verdict, aggregated across restarts.
    pub certification: Option<CertificationReport>,
    /// Faults left undecided by the final pass (per-fault budget
    /// exhaustion or an isolated classification panic). Non-zero means "fully
    /// testable" was not actually proved: the circuit may still hold
    /// redundancies among the unknown faults, and callers report a
    /// degraded (not failed) outcome.
    pub unknown: usize,
}

/// With the `debug-invariants` feature enabled, re-lints the network after
/// each fault removal, panicking with the full diagnostic report on the
/// first hard violation; compiles to nothing otherwise.
#[cfg(feature = "debug-invariants")]
fn check_invariants(net: &Network, context: &str) {
    kms_lint::assert_well_formed(net, context);
}

#[cfg(not(feature = "debug-invariants"))]
fn check_invariants(_net: &Network, _context: &str) {}

/// Removes one redundant fault from `net` by asserting its stuck value
/// and propagating constants (the function is unchanged because the fault
/// is untestable). Takes any network: it propagates and sweeps the whole
/// network, as [`kms_netlist::transform::propagate_constants`] does.
pub fn remove_fault(net: &mut Network, fault: Fault) {
    remove_fault_with(&mut ConstEdits::default(), net, fault);
}

/// [`remove_fault`] as one edit of the run `edits`, returning what it
/// touched (see [`ConstEdits`]). A redundant input stem
/// keeps its primary input: its consumers read the constant (the circuit
/// interface is preserved, as in the paper's gate-count bookkeeping).
pub fn remove_fault_with(edits: &mut ConstEdits, net: &mut Network, fault: Fault) -> Touched {
    let touched = match fault.site {
        FaultSite::Conn(conn) => edits.set_conn_const(net, conn, fault.stuck),
        FaultSite::GateOutput(g) => edits.set_gate_const(net, g, fault.stuck),
    };
    check_invariants(net, "after remove_fault");
    touched
}

/// Iteratively removes redundancies in discovery order until the circuit
/// is fully testable. Redundancies are recomputed after each removal
/// (removing one redundancy can create or destroy others — the paper's
/// Fig. 3 note applies to the baseline too).
///
/// No delay bookkeeping is done: this is deliberately the delay-oblivious
/// baseline. Every restart runs the shared-CNF engine over the collapsed
/// fault list, in order: the good circuit is encoded once per restart,
/// and every test vector found along the way is cached across restarts,
/// so most faults are proved testable by simulation alone. The scans are
/// incremental ([`kms_atpg::IncrementalScan`]) and report exactly what
/// [`kms_atpg::scan_for_redundancy`] would over the cached tests, so the
/// removals, engine calls and solver counters are those of a loop that
/// scans from scratch. `Engine::SharedSat(p)` runs with `p`; `Engine::Sat`
/// runs with the default [`kms_atpg::ParallelOptions`]. A redundant fault
/// is detected by no test, so the removal sequence (the first redundant
/// fault in collapsed list order, per restart) is the same for any
/// options.
pub fn naive_redundancy_removal(net: &mut Network, engine: Engine) -> NaiveRemovalReport {
    use kms_atpg::{IncrementalScan, ParallelOptions};
    let opts = match engine {
        Engine::SharedSat(p) => p,
        Engine::Sat => ParallelOptions::default(),
    };
    let gates_before = net.simple_gate_count();
    let mut removed = Vec::new();
    let unknown;
    let mut solver = Stats::default();
    let mut engine_calls = 0;
    let mut certification = opts.certify.then(CertificationReport::default);
    let mut scanner = IncrementalScan::new(net, &kms_atpg::random_tests(net, 128, 0x4B4D_5332));
    // The first removal propagates and sweeps the whole network; every
    // later one starts from the fixpoint it left and pays for what it
    // changes.
    let mut edits = ConstEdits::default();
    loop {
        let faults = scanner.collapsed_faults(net);
        let scan = scanner.scan(net, &faults, opts);
        engine_calls += scan.engine_calls;
        solver.merge(&scan.solver);
        if let (Some(total), Some(mine)) = (certification.as_mut(), scan.certification) {
            total.merge(&mine);
        }
        match scan.redundant {
            Some(f) => {
                scanner.edit(net, |net| remove_fault_with(&mut edits, net, f));
                removed.push(f);
                // Removal changes the input count only if constant
                // propagation killed an input's last consumer — inputs are
                // preserved by `remove_fault`, so cached tests stay valid.
            }
            None => {
                // Only the final scan's undecided faults persist; earlier
                // scans re-examine theirs after the removal restart.
                unknown = scan.unknown;
                break;
            }
        }
    }
    NaiveRemovalReport {
        removed,
        gates_before,
        gates_after: net.simple_gate_count(),
        solver,
        screened: scanner.screened(),
        skipped: scanner.skipped(),
        engine_calls,
        certification,
        unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kms_atpg::analyze;
    use kms_gen::adders::carry_skip_adder;
    use kms_netlist::{transform, Delay, DelayModel, GateKind};
    use kms_timing::topological_delay;

    #[test]
    fn removes_textbook_redundancy() {
        // y = a + a·b → y = a.
        let mut net = Network::new("r");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let t = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        let y = net.add_gate(GateKind::Or, &[a, t], Delay::UNIT);
        net.add_output("y", y);
        let orig = net.clone();
        let report = naive_redundancy_removal(&mut net, Engine::Sat);
        assert!(!report.removed.is_empty());
        assert!(report.gates_after < report.gates_before);
        orig.exhaustive_equiv(&net).unwrap();
        assert!(analyze(&net, Engine::Sat).fully_testable());
    }

    #[test]
    fn carry_skip_slows_down_under_naive_removal() {
        // The paper's headline pathology: naive removal reduces the
        // carry-skip adder to (something as slow as) a ripple adder.
        let mut net = carry_skip_adder(4, 4, DelayModel::Unit);
        transform::decompose_to_simple(&mut net);
        let orig = net.clone();
        let before_topo = topological_delay(&net);
        let report = naive_redundancy_removal(&mut net, Engine::Sat);
        assert!(!report.removed.is_empty());
        orig.exhaustive_equiv(&net).unwrap();
        assert!(analyze(&net, Engine::Sat).fully_testable());
        // The viable delay of the original beats the naive result: the
        // skip logic is gone, so the true delay reverts to ripple. At the
        // topological level the stripped circuit is no faster than the
        // skip-removed ripple chain.
        let after_topo = topological_delay(&net);
        // The skip MUX added to the longest path; removing it shortens
        // the *longest* path but the *viable* delay regresses — checked
        // end-to-end in the integration suite where both metrics run.
        assert!(after_topo <= before_topo);
    }

    #[test]
    fn idempotent_on_clean_circuits() {
        let mut net = Network::new("c");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        net.add_output("y", g);
        let report = naive_redundancy_removal(&mut net, Engine::Sat);
        assert!(report.removed.is_empty());
        assert_eq!(report.gates_before, report.gates_after);
    }
}
