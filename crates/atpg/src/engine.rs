//! Testability verdicts and whole-circuit redundancy identification.
//!
//! Two complete engines answer "is this stuck-at fault testable?". The
//! shared-CNF engine ([`Engine::SharedSat`]) is the production one: the
//! KMS removal phase, `table1` and the `kms` CLI all run it. The per-fault
//! SAT miter ([`Engine::Sat`], cf. Schulz–Auth [22] whose ATPG the paper's
//! implementation used) is kept as the independent reference oracle the
//! test suites and the invariant checks compare against; [`crate::podem()`]
//! is a third, structural cross-check.

use kms_netlist::Network;

use crate::classify::ParallelOptions;
use crate::fault::{all_faults, collapsed_faults, Fault, FaultSite};

/// Which decision procedure to use for testability queries.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Engine {
    /// SAT miter between the good and faulty circuits — always complete.
    /// Builds a fresh solver and re-encodes the fault's cone per query:
    /// the reference oracle, independent of the shared-CNF machinery.
    #[default]
    Sat,
    /// The shared-CNF incremental engine ([`crate::classify_faults`]):
    /// the good circuit is encoded once per network state, faults are
    /// classified under per-fault activation literals, SAT-derived test
    /// vectors immediately fault-drop the remaining faults, and surviving
    /// queries fan out across `jobs` worker threads. Always complete, and
    /// deterministic for any `jobs` value. The engine the KMS pipeline
    /// runs.
    SharedSat(ParallelOptions),
}

/// Why a fault's classification did not reach a verdict.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnknownReason {
    /// The per-fault SAT conflict budget ran out.
    Conflicts,
    /// The per-fault SAT propagation budget ran out.
    Propagations,
    /// The per-fault wall-clock deadline passed.
    Deadline,
    /// The run's cancellation token was raised.
    Cancelled,
    /// The worker classifying this fault panicked; the panic was
    /// isolated and the fault degraded to unknown instead of killing
    /// the run.
    WorkerPanic,
    /// Fault injection aborted the query (`fault-inject` builds only).
    Injected,
}

impl UnknownReason {
    /// Short lowercase mnemonic for report surfaces.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnknownReason::Conflicts => "conflicts",
            UnknownReason::Propagations => "propagations",
            UnknownReason::Deadline => "deadline",
            UnknownReason::Cancelled => "cancelled",
            UnknownReason::WorkerPanic => "worker-panic",
            UnknownReason::Injected => "injected",
        }
    }
}

impl std::fmt::Display for UnknownReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

impl From<kms_sat::AbortReason> for UnknownReason {
    fn from(r: kms_sat::AbortReason) -> Self {
        match r {
            kms_sat::AbortReason::Conflicts => UnknownReason::Conflicts,
            kms_sat::AbortReason::Propagations => UnknownReason::Propagations,
            kms_sat::AbortReason::Deadline => UnknownReason::Deadline,
            kms_sat::AbortReason::Cancelled => UnknownReason::Cancelled,
            kms_sat::AbortReason::Injected => UnknownReason::Injected,
        }
    }
}

/// The verdict for one fault.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Testability {
    /// Detectable, with a test vector.
    Testable(Vec<bool>),
    /// Provably undetectable: the fault is redundant.
    Redundant,
    /// No verdict: an effort/resource budget ran out, the run was
    /// cancelled, or the classifying worker panicked. Unknown is a
    /// first-class degraded outcome — reports carry it through instead
    /// of hanging or aborting the whole run.
    Unknown(UnknownReason),
}

impl Testability {
    /// `true` for [`Testability::Redundant`].
    pub fn is_redundant(&self) -> bool {
        matches!(self, Testability::Redundant)
    }

    /// `true` for [`Testability::Unknown`].
    pub fn is_unknown(&self) -> bool {
        matches!(self, Testability::Unknown(_))
    }
}

/// Decides testability of one fault.
pub fn is_testable(net: &Network, fault: Fault, engine: Engine) -> Testability {
    match engine {
        Engine::Sat => sat_testable(net, fault),
        Engine::SharedSat(_) => crate::classify::classify_one(net, fault),
    }
}

/// Cone-restricted SAT test generation: the classic miter, but only the
/// fault's transitive fanout is duplicated — everything outside it is
/// identical in the good and faulty circuits and is shared. The encoded
/// subcircuit is the transitive fanin of the affected outputs, which for
/// multi-output control logic is a small fraction of the network.
fn sat_testable(net: &Network, fault: Fault) -> Testability {
    use kms_netlist::{ConnRef, GateId};
    use kms_sat::{encode_gate, Lit, NetworkCnf, SatResult, Solver};

    let fanouts = net.fanouts();
    let n = net.num_gate_slots();

    // 1. The faulty region: gates whose value can differ from the good
    //    circuit. Output faults perturb the gate itself; connection faults
    //    perturb the sink gate.
    let mut in_tfo = vec![false; n];
    let mut stack: Vec<GateId> = vec![fault.observing_gate()];
    while let Some(g) = stack.pop() {
        if in_tfo[g.index()] {
            continue;
        }
        in_tfo[g.index()] = true;
        for c in &fanouts[g.index()] {
            stack.push(c.gate);
        }
    }
    // An output fault on a gate driving a PO directly is observable there
    // even with no gate fanout; in_tfo already contains the gate itself.
    let affected: Vec<usize> = net
        .outputs()
        .iter()
        .enumerate()
        .filter(|(_, o)| in_tfo[o.src.index()])
        .map(|(i, _)| i)
        .collect();
    if affected.is_empty() {
        return Testability::Redundant; // fault effect cannot reach any PO
    }

    // 2. The relevant good subcircuit: TFI of the affected outputs,
    //    encoded gate by gate in topological order.
    let roots: Vec<GateId> = affected.iter().map(|&i| net.outputs()[i].src).collect();
    let keep = kms_netlist::cone::transitive_fanin(net, &roots);
    let order = net.topo_order();
    let mut solver = Solver::new();
    let mut good = NetworkCnf::new(net);
    good.ensure_cone(
        net,
        &mut solver,
        order.iter().copied().filter(|g| keep[g.index()]),
    );

    // 3. Faulty variables for TFO gates only (in topological order).
    // `stuck` is a literal whose value equals the stuck-at value: a fresh
    // variable pinned to `fault.stuck` by a unit clause.
    let stuck: Lit = {
        let v = solver.new_var();
        solver.add_clause(&[v.lit(fault.stuck)]);
        v.positive()
    };
    let mut faulty_var: Vec<Option<Lit>> = vec![None; n];
    for &id in &order {
        if !in_tfo[id.index()] || !keep[id.index()] {
            continue;
        }
        if fault.site == FaultSite::GateOutput(id) {
            faulty_var[id.index()] = Some(stuck);
            continue;
        }
        let g = net.gate(id);
        // Pin literals: faulty var inside the TFO, shared good var outside;
        // the faulted connection reads the stuck literal.
        let pins: Vec<Lit> = g
            .pins
            .iter()
            .enumerate()
            .map(|(pi, p)| {
                if fault.site == FaultSite::Conn(ConnRef::new(id, pi)) {
                    stuck
                } else if let Some(l) = faulty_var[p.src.index()] {
                    l
                } else {
                    good.lit(p.src, true)
                }
            })
            .collect();
        let out = solver.new_var().positive();
        encode_gate(&mut solver, g.kind, out, &pins, None);
        faulty_var[id.index()] = Some(out);
    }

    // 4. Some affected output must differ.
    let mut diffs: Vec<Lit> = Vec::new();
    for &oi in &affected {
        let src = net.outputs()[oi].src;
        let gl = good.lit(src, true);
        let Some(fl) = faulty_var[src.index()] else {
            continue;
        };
        let d = solver.new_var().positive();
        solver.add_clause(&[!d, gl, fl]);
        solver.add_clause(&[!d, !gl, !fl]);
        solver.add_clause(&[d, !gl, fl]);
        solver.add_clause(&[d, gl, !fl]);
        diffs.push(d);
    }
    if diffs.is_empty() || !solver.add_clause(&diffs) {
        return Testability::Redundant;
    }
    match solver.solve() {
        SatResult::Unsat => Testability::Redundant,
        SatResult::Sat => Testability::Testable(good.model_inputs(&solver, net)),
        SatResult::Aborted(r) => unreachable!("unbudgeted solve aborted: {r}"),
    }
}

/// A whole-circuit testability report over the collapsed fault set.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TestabilityReport {
    /// The faults analyzed.
    pub faults: Vec<Fault>,
    /// Per-fault verdicts (parallel to `faults`).
    pub verdicts: Vec<Testability>,
}

impl TestabilityReport {
    /// The redundant faults found.
    pub fn redundant(&self) -> Vec<Fault> {
        self.faults
            .iter()
            .zip(&self.verdicts)
            .filter(|(_, v)| v.is_redundant())
            .map(|(&f, _)| f)
            .collect()
    }

    /// Number of faults proved testable.
    pub fn testable_count(&self) -> usize {
        self.verdicts
            .iter()
            .filter(|v| matches!(v, Testability::Testable(_)))
            .count()
    }

    /// Number of unresolved faults (engine budget exhausted).
    pub fn unknown_count(&self) -> usize {
        self.verdicts.iter().filter(|v| v.is_unknown()).count()
    }

    /// Unknown-verdict counts grouped by reason, in a fixed reason
    /// order (stable across runs for report rendering).
    pub fn unknown_reasons(&self) -> Vec<(UnknownReason, usize)> {
        const ORDER: [UnknownReason; 6] = [
            UnknownReason::Conflicts,
            UnknownReason::Propagations,
            UnknownReason::Deadline,
            UnknownReason::Cancelled,
            UnknownReason::WorkerPanic,
            UnknownReason::Injected,
        ];
        ORDER
            .iter()
            .filter_map(|&reason| {
                let n = self
                    .verdicts
                    .iter()
                    .filter(|v| matches!(v, Testability::Unknown(r) if *r == reason))
                    .count();
                (n > 0).then_some((reason, n))
            })
            .collect()
    }

    /// `true` if every fault is testable — the circuit is fully
    /// single-stuck-at testable (irredundant), the paper's goal state.
    pub fn fully_testable(&self) -> bool {
        self.testable_count() == self.faults.len()
    }

    /// The test vectors collected from the testable verdicts.
    pub fn tests(&self) -> Vec<Vec<bool>> {
        self.verdicts
            .iter()
            .filter_map(|v| match v {
                Testability::Testable(t) => Some(t.clone()),
                _ => None,
            })
            .collect()
    }
}

/// Deterministic pseudo-random test vectors used to pre-screen faults
/// before invoking a decision procedure (the classic ATPG flow: random
/// patterns first, deterministic generation for the survivors).
pub fn random_tests(net: &Network, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let n = net.inputs().len();
    // Mix the seed through a splitmix64 finalizer so nearby seeds (and in
    // particular the pairs 2k / 2k+1, which the old `seed | 1` collapsed
    // onto one state) land on decorrelated xorshift trajectories.
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    state = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    state = (state ^ (state >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    state ^= state >> 31;
    if state == 0 {
        state = 0x4B4D_5331_D1CE_CA5E;
    }
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    (0..count)
        .map(|_| (0..n).map(|_| next() & 1 == 1).collect())
        .collect()
}

/// Analyzes every fault in the structurally collapsed fault set.
pub fn analyze(net: &Network, engine: Engine) -> TestabilityReport {
    analyze_faults(net, collapsed_faults(net), engine)
}

/// Analyzes the *full* (uncollapsed) fault universe.
pub fn analyze_all(net: &Network, engine: Engine) -> TestabilityReport {
    analyze_faults(net, all_faults(net), engine)
}

fn analyze_faults(net: &Network, faults: Vec<Fault>, engine: Engine) -> TestabilityReport {
    if let Engine::SharedSat(opts) = engine {
        return crate::classify::classify_faults(net, faults, opts);
    }
    // Random-pattern pre-screen: most testable faults fall to a few
    // hundred cheap simulations; only the survivors pay for SAT.
    let tests = random_tests(net, 256, 0x4B4D_5331);
    let coverage = crate::fsim::fault_simulate(net, &faults, &tests);
    let verdicts = faults
        .iter()
        .zip(&coverage.detected_by)
        .map(|(&f, hit)| match hit {
            Some(ti) => Testability::Testable(tests[*ti].clone()),
            None => is_testable(net, f, engine),
        })
        .collect();
    TestabilityReport { faults, verdicts }
}

/// Finds one redundant fault, or `None` if the circuit is irredundant
/// (over the collapsed fault set; equivalence-collapsing preserves the
/// existence of redundancies).
pub fn find_redundant_fault(net: &Network, engine: Engine) -> Option<Fault> {
    let faults = collapsed_faults(net);
    if let Engine::SharedSat(opts) = engine {
        let cached = random_tests(net, 256, opts.seed);
        return crate::classify::scan_for_redundancy(net, &faults, opts, &cached).redundant;
    }
    let tests = random_tests(net, 256, 0x4B4D_5331);
    let coverage = crate::fsim::fault_simulate(net, &faults, &tests);
    faults
        .into_iter()
        .zip(coverage.detected_by)
        .filter(|(_, hit)| hit.is_none())
        .map(|(f, _)| f)
        .find(|&f| is_testable(net, f, engine).is_redundant())
}

/// Number of redundant faults in the collapsed fault set — the paper's
/// Table I "No. Red." column.
pub fn redundancy_count(net: &Network, engine: Engine) -> usize {
    analyze(net, engine)
        .verdicts
        .iter()
        .filter(|v| v.is_redundant())
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PodemResult;
    use kms_netlist::{Delay, GateKind, Network};

    fn redundant_net() -> Network {
        // y = a + a·b: the AND gate's s-a-0 is redundant.
        let mut net = Network::new("r");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let t = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        let y = net.add_gate(GateKind::Or, &[a, t], Delay::UNIT);
        net.add_output("y", y);
        net
    }

    fn clean_net() -> Network {
        let mut net = Network::new("c");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate(GateKind::Xor, &[a, b], Delay::UNIT);
        net.add_output("y", g);
        net
    }

    #[test]
    fn engines_agree_on_redundant_circuit() {
        let net = redundant_net();
        let rs = analyze(&net, Engine::Sat);
        for (f, vs) in rs.faults.iter().zip(&rs.verdicts) {
            let vp = crate::podem(&net, *f, 100_000);
            assert!(!matches!(vp, PodemResult::Aborted), "PODEM aborted on {f}");
            assert_eq!(
                matches!(vp, PodemResult::Redundant),
                vs.is_redundant(),
                "engines disagree on {f}"
            );
        }
        assert!(!rs.fully_testable());
        assert!(!rs.redundant().is_empty());
    }

    #[test]
    fn clean_circuit_fully_testable() {
        let net = clean_net();
        let r = analyze(&net, Engine::Sat);
        assert!(r.fully_testable());
        assert_eq!(r.unknown_count(), 0);
        assert!(find_redundant_fault(&net, Engine::Sat).is_none());
        assert_eq!(redundancy_count(&net, Engine::Sat), 0);
        for &f in &r.faults {
            let test = crate::podem(&net, f, 10_000).test_vector();
            let test = test.unwrap_or_else(|| panic!("PODEM found no test for {f}"));
            let faulty = crate::inject::faulty_copy(&net, f);
            assert_ne!(net.eval_bool(&test), faulty.eval_bool(&test), "{f}");
        }
    }

    #[test]
    fn test_vectors_actually_detect() {
        let net = redundant_net();
        let r = analyze(&net, Engine::Sat);
        for (f, v) in r.faults.iter().zip(&r.verdicts) {
            if let Testability::Testable(t) = v {
                let faulty = crate::inject::faulty_copy(&net, *f);
                assert_ne!(net.eval_bool(t), faulty.eval_bool(t), "{f}");
            }
        }
    }

    #[test]
    fn full_universe_finds_same_redundancy_presence() {
        let net = redundant_net();
        let collapsed = analyze(&net, Engine::Sat);
        let full = analyze_all(&net, Engine::Sat);
        assert_eq!(
            collapsed.redundant().is_empty(),
            full.redundant().is_empty()
        );
        assert!(full.faults.len() > collapsed.faults.len());
    }

    #[test]
    fn testability_tests_feed_fault_simulation() {
        let net = clean_net();
        let r = analyze_all(&net, Engine::Sat);
        let tests = r.tests();
        let cov = crate::fsim::fault_simulate(&net, &r.faults, &tests);
        assert!((cov.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_tests_distinguish_adjacent_seeds() {
        // Regression: the old `seed | 1` initialisation made seeds 2k and
        // 2k+1 generate identical pattern streams.
        let mut net = Network::new("s");
        for i in 0..8 {
            net.add_input(format!("i{i}"));
        }
        for (a, b) in [(2u64, 3u64), (0, 1), (100, 101), (7, 8)] {
            let ta = random_tests(&net, 16, a);
            let tb = random_tests(&net, 16, b);
            assert_ne!(ta, tb, "seeds {a} and {b} collided");
            // Same seed must stay reproducible.
            assert_eq!(ta, random_tests(&net, 16, a));
        }
    }
}
