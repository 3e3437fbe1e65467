//! Experiment harness for the KMS reproduction: shared runners behind the
//! table/figure regeneration binaries (see DESIGN.md §5 for the experiment
//! index) and the Criterion performance benches.
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table1` | Table I (carry-skip rows and MCNC-substitute rows) |
//! | `fig1_study` | the Section III worked numbers (Fig. 1) |
//! | `fig46_trace` | the Fig. 4 → Fig. 5 → Fig. 6 algorithm walk-through |
//! | `naive_vs_kms` | the Section I/III claim: naive removal slows, KMS does not |
//! | `ablation_condition` | Section VI static-sensitization vs viability trade |
//! | `scaling` | extension: csa width/block sweeps |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use kms_atpg::{Engine, ParallelOptions};
use kms_core::{
    kms_on_copy, verify_kms_invariants_certified, verify_kms_invariants_engine, Condition,
    KmsOptions,
};
use kms_gen::mcnc::Benchmark;
use kms_netlist::{transform, DelayModel, Network};
use kms_opt::flow::{prepare_benchmark, FlowOptions};
use kms_opt::naive_redundancy_removal;
use kms_proof::CertificationReport;
use kms_timing::{computed_delay, InputArrivals, PathCondition, Time};

/// One row of the reproduced Table I.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Circuit name (`csa 8.4`, `rd73`, …).
    pub name: String,
    /// Number of redundant faults in the initial circuit ("No. Red.").
    pub redundancies: usize,
    /// Simple-gate count before ("Initial").
    pub gates_initial: usize,
    /// Simple-gate count after KMS ("Final").
    pub gates_final: usize,
    /// Viability-model delay before and after (ours; the paper reports the
    /// delta prose-style: "decreases by 2 gate delays").
    pub delay_initial: Time,
    /// See [`Table1Row::delay_initial`].
    pub delay_final: Time,
    /// Topological (static-timing) delay before/after.
    pub topo_initial: Time,
    /// See [`Table1Row::topo_initial`].
    pub topo_final: Time,
    /// While-loop iterations and duplicated gates.
    pub iterations: usize,
    /// See [`Table1Row::iterations`].
    pub duplicated: usize,
    /// `true` once the three KMS invariants were machine-checked.
    pub verified: bool,
    /// The merged proof-checking ledger of a certified row (redundancy
    /// count, KMS run, and invariant check all emit certificates);
    /// `None` when the row ran without `--certify`.
    pub certification: Option<CertificationReport>,
    /// Faults left undecided anywhere in the row (classification pass or
    /// the KMS removal phase) by a per-fault budget or an isolated
    /// classification panic. Non-zero means the row is degraded: the redundancy count is
    /// a lower bound and "fully testable" was not proved. Always zero
    /// unbudgeted.
    pub unknown: usize,
    /// `true` when the KMS loop hit its iteration cap: the row is
    /// degraded, because the no-slower guarantee does not hold for it.
    pub capped: bool,
}

impl Table1Row {
    /// Formats the row for the console table.
    pub fn format(&self) -> String {
        let cert = match &self.certification {
            None => String::new(),
            Some(c) if c.all_verified() => format!("  [{} proofs checked]", c.proofs_checked),
            Some(c) => format!(
                "  [CERTIFICATION FAILED: {} of {} proofs rejected]",
                c.proofs_failed, c.proofs_emitted
            ),
        };
        let mut degraded = String::new();
        if self.unknown > 0 {
            degraded += &format!("  [{} unknown — degraded]", self.unknown);
        }
        if self.capped {
            degraded += "  [loop capped — no-slower not guaranteed]";
        }
        format!(
            "{:<10} {:>5} {:>8} {:>7} {:>8} {:>7} {:>8} {:>7} {:>6} {:>6}  {}{}{}",
            self.name,
            self.redundancies,
            self.gates_initial,
            self.gates_final,
            self.delay_initial,
            self.delay_final,
            self.topo_initial,
            self.topo_final,
            self.iterations,
            self.duplicated,
            if self.verified { "ok" } else { "unchecked" },
            cert,
            degraded
        )
    }

    /// The table header matching [`Table1Row::format`].
    pub fn header() -> String {
        format!(
            "{:<10} {:>5} {:>8} {:>7} {:>8} {:>7} {:>8} {:>7} {:>6} {:>6}  {}",
            "name",
            "red",
            "g.init",
            "g.fin",
            "d.init",
            "d.fin",
            "t.init",
            "t.fin",
            "iters",
            "dup",
            "invariants"
        )
    }
}

/// Prepares a carry-skip adder exactly as the Table I rows: build,
/// decompose to simple gates, unit delays on every simple gate.
pub fn table1_csa(bits: usize, block: usize) -> Network {
    let mut net = kms_gen::adders::carry_skip_adder(bits, block, DelayModel::Unit);
    transform::decompose_to_simple(&mut net);
    net.apply_delay_model(DelayModel::Unit);
    net
}

/// Runs the full Table I measurement for one prepared circuit.
///
/// `verify` additionally machine-checks the three KMS invariants
/// (equivalence, full testability, no viable-delay increase) — slower, so
/// the scaling sweeps can turn it off. `popts` configures the shared-CNF
/// engine behind the redundancy count, the removal phase, and the
/// invariant check. With [`ParallelOptions::certify`], every UNSAT
/// verdict behind the row (redundancy count, KMS loop and removal phase,
/// invariant miter) is certified by the independent proof checker and the
/// merged ledger is attached to the row.
pub fn run_row(
    name: &str,
    net: &Network,
    arrivals: &InputArrivals,
    verify: bool,
    popts: ParallelOptions,
) -> Table1Row {
    let condition = PathCondition::Viability;
    let cap = 1 << 22;
    let mut certification = popts.certify.then(CertificationReport::default);
    let classify = kms_atpg::classify_faults_report(net, kms_atpg::collapsed_faults(net), popts);
    if let (Some(total), Some(atpg)) = (certification.as_mut(), classify.certification.as_ref()) {
        total.merge(atpg);
    }
    let verdicts = &classify.testability.verdicts;
    let redundancies = verdicts.iter().filter(|v| v.is_redundant()).count();
    let mut unknown = verdicts.iter().filter(|v| v.is_unknown()).count();
    let delay_initial = computed_delay(net, arrivals, condition, cap)
        .expect("simple-gate network")
        .delay;
    let (after, report) = kms_on_copy(
        net,
        arrivals,
        KmsOptions {
            engine: Engine::SharedSat(popts),
            certify: popts.certify,
            ..Default::default()
        },
    )
    .expect("simple-gate network");
    if let (Some(total), Some(run)) = (certification.as_mut(), report.certification.as_ref()) {
        total.merge(run);
    }
    let delay_final = computed_delay(&after, arrivals, condition, cap)
        .expect("simple-gate network")
        .delay;
    let verified = if verify {
        match certification.as_mut() {
            Some(total) => {
                let (inv, ledger) =
                    verify_kms_invariants_certified(net, &after, arrivals, condition, cap, popts)
                        .expect("simple-gate network");
                total.merge(&ledger);
                inv.holds()
            }
            None => verify_kms_invariants_engine(
                net,
                &after,
                arrivals,
                condition,
                cap,
                Engine::SharedSat(popts),
            )
            .expect("simple-gate network")
            .holds(),
        }
    } else {
        false
    };
    unknown += report.unknown;
    Table1Row {
        name: name.to_string(),
        redundancies,
        gates_initial: report.gates_before,
        gates_final: report.gates_after,
        delay_initial,
        delay_final,
        topo_initial: report.topological_before,
        topo_final: report.topological_after,
        iterations: report.iterations.len(),
        duplicated: report.duplicated_gates,
        verified,
        certification,
        unknown,
        capped: report.capped,
    }
}

/// The carry-skip rows of Table I: csa 2.2, 4.4, 8.2, 8.4, each run
/// through [`run_row`] with `popts`.
pub fn csa_rows(verify: bool, popts: ParallelOptions) -> Vec<Table1Row> {
    [(2, 2), (4, 4), (8, 2), (8, 4)]
        .into_iter()
        .map(|(bits, block)| {
            let net = table1_csa(bits, block);
            run_row(
                &format!("csa {bits}.{block}"),
                &net,
                &InputArrivals::zero(),
                verify,
                popts,
            )
        })
        .collect()
}

/// Late-carry arrivals used for the MCNC flow (the timing optimizer needs
/// a late signal to bypass, playing the carry-in role).
fn late_last_input(net: &Network) -> InputArrivals {
    let mut arr = InputArrivals::zero();
    if let Some(&last) = net.inputs().last() {
        arr.set(last, 4);
    }
    arr
}

/// One MCNC-substitute row: PLA → area optimization → timing optimization
/// (redundancy-introducing bypass) → KMS, run through [`run_row`] with
/// `popts`.
pub fn mcnc_row(benchmark: &Benchmark, verify: bool, popts: ParallelOptions) -> Table1Row {
    let options = FlowOptions::default();
    let (net, _) = prepare_benchmark(&benchmark.pla, benchmark.name, late_last_input, options);
    let arrivals = late_last_input(&net);
    run_row(benchmark.name, &net, &arrivals, verify, popts)
}

/// The MCNC-substitute rows of Table I.
pub fn mcnc_rows(verify: bool, popts: ParallelOptions) -> Vec<Table1Row> {
    kms_gen::mcnc::table1_suite()
        .iter()
        .map(|b| mcnc_row(b, verify, popts))
        .collect()
}

/// One comparison point of the naive-vs-KMS experiment (E5).
#[derive(Clone, Debug)]
pub struct NaiveVsKms {
    /// The late-carry arrival time swept.
    pub cin_arrival: Time,
    /// Viable delay of the redundant carry-skip adder.
    pub original: Time,
    /// Viable delay after straightforward redundancy removal.
    pub naive: Time,
    /// Viable delay after KMS.
    pub kms: Time,
}

/// Runs E5 on a `bits.block` carry-skip adder across carry arrival times.
pub fn naive_vs_kms(bits: usize, block: usize, arrivals: &[Time]) -> Vec<NaiveVsKms> {
    let net = table1_csa(bits, block);
    let cin = net.input_by_name("cin").expect("adders expose cin");
    let cap = 1 << 22;
    arrivals
        .iter()
        .map(|&t| {
            let arr = InputArrivals::zero().with(cin, t);
            let original = computed_delay(&net, &arr, PathCondition::Viability, cap)
                .expect("simple gates")
                .delay;
            let mut stripped = net.clone();
            naive_redundancy_removal(&mut stripped, Engine::Sat);
            let naive = computed_delay(&stripped, &arr, PathCondition::Viability, cap)
                .expect("simple gates")
                .delay;
            let (after, _) = kms_on_copy(&net, &arr, KmsOptions::default()).expect("simple gates");
            let kms = computed_delay(&after, &arr, PathCondition::Viability, cap)
                .expect("simple gates")
                .delay;
            NaiveVsKms {
                cin_arrival: t,
                original,
                naive,
                kms,
            }
        })
        .collect()
}

/// One row of the condition ablation (E6).
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Circuit name.
    pub name: String,
    /// (iterations, duplicated gates, final gates) under static
    /// sensitization.
    pub static_sens: (usize, usize, usize),
    /// Same under viability.
    pub viability: (usize, usize, usize),
}

/// Runs the Section VI condition ablation on one circuit.
pub fn ablation_row(name: &str, net: &Network, arrivals: &InputArrivals) -> AblationRow {
    let run = |condition| {
        let (_, r) = kms_on_copy(
            net,
            arrivals,
            KmsOptions {
                condition,
                ..Default::default()
            },
        )
        .expect("simple gates");
        (r.iterations.len(), r.duplicated_gates, r.gates_after)
    };
    AblationRow {
        name: name.to_string(),
        static_sens: run(Condition::StaticSensitization),
        viability: run(Condition::Viability),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csa_row_runs_and_verifies() {
        let net = table1_csa(2, 2);
        let row = run_row(
            "csa 2.2",
            &net,
            &InputArrivals::zero(),
            true,
            ParallelOptions::default(),
        );
        assert_eq!(row.redundancies, 2);
        assert!(row.verified);
        assert!(row.delay_final <= row.delay_initial);
        assert!(row.format().contains("csa 2.2"));
        assert!(Table1Row::header().contains("red"));
    }

    #[test]
    fn naive_vs_kms_shape() {
        // Two blocks (6.3): block 2's sums benefit from block 1's skip,
        // so naive removal visibly regresses once the carry is late.
        let rows = naive_vs_kms(6, 3, &[0, 6]);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.kms <= r.original, "KMS never slows: {r:?}");
        }
        // With a late carry, naive removal must be slower than KMS —
        // and slower than the redundant original (the paper's headline).
        assert!(rows[1].naive > rows[1].kms);
        assert!(rows[1].naive > rows[1].original);
    }
}
