//! Determinism and agreement guarantees of the shared-CNF classification
//! engine (`Engine::SharedSat`):
//!
//! * the `TestabilityReport` — verdicts *and* test vectors — is equal
//!   across repeated runs and with certification on (the canonical lex-min
//!   vector scheme makes results independent of solver history);
//! * redundancy verdicts agree with the per-fault SAT engine, on fixed
//!   circuits and on random netlists, and every test vector detects its
//!   fault;
//! * dynamic fault-dropping (any `drop_patterns` setting) never changes the
//!   redundant-fault set;
//! * the removal loop's trajectory matches an independent reference (a
//!   per-fault `Sat` search restarted after every removal), on the
//!   carry-skip adder and on 100–200-gate random networks;
//! * the incremental removal loop matches a from-scratch scan per restart
//!   in every removal, engine call, solver counter and certificate.

use proptest::prelude::*;

use kms::atpg::{
    analyze, collapsed_faults, fault_simulate, find_redundant_fault, random_tests,
    scan_for_redundancy, Engine, Fault, ParallelOptions, Testability, TestabilityReport,
};
use kms::gen::paper::fig1_carry_skip_block;
use kms::gen::random::{random_network, RandomNetworkSpec};
use kms::netlist::transform::ConstEdits;
use kms::netlist::{transform, DelayModel, Network};
use kms::opt::{naive_redundancy_removal, remove_fault, remove_fault_with};

fn carry_skip() -> Network {
    let mut net = kms::gen::adders::carry_skip_adder(4, 4, DelayModel::Unit);
    transform::decompose_to_simple(&mut net);
    net.apply_delay_model(DelayModel::Unit);
    net
}

fn seeded_random() -> Network {
    random_network(
        0xA11CE,
        RandomNetworkSpec {
            inputs: 7,
            gates: 30,
            outputs: 3,
            max_fanin: 3,
            max_delay: 2,
        },
    )
}

fn shared() -> Engine {
    Engine::SharedSat(ParallelOptions::default())
}

/// Every `Testable` vector of `report` detects its fault on `net`.
fn vectors_detect(net: &Network, report: &TestabilityReport) -> bool {
    report
        .faults
        .iter()
        .zip(&report.verdicts)
        .all(|(f, v)| match v {
            Testability::Testable(t) => {
                let cov = fault_simulate(net, std::slice::from_ref(f), std::slice::from_ref(t));
                cov.detected_by[0].is_some()
            }
            _ => true,
        })
}

#[test]
fn report_identical_across_runs_and_certify() {
    for net in [fig1_carry_skip_block(), carry_skip(), seeded_random()] {
        let baseline = analyze(&net, shared());
        // Repeated runs are stable (no hidden global state).
        assert_eq!(analyze(&net, shared()), baseline, "{}", net.name());
        // Certification re-derives every redundancy as an incremental
        // UNSAT query; verdicts are semantic, so nothing else changes.
        let certified = Engine::SharedSat(ParallelOptions {
            certify: true,
            ..Default::default()
        });
        assert_eq!(analyze(&net, certified), baseline, "{}", net.name());
    }
}

#[test]
fn shared_agrees_with_sequential_sat_engine() {
    for net in [carry_skip(), seeded_random()] {
        let seq = analyze(&net, Engine::Sat);
        let par = analyze(&net, shared());
        assert_eq!(seq.faults, par.faults);
        for ((f, vs), vp) in seq.faults.iter().zip(&seq.verdicts).zip(&par.verdicts) {
            assert_eq!(
                vs.is_redundant(),
                vp.is_redundant(),
                "engines disagree on {f} in {}",
                net.name()
            );
        }
    }
}

#[test]
fn shared_vectors_actually_detect() {
    let net = carry_skip();
    let r = analyze(&net, shared());
    assert!(r
        .verdicts
        .iter()
        .any(|v| matches!(v, Testability::Testable(_))));
    assert!(vectors_detect(&net, &r));
}

#[test]
fn dropping_never_changes_the_redundant_set() {
    for net in [carry_skip(), seeded_random()] {
        let mut sets = Vec::new();
        for drop_patterns in [0usize, 256] {
            let r = analyze(
                &net,
                Engine::SharedSat(ParallelOptions {
                    drop_patterns,
                    ..Default::default()
                }),
            );
            sets.push(r.redundant());
        }
        assert_eq!(
            sets[0],
            sets[1],
            "drop_patterns changed the redundant set on {}",
            net.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On random netlists the shared engine's redundant set equals the
    /// per-fault `Sat` engine's, and every test vector it commits detects
    /// its fault. A low `drop_patterns` keeps plenty of faults flowing
    /// through the solver and the drop cascade rather than the random
    /// pre-screen.
    #[test]
    fn shared_matches_sat_on_random_netlists(
        seed in any::<u64>(),
        inputs in 3usize..8,
        gates in 8usize..40,
    ) {
        let net = random_network(seed, RandomNetworkSpec {
            inputs,
            gates,
            outputs: 3,
            max_fanin: 3,
            max_delay: 2,
        });
        let shared = analyze(&net, Engine::SharedSat(ParallelOptions {
            drop_patterns: 8,
            ..Default::default()
        }));
        prop_assert_eq!(shared.redundant(), analyze(&net, Engine::Sat).redundant());
        prop_assert!(vectors_detect(&net, &shared));
    }

    /// A per-fault budget generous enough that no query aborts is
    /// invisible: the budgeted report — verdicts *and* canonical test
    /// vectors — is bit-identical to the unbudgeted one (the budget check
    /// never steers the search, it only observes counters at the
    /// conflict boundary).
    #[test]
    fn generous_budget_is_bit_identical(
        seed in any::<u64>(),
        inputs in 3usize..8,
        gates in 8usize..40,
    ) {
        use kms::atpg::FaultBudget;
        let net = random_network(seed, RandomNetworkSpec {
            inputs,
            gates,
            outputs: 3,
            max_fanin: 3,
            max_delay: 2,
        });
        let opts = |budget| ParallelOptions {
            drop_patterns: 8,
            fault_budget: budget,
            ..Default::default()
        };
        let unbudgeted = analyze(&net, Engine::SharedSat(opts(None)));
        let generous = FaultBudget {
            max_conflicts: Some(1 << 40),
            max_propagations: Some(1 << 50),
            timeout_ms: None,
        };
        let budgeted = analyze(&net, Engine::SharedSat(opts(Some(generous))));
        prop_assert_eq!(
            budgeted.unknown_count(), 0,
            "a generous budget aborted a query"
        );
        prop_assert_eq!(unbudgeted, budgeted);
    }
}

/// The independent reference removal: restart a per-fault `Sat` search
/// for the first redundant fault in collapsed-list order after every
/// removal.
fn reference_removal(net: &mut Network) -> Vec<Fault> {
    let mut removed = Vec::new();
    while let Some(f) = find_redundant_fault(net, Engine::Sat) {
        remove_fault(net, f);
        removed.push(f);
    }
    removed
}

#[test]
fn naive_removal_trajectory_matches() {
    let mut a = carry_skip();
    let reference = reference_removal(&mut a);
    let mut b = carry_skip();
    let rb = naive_redundancy_removal(&mut b, shared());
    assert_eq!(reference, rb.removed, "removal sequences diverged");
    assert_eq!(a.simple_gate_count(), rb.gates_after);
    a.exhaustive_equiv(&b).unwrap();
}

/// The shared engine's removal loop screens each fault in list order
/// against the cached tests and stops at the first redundancy; the
/// reference restarts a per-fault `Sat` search from scratch. Both must
/// remove the same faults in the same order on random networks large
/// enough to need many restarts.
#[test]
fn naive_removal_matches_sat_on_random_networks() {
    for (seed, gates) in [
        (0x5EED_0001u64, 100usize),
        (0x5EED_0002, 150),
        (0x5EED_0003, 200),
    ] {
        let net = random_network(
            seed,
            RandomNetworkSpec {
                inputs: 12,
                gates,
                outputs: 6,
                max_fanin: 3,
                max_delay: 2,
            },
        );
        let mut a = net.clone();
        let mut b = net.clone();
        let reference = reference_removal(&mut a);
        let rb = naive_redundancy_removal(&mut b, shared());
        assert!(!reference.is_empty(), "seed {seed:#x}: nothing to remove");
        assert_eq!(
            reference, rb.removed,
            "seed {seed:#x}: removal sequences diverged"
        );
        assert_eq!(a.simple_gate_count(), rb.gates_after);
    }
}

/// What a removal loop did, for comparing two loops field by field.
#[derive(Debug, PartialEq)]
struct RemovalRun {
    removed: Vec<Fault>,
    gates_after: usize,
    solver: kms::sat::Stats,
    engine_calls: u64,
    /// The ledger with its wall-clock time zeroed.
    certification: Option<kms::proof::CertificationReport>,
    unknown: usize,
}

/// The removal loop as it ran before scans were incremental: collapse the
/// fault list and scan it from scratch with every cached test, per
/// restart. Also returns how many faults the scans visited (every visited
/// fault is screened, since the cached tests are never empty).
fn from_scratch_removal(net: &mut Network, opts: ParallelOptions) -> (RemovalRun, u64) {
    let mut tests = random_tests(net, 128, 0x4B4D_5332);
    let mut run = RemovalRun {
        removed: Vec::new(),
        gates_after: 0,
        solver: kms::sat::Stats::default(),
        engine_calls: 0,
        certification: opts.certify.then(Default::default),
        unknown: 0,
    };
    let mut visited = 0;
    loop {
        let faults = collapsed_faults(net);
        let scan = scan_for_redundancy(net, &faults, opts, &tests);
        tests.extend(scan.tests);
        run.solver.merge(&scan.solver);
        run.engine_calls += scan.engine_calls;
        if let (Some(total), Some(mine)) = (run.certification.as_mut(), &scan.certification) {
            total.merge(mine);
        }
        match scan.redundant {
            Some(f) => {
                visited += faults.iter().position(|&g| g == f).expect("listed") as u64 + 1;
                remove_fault(net, f);
                run.removed.push(f);
            }
            None => {
                visited += faults.len() as u64;
                run.unknown = scan.unknown;
                break;
            }
        }
    }
    run.gates_after = net.simple_gate_count();
    if let Some(c) = run.certification.as_mut() {
        c.check_time = Default::default();
    }
    (run, visited)
}

/// An MCNC-substitute row as Table I prepares it (area flow, then the
/// redundancy-introducing bypass with the last input late).
fn mcnc_prepared(name: &str) -> Network {
    use kms::opt::flow::{prepare_benchmark, FlowOptions};
    let pla = kms::gen::mcnc::table1_suite()
        .into_iter()
        .find(|b| b.name == name)
        .expect("a Table I row")
        .pla;
    let late = |net: &Network| {
        let mut arr = kms::timing::InputArrivals::zero();
        arr.set(*net.inputs().last().expect("inputs"), 4);
        arr
    };
    prepare_benchmark(&pla, name, late, FlowOptions::default()).0
}

/// The incremental removal loop (marks of known-testable faults kept
/// across restarts, only faults whose cone a removal could have changed
/// screened again) makes exactly the from-scratch loop's removals, engine
/// calls, solver counters and certificates, with certification off and
/// on. Its screened and skipped faults add up to the faults the
/// from-scratch scans visited, and some of them are skipped. Under `debug-invariants` every skipped fault
/// is screened anyway and the scan panics if no cached test detects it.
#[test]
fn incremental_removal_matches_the_from_scratch_loop() {
    let random = |seed| {
        random_network(
            seed,
            RandomNetworkSpec {
                inputs: 16,
                gates: 800,
                outputs: 17,
                max_fanin: 3,
                max_delay: 1,
            },
        )
    };
    for net in [
        random(0xD1FF_0001),
        random(0xD1FF_0002),
        random(0xD1FF_0003),
        kms_bench::table1_csa(8, 2),
        mcnc_prepared("rd73"),
        mcnc_prepared("misex1"),
    ] {
        for certify in [false, true] {
            let opts = ParallelOptions {
                certify,
                ..ParallelOptions::default()
            };
            let mut a = net.clone();
            let (reference, visited) = from_scratch_removal(&mut a, opts);
            let mut b = net.clone();
            let r = naive_redundancy_removal(&mut b, Engine::SharedSat(opts));
            let mut certification = r.certification.clone();
            if let Some(c) = certification.as_mut() {
                c.check_time = Default::default();
                assert_eq!(c.proofs_failed, 0);
            }
            let incremental = RemovalRun {
                removed: r.removed.clone(),
                gates_after: r.gates_after,
                solver: r.solver,
                engine_calls: r.engine_calls,
                certification,
                unknown: r.unknown,
            };
            let name = format!("{} (certify {certify})", net.name());
            assert!(!reference.removed.is_empty(), "{name}: nothing removed");
            assert_eq!(incremental, reference, "{name}");
            assert_eq!(a.dump(), b.dump(), "{name}");
            assert_eq!(r.screened + r.skipped, visited, "{name}");
            assert!(r.skipped > 0, "{name}: no fault skipped");
        }
    }
}

/// Restart by restart, [`IncrementalScan`] reports what
/// `scan_for_redundancy` reports over the same network, fault list and
/// cached tests. The loops start from one or four random tests, so most
/// faults are marked by a single test and a removal that changes what
/// that test sees must clear the mark: a skipped fault no cached test
/// detects would reach the engine in the from-scratch scan and show up
/// as an extra engine call.
#[test]
fn incremental_scan_matches_each_from_scratch_scan() {
    use kms::atpg::IncrementalScan;
    let mut restarts = 0;
    for seed in 0..24u64 {
        let net = random_network(
            0x5CA4_0000 + seed,
            RandomNetworkSpec {
                inputs: 6 + (seed % 5) as usize,
                gates: 40 + 10 * (seed % 8) as usize,
                outputs: 3,
                max_fanin: 3,
                max_delay: 1,
            },
        );
        for cached in [1usize, 4] {
            let mut net = net.clone();
            let opts = ParallelOptions::default();
            let mut tests = random_tests(&net, cached, seed);
            let mut scanner = IncrementalScan::new(&net, &tests);
            let mut edits = ConstEdits::default();
            loop {
                let faults = collapsed_faults(&net);
                let reference = scan_for_redundancy(&net, &faults, opts, &tests);
                let scan = scanner.scan(&net, &faults, opts);
                let context = format!("seed {seed}, {cached} cached, restart {restarts}");
                assert_eq!(scan.redundant, reference.redundant, "{context}");
                assert_eq!(scan.tests, reference.tests, "{context}");
                assert_eq!(scan.engine_calls, reference.engine_calls, "{context}");
                assert_eq!(scan.solver, reference.solver, "{context}");
                assert_eq!(scan.unknown, reference.unknown, "{context}");
                tests.extend(reference.tests);
                restarts += 1;
                match reference.redundant {
                    Some(f) => scanner.edit(&mut net, |net| remove_fault_with(&mut edits, net, f)),
                    None => break,
                }
            }
        }
    }
    assert!(restarts > 100, "only {restarts} restarts");
}
