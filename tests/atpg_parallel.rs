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
//!   carry-skip adder and on 100–200-gate random networks.

use proptest::prelude::*;

use kms::atpg::{
    analyze, fault_simulate, find_redundant_fault, Engine, Fault, ParallelOptions, Testability,
    TestabilityReport,
};
use kms::gen::paper::fig1_carry_skip_block;
use kms::gen::random::{random_network, RandomNetworkSpec};
use kms::netlist::{transform, DelayModel, Network};
use kms::opt::{naive_redundancy_removal, remove_fault};

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
