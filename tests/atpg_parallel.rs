//! Determinism and agreement guarantees of the shared-CNF classification
//! engine (`Engine::SharedSat`):
//!
//! * the `TestabilityReport` — verdicts *and* test vectors — is bit-identical
//!   across `jobs ∈ {1, 2, 8}` and equal to repeated runs (the canonical
//!   lex-min vector scheme makes results independent of thread scheduling);
//! * redundancy verdicts agree with the per-fault SAT engine;
//! * dynamic fault-dropping (any `drop_patterns` setting) never changes the
//!   redundant-fault set;
//! * the removal loop's trajectory matches an independent reference (a
//!   per-fault `Sat` search restarted after every removal), on the
//!   carry-skip adder and on 100–200-gate random networks.

use proptest::prelude::*;

use kms::atpg::{
    analyze, fault_simulate, find_redundant_fault, Engine, Fault, ParallelOptions, Testability,
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

fn shared(jobs: usize) -> Engine {
    Engine::SharedSat(ParallelOptions {
        jobs,
        ..Default::default()
    })
}

#[test]
fn report_identical_across_job_counts() {
    for net in [fig1_carry_skip_block(), carry_skip(), seeded_random()] {
        let baseline = analyze(&net, shared(1));
        for jobs in [1usize, 2, 8] {
            let r = analyze(&net, shared(jobs));
            assert_eq!(r, baseline, "jobs={jobs} diverged on {}", net.name());
        }
        // Repeated runs are stable too (no hidden global state).
        assert_eq!(analyze(&net, shared(2)), baseline);
    }
}

#[test]
fn shared_agrees_with_sequential_sat_engine() {
    for net in [carry_skip(), seeded_random()] {
        let seq = analyze(&net, Engine::Sat);
        let par = analyze(&net, shared(8));
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
    let r = analyze(&net, shared(2));
    let faults: Vec<_> = r
        .faults
        .iter()
        .zip(&r.verdicts)
        .filter_map(|(&f, v)| matches!(v, Testability::Testable(_)).then_some(f))
        .collect();
    let tests: Vec<Vec<bool>> = r
        .verdicts
        .iter()
        .filter_map(|v| match v {
            Testability::Testable(t) => Some(t.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(faults.len(), tests.len());
    for (f, t) in faults.iter().zip(&tests) {
        let cov = fault_simulate(&net, std::slice::from_ref(f), std::slice::from_ref(t));
        assert!(cov.detected_by[0].is_some(), "{f}: vector fails to detect");
    }
}

#[test]
fn dropping_never_changes_the_redundant_set() {
    for net in [carry_skip(), seeded_random()] {
        let mut sets = Vec::new();
        for drop_patterns in [0usize, 256] {
            let r = analyze(
                &net,
                Engine::SharedSat(ParallelOptions {
                    jobs: 2,
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

    /// The work-stealing pool (chunked claiming, batched commit, lemma
    /// sharing) is bit-identical to the in-line walk on random netlists
    /// at any job count — verdicts *and* canonical test vectors. A low
    /// `drop_patterns` keeps plenty of survivors flowing through the
    /// scheduler and the drop cascade rather than the random pre-screen.
    #[test]
    fn work_stealing_bit_identical_on_random_netlists(
        seed in any::<u64>(),
        inputs in 3usize..8,
        gates in 8usize..40,
        jobs in 2usize..9,
    ) {
        let net = random_network(seed, RandomNetworkSpec {
            inputs,
            gates,
            outputs: 3,
            max_fanin: 3,
            max_delay: 2,
        });
        let opts = |jobs| ParallelOptions {
            jobs,
            drop_patterns: 8,
            ..Default::default()
        };
        let seq = analyze(&net, Engine::SharedSat(opts(1)));
        let par = analyze(&net, Engine::SharedSat(opts(jobs)));
        prop_assert_eq!(seq, par);
    }

    /// A per-fault budget generous enough that no query aborts is
    /// invisible: the budgeted report — verdicts *and* canonical test
    /// vectors — is bit-identical to the unbudgeted one at any job
    /// count (the budget check never steers the search, it only
    /// observes counters at the conflict boundary).
    #[test]
    fn generous_budget_is_bit_identical_at_any_job_count(
        seed in any::<u64>(),
        inputs in 3usize..8,
        gates in 8usize..40,
        jobs in 1usize..9,
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
            jobs,
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
    for jobs in [1usize, 4] {
        let mut b = carry_skip();
        let rb = naive_redundancy_removal(&mut b, shared(jobs));
        assert_eq!(
            reference, rb.removed,
            "removal sequences diverged (jobs={jobs})"
        );
        assert_eq!(a.simple_gate_count(), rb.gates_after);
        a.exhaustive_equiv(&b).unwrap();
    }
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
        let rb = naive_redundancy_removal(&mut b, shared(1));
        assert!(!reference.is_empty(), "seed {seed:#x}: nothing to remove");
        assert_eq!(
            reference, rb.removed,
            "seed {seed:#x}: removal sequences diverged"
        );
        assert_eq!(a.simple_gate_count(), rb.gates_after);
    }
}
