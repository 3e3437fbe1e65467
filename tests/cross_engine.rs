//! Cross-validation of independent engines on random circuits:
//!
//! * PODEM vs SAT-miter testability verdicts;
//! * SAT vs BDD static-sensitization oracles;
//! * exhaustive simulation vs SAT miter vs BDD equivalence;
//! * two-level minimizers vs the network they synthesize.

use proptest::prelude::*;

use kms::atpg::{collapsed_faults, is_testable, podem, Engine, PodemResult};
use kms::gen::random::{random_network, RandomNetworkSpec};
use kms::sat::check_equivalence;
use kms::timing::{
    is_statically_sensitizable, static_side_constraints, InputArrivals, PathEnumerator,
};
use kms_bdd::{bdd_equivalent, BddManager, NodeFunctions};

fn spec() -> RandomNetworkSpec {
    RandomNetworkSpec {
        inputs: 5,
        gates: 14,
        outputs: 2,
        max_fanin: 3,
        max_delay: 2,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every fault verdict must agree between PODEM and the SAT miter.
    #[test]
    fn podem_and_sat_agree(seed in 1u64..4000) {
        let net = random_network(seed, spec());
        for f in collapsed_faults(&net) {
            let vp = podem(&net, f, 200_000);
            let vs = is_testable(&net, f, Engine::Sat);
            prop_assert!(
                !matches!(vp, PodemResult::Aborted),
                "PODEM aborted on a small circuit: {f} (seed {seed})"
            );
            prop_assert_eq!(
                matches!(vp, PodemResult::Redundant),
                vs.is_redundant(),
                "engines disagree on {} (seed {})", f, seed
            );
        }
    }

    /// SAT-based and BDD-based static sensitization agree on every path.
    #[test]
    fn sensitization_oracles_agree(seed in 1u64..4000) {
        let net = random_network(seed, spec());
        let arr = InputArrivals::zero();
        let mut manager = BddManager::new(net.inputs().len());
        let funcs = NodeFunctions::build(&net, &mut manager);
        for (path, _) in PathEnumerator::new(&net, &arr).take(24) {
            let sat = is_statically_sensitizable(&net, &path).unwrap();
            let literals: Vec<_> = static_side_constraints(&net, &path)
                .unwrap()
                .into_iter()
                .map(|(g, v)| if v { funcs.of(g) } else { manager.not(funcs.of(g)) })
                .collect();
            let f = manager.and_all(literals);
            prop_assert_eq!(sat, !f.is_false(), "path {} (seed {})", path, seed);
        }
    }

    /// Equivalence checkers agree: exhaustive, SAT miter, BDD compare.
    #[test]
    fn equivalence_checkers_agree(seed in 1u64..4000, mutate in any::<bool>()) {
        let a = random_network(seed, spec());
        let b = if mutate {
            // A structurally different but possibly inequivalent network.
            random_network(seed + 1, spec())
        } else {
            a.clone()
        };
        let ex = a.exhaustive_equiv(&b).is_ok();
        let sat = check_equivalence(&a, &b).is_equivalent();
        let bdd = bdd_equivalent(&a, &b);
        prop_assert_eq!(ex, sat, "seed {}", seed);
        prop_assert_eq!(ex, bdd, "seed {}", seed);
    }

    /// Two-level round-trip: minimize the exhaustive cover of a random
    /// single-output cone and compare functions.
    #[test]
    fn twolevel_roundtrip(seed in 1u64..4000) {
        let net = random_network(seed, RandomNetworkSpec {
            inputs: 5,
            gates: 10,
            outputs: 1,
            max_fanin: 3,
            max_delay: 1,
        });
        let cover = kms::twolevel::synth::cover_from_network(&net, 0);
        let min = kms::twolevel::espresso(
            &cover,
            &kms::twolevel::Cover::empty(5),
            Default::default(),
        );
        prop_assert!(min.equivalent(&cover), "seed {seed}");
        prop_assert!(min.len() <= cover.len());
        // And the exact minimizer agrees functionally.
        let exact = kms::twolevel::minimize_exact(&cover, &kms::twolevel::Cover::empty(5));
        prop_assert!(exact.equivalent(&cover), "seed {seed}");
        prop_assert!(exact.len() <= min.len(), "exact must not lose to the heuristic");
    }
}

/// BLIF round-trip across random networks: write, parse, compare.
#[test]
fn blif_roundtrip_random_networks() {
    for seed in 1u64..20 {
        let net = random_network(seed, spec());
        let text = kms::blif::write_blif(&net);
        let back = kms::blif::parse_blif(&text).expect("written BLIF parses");
        net.exhaustive_equiv(&back.network)
            .unwrap_or_else(|v| panic!("seed {seed}: differs on {v:?}"));
    }
}
