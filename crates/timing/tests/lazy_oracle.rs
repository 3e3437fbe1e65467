//! The lazily encoded SAT sensitization oracle against the BDD oracle.
//!
//! One `SensitizationOracle` answers a long sequence of path queries, so
//! its encoding grows cone by cone between queries. Every verdict must
//! equal the BDD verdict of `sensitization_function` over the whole
//! network, and every witness cube, simulated, must drive each
//! constrained side input to its noncontrolling value.

use kms_bdd::{BddManager, NodeFunctions};
use kms_gen::adders::carry_skip_adder;
use kms_gen::random::{random_network, RandomNetworkSpec};
use kms_netlist::{transform, DelayModel, Network};
use kms_timing::{
    sensitization_function, static_side_constraints, InputArrivals, PathEnumerator,
    SensitizationOracle,
};

/// Queries the first `paths` longest paths of `net` on one oracle and
/// returns how many were sensitizable and how many were not.
fn check_oracle(net: &Network, paths: usize) -> (usize, usize) {
    let mut manager = BddManager::new(net.inputs().len());
    let funcs = NodeFunctions::build(net, &mut manager);
    let mut oracle = SensitizationOracle::new(net);
    let (mut sensitizable, mut blocked) = (0, 0);
    for (path, _) in PathEnumerator::new(net, &InputArrivals::zero()).take(paths) {
        let bdd = sensitization_function(net, &path, &mut manager, &funcs).unwrap();
        let cube = oracle.sensitization_cube(net, &path).unwrap();
        assert_eq!(
            cube.is_some(),
            !bdd.is_false(),
            "verdict for {path} on {}",
            net.name()
        );
        let Some(cube) = cube else {
            blocked += 1;
            continue;
        };
        sensitizable += 1;
        assert_eq!(cube.len(), net.inputs().len());
        let words: Vec<u64> = cube.iter().map(|&b| if b { !0 } else { 0 }).collect();
        let values = net.node_words(&words);
        for (src, nc) in static_side_constraints(net, &path).unwrap() {
            assert_eq!(
                values[src.index()] & 1 != 0,
                nc,
                "witness for {path} on {} leaves side input {src} controlling",
                net.name()
            );
        }
    }
    (sensitizable, blocked)
}

#[test]
fn lazy_oracle_matches_bdd_on_random_networks() {
    let spec = RandomNetworkSpec {
        inputs: 8,
        gates: 40,
        outputs: 3,
        max_fanin: 3,
        max_delay: 2,
    };
    let (mut sensitizable, mut blocked) = (0, 0);
    for seed in 1..=40 {
        let (s, b) = check_oracle(&random_network(seed, spec), 60);
        sensitizable += s;
        blocked += b;
    }
    assert!(sensitizable > 0 && blocked > 0, "{sensitizable}/{blocked}");
}

#[test]
fn lazy_oracle_matches_bdd_on_csa_8_2() {
    let mut net = carry_skip_adder(8, 2, DelayModel::Unit);
    transform::decompose_to_simple(&mut net);
    let (sensitizable, blocked) = check_oracle(&net, 4000);
    // The skip logic makes the ripple paths false: both verdicts occur.
    assert!(sensitizable > 0 && blocked > 0, "{sensitizable}/{blocked}");
}
