//! The lazily encoded SAT path-condition oracle against BDDs.
//!
//! One `SensitizationOracle` answers a long sequence of queries, so its
//! encoding grows cone by cone between queries. For every path it is
//! asked three constraint lists: the static-sensitization list and the
//! viability list under each `LatenessRule`. Every verdict must equal
//! the BDD verdict of the same conjunction built over the whole network,
//! and every witness cube, simulated, must drive each constrained side
//! input to its noncontrolling value.

use kms_bdd::{Bdd, BddManager, NodeFunctions};
use kms_gen::adders::carry_skip_adder;
use kms_gen::random::{random_network, RandomNetworkSpec};
use kms_netlist::{transform, DelayModel, GateId, Network};
use kms_timing::{
    early_side_constraints, static_side_constraints, InputArrivals, LatenessRule, PathEnumerator,
    SensitizationOracle, Sta,
};

/// The conjunction of "gate `g` outputs `v`" over `constraints`: the
/// reference verdict is whether it is satisfiable.
fn conjunction(
    manager: &mut BddManager,
    funcs: &NodeFunctions,
    constraints: &[(GateId, bool)],
) -> Bdd {
    let literals: Vec<Bdd> = constraints
        .iter()
        .map(|&(g, v)| {
            let f = funcs.of(g);
            if v {
                f
            } else {
                manager.not(f)
            }
        })
        .collect();
    manager.and_all(literals)
}

/// Verdict counts of [`check_oracle`], per condition: (satisfiable,
/// refuted).
#[derive(Default)]
struct Counts {
    static_sens: (usize, usize),
    viable: [(usize, usize); 2],
}

/// Queries the first `paths` longest paths of `net` on one oracle, under
/// static sensitization and both viability lateness rules, checking each
/// verdict against the BDD and each witness by simulation.
fn check_oracle(net: &Network, paths: usize) -> Counts {
    let arrivals = InputArrivals::zero();
    let sta = Sta::run(net, &arrivals);
    let mut manager = BddManager::new(net.inputs().len());
    let funcs = NodeFunctions::build(net, &mut manager);
    let mut oracle = SensitizationOracle::new(net);
    let mut counts = Counts::default();
    let rules = [
        LatenessRule::BeforeGateOutput,
        LatenessRule::BeforeGateInput,
    ];
    for (path, _) in PathEnumerator::new(net, &arrivals).take(paths) {
        let mut lists = vec![(
            "static".to_string(),
            static_side_constraints(net, &path).unwrap(),
        )];
        for rule in rules {
            let early = early_side_constraints(net, &sta, &path, rule).unwrap();
            lists.push((format!("viability {rule:?}"), early));
        }
        for (i, (condition, constraints)) in lists.iter().enumerate() {
            let bdd = conjunction(&mut manager, &funcs, constraints);
            let verdict = oracle.query(net, constraints, None);
            assert_eq!(
                verdict.is_ok(),
                !bdd.is_false(),
                "{condition} verdict for {path} on {}",
                net.name()
            );
            let tally = match i {
                0 => &mut counts.static_sens,
                _ => &mut counts.viable[i - 1],
            };
            let cube = match verdict {
                Ok(cube) => cube,
                Err(refutation) => {
                    tally.1 += 1;
                    let core = conjunction(&mut manager, &funcs, &refutation.core);
                    assert!(
                        core.is_false(),
                        "{condition} core for {path} is satisfiable"
                    );
                    continue;
                }
            };
            tally.0 += 1;
            assert_eq!(cube.len(), net.inputs().len());
            let words: Vec<u64> = cube.iter().map(|&b| if b { !0 } else { 0 }).collect();
            let values = net.node_words(&words);
            for &(src, nc) in constraints {
                assert_eq!(
                    values[src.index()] & 1 != 0,
                    nc,
                    "{condition} witness for {path} on {} leaves side input {src} controlling",
                    net.name()
                );
            }
        }
    }
    counts
}

fn add(a: (usize, usize), b: (usize, usize)) -> (usize, usize) {
    (a.0 + b.0, a.1 + b.1)
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
    let mut total = Counts::default();
    for seed in 1..=40 {
        let c = check_oracle(&random_network(seed, spec), 60);
        total.static_sens = add(total.static_sens, c.static_sens);
        for i in 0..2 {
            total.viable[i] = add(total.viable[i], c.viable[i]);
        }
    }
    let (sensitizable, blocked) = total.static_sens;
    assert!(sensitizable > 0 && blocked > 0, "{sensitizable}/{blocked}");
    for (viable, refuted) in total.viable {
        assert!(viable > 0 && refuted > 0, "{viable}/{refuted}");
        // Smoothing only removes constraints: at least as many viable
        // paths as statically sensitizable ones.
        assert!(viable >= sensitizable, "{viable} < {sensitizable}");
    }
}

#[test]
fn lazy_oracle_matches_bdd_on_csa_8_2() {
    let mut net = carry_skip_adder(8, 2, DelayModel::Unit);
    transform::decompose_to_simple(&mut net);
    let c = check_oracle(&net, 4000);
    // The skip logic makes the ripple paths false: both verdicts occur.
    let (sensitizable, blocked) = c.static_sens;
    assert!(sensitizable > 0 && blocked > 0, "{sensitizable}/{blocked}");
    for (viable, refuted) in c.viable {
        assert!(viable > 0 && refuted > 0, "{viable}/{refuted}");
    }
}
