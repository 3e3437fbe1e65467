//! Integration test for experiment E3: the Section III worked example
//! (Fig. 1). Every number the paper states about the 2-bit carry-skip
//! block is checked against the implementation.

use kms::atpg::{analyze_all, faulty_copy, is_testable, Engine, Fault, Testability};
use kms::gen::adders::{apply_adder, ripple_carry_adder};
use kms::gen::paper::{fig1_carry_skip_block, fig4_c2_cone};
use kms::netlist::{DelayModel, GateKind};
use kms::timing::{
    computed_delay, early_side_constraints, InputArrivals, LatenessRule, PathCondition, Sta,
};

const CAP: usize = 1 << 22;

fn fig4_arrivals(net: &kms::netlist::Network) -> InputArrivals {
    let cin = net.input_by_name("cin").expect("cin exists");
    InputArrivals::zero().with(cin, 5)
}

#[test]
fn longest_path_is_the_ripple_delay_11() {
    let net = fig4_c2_cone();
    let arr = fig4_arrivals(&net);
    let topo = computed_delay(&net, &arr, PathCondition::Topological, CAP).unwrap();
    assert_eq!(topo.delay, 11, "paper: available after 11 gate delays");
    // "The length of the longest path is the delay of a ripple-carry
    // adder": in the skip circuit the rippled carry still traverses the
    // MUX (+2), so 11 = plain ripple chain (9) + MUX. Check both halves.
    let mut rca = ripple_carry_adder(2, DelayModel::section3());
    let cin = rca.input_by_name("cin").unwrap();
    let rarr = InputArrivals::zero().with(cin, 5);
    kms::netlist::transform::decompose_to_simple(&mut rca);
    let rd = computed_delay(&rca, &rarr, PathCondition::Viability, CAP).unwrap();
    assert_eq!(rd.delay, 9, "plain ripple carry: 5 + AND+OR+AND+OR");
    assert_eq!(topo.delay, rd.delay + 2, "plus the skip MUX");
}

#[test]
fn critical_path_is_8_under_viability_and_static_sensitization() {
    let net = fig4_c2_cone();
    let arr = fig4_arrivals(&net);
    let via = computed_delay(&net, &arr, PathCondition::Viability, CAP).unwrap();
    assert_eq!(via.delay, 8, "paper: output available after 8 gate delays");
    let stat = computed_delay(&net, &arr, PathCondition::StaticSensitization, CAP).unwrap();
    assert_eq!(stat.delay, 8);
    // The witness path starts at a0 or b0 (the paper names a0's path
    // through gates 1, 6, 7, 9, 11 and the MUX).
    let (path, cube) = via.witness.expect("a viable path realizes the delay");
    let src = net.gate(path.source(&net)).name.clone().unwrap();
    assert!(src == "a0" || src == "b0", "critical path starts at {src}");
    // The cube `fig1_study` prints (`results/fig1_study.txt`), in input
    // order. Simulated, it drives every early side input of the path to
    // its noncontrolling value: it is a viability witness.
    let printed: Vec<bool> = "01000".chars().map(|c| c == '1').collect();
    assert_eq!(cube, printed);
    let sta = Sta::run(&net, &arr);
    let early = early_side_constraints(&net, &sta, &path, LatenessRule::default()).unwrap();
    assert!(!early.is_empty(), "the critical path has early side inputs");
    let words: Vec<u64> = cube.iter().map(|&b| if b { !0 } else { 0 }).collect();
    let values = net.node_words(&words);
    for (src, nc) in early {
        assert_eq!(
            values[src.index()] & 1 != 0,
            nc,
            "side input {src} of {path}"
        );
    }
}

#[test]
fn skip_and_stuck_at_0_is_the_redundancy() {
    let net = fig4_c2_cone();
    let bp = net
        .gate_ids()
        .find(|&g| net.gate(g).name.as_deref() == Some("bp0") && net.gate(g).kind == GateKind::And)
        .expect("skip AND in the cone");
    let verdict = is_testable(&net, Fault::output(bp, false), Engine::Sat);
    assert!(
        verdict.is_redundant(),
        "paper: the single stuck-at-0 fault on the output of gate 10 is not testable"
    );
    // Stuck-at-1 on the same gate *is* testable.
    let verdict1 = is_testable(&net, Fault::output(bp, true), Engine::Sat);
    assert!(matches!(verdict1, Testability::Testable(_)));
}

#[test]
fn faulty_circuit_is_a_ripple_adder_and_misses_the_clock() {
    // "The carry-skip adder becomes a logically equivalent ripple-carry
    // adder in the presence of the fault" + the speedtest hazard.
    let net = fig4_c2_cone();
    let arr = fig4_arrivals(&net);
    let bp = net.gate_by_name("bp0").expect("skip AND");
    let broken = faulty_copy(&net, Fault::output(bp, false));
    // Logical equivalence with the ripple carry-out.
    let rca = ripple_carry_adder(2, DelayModel::section3());
    for m in 0..32u32 {
        let bits: Vec<bool> = (0..5).map(|i| (m >> i) & 1 == 1).collect();
        assert_eq!(
            broken.eval_bool(&bits)[0],
            *rca.eval_bool(&bits).last().unwrap(),
            "minterm {m}"
        );
    }
    // The critical path is now the longest path: 11 > the clock of 8.
    let slow = computed_delay(&broken, &arr, PathCondition::Viability, CAP).unwrap();
    assert_eq!(
        slow.delay, 11,
        "paper: output available after 11 gate delays"
    );
}

#[test]
fn complete_test_set_misses_the_skip_fault() {
    // The speedtest motivation: no stuck-at test detects the redundant
    // fault, yet the fault changes the temporal behaviour.
    let net = fig4_c2_cone();
    let report = analyze_all(&net, Engine::Sat);
    let bp = net.gate_by_name("bp0").unwrap();
    let f = Fault::output(bp, false);
    let tests = report.tests();
    assert!(!tests.is_empty());
    let cov = kms::atpg::fault_simulate(&net, &[f], &tests);
    assert_eq!(cov.detected(), 0, "untestable fault evades every vector");
}

#[test]
fn fig1_block_is_functionally_an_adder_and_faster_than_ripple() {
    // Sanity on the complex-gate Fig. 1 block itself.
    let net = fig1_carry_skip_block();
    for a in 0..4u64 {
        for b in 0..4u64 {
            let (s, c) = apply_adder(&net, 2, a, b, true);
            assert_eq!(s, (a + b + 1) & 3);
            assert_eq!(c, a + b + 1 >= 4);
        }
    }
}
