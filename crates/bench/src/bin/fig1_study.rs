//! Regenerates the Section III worked example (experiment E3, Fig. 1):
//! the 2-bit carry-skip block under the per-kind delay model (AND/OR = 1,
//! XOR/MUX = 2) with the block carry-in arriving at t = 5.
//!
//! Paper numbers: critical (viable) path of `c2` = **8** gate delays;
//! longest path (= ripple-carry delay) = **11**; with the skip AND output
//! stuck-at-0 the circuit *becomes* the ripple adder and its true delay is
//! 11 — the "speedtest" hazard.

use kms_atpg::{analyze_all, faulty_copy, is_testable, Engine, Fault, Testability};
use kms_gen::paper::fig4_c2_cone;
use kms_netlist::outln;
use kms_netlist::GateKind;
use kms_timing::{computed_delay, InputArrivals, PathCondition};

fn main() {
    let net = fig4_c2_cone();
    let cin = net.input_by_name("cin").expect("cin exists");
    let arr = InputArrivals::zero().with(cin, 5);
    let cap = 1 << 22;

    outln!("Fig. 1 study — 2-bit carry-skip block, c0 @ t=5, AND/OR=1 XOR/MUX=2");
    let topo = computed_delay(&net, &arr, PathCondition::Topological, cap).unwrap();
    outln!(
        "  longest path (static timing) : {}   [paper: 11]",
        topo.delay
    );
    let via = computed_delay(&net, &arr, PathCondition::Viability, cap).unwrap();
    outln!(
        "  critical path (viability)    : {}   [paper: 8]",
        via.delay
    );
    if let Some((path, cube)) = &via.witness {
        outln!("  critical path: {}", path.describe(&net));
        outln!(
            "  viable under  : {}",
            cube.iter()
                .map(|&b| if b { '1' } else { '0' })
                .collect::<String>()
        );
    }
    let stat = computed_delay(&net, &arr, PathCondition::StaticSensitization, cap).unwrap();
    outln!("  longest statically sensitizable: {}", stat.delay);

    // The redundancy: the skip AND (block propagate) output stuck-at-0.
    let bp = net
        .gate_ids()
        .find(|&g| net.gate(g).name.as_deref() == Some("bp0") && net.gate(g).kind == GateKind::And)
        .expect("skip AND present in the cone");
    let f = Fault::output(bp, false);
    let verdict = is_testable(&net, f, Engine::Sat);
    outln!(
        "  skip AND s-a-0 testable?     : {}   [paper: no — redundant]",
        matches!(verdict, Testability::Testable(_))
    );

    // The speedtest hazard: in the faulty circuit the delay regresses.
    let broken = faulty_copy(&net, f);
    let faulty_delay = computed_delay(&broken, &arr, PathCondition::Viability, cap).unwrap();
    outln!(
        "  delay with skip AND s-a-0    : {}   [paper: 11 — exceeds the clock set at 8]",
        faulty_delay.delay
    );

    let report = analyze_all(&net, Engine::Sat);
    outln!(
        "  fault universe: {} faults, {} testable, {} redundant",
        report.faults.len(),
        report.testable_count(),
        report.faults.len() - report.testable_count()
    );
}
