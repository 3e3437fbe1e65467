//! Regenerates the Section VI.3 algorithm walk-through (experiment E4,
//! Figs. 4 → 5 → 6): the KMS algorithm traced on the `c2` cone of the
//! 2-bit carry-skip adder.
//!
//! Paper narrative: the longest path (from c0, marked ×) is not statically
//! sensitizable — the two carry ANDs need p0 = p1 = 1 while the MUX needs
//! p0·p1 = 0. No gate on it has fanout > 1, so no duplication is needed;
//! the first edge is set to 0 (Fig. 5). The remaining two stuck-at-1
//! redundancies are then removed in any order, giving Fig. 6.

use kms_core::{kms_on_copy, verify_kms_invariants, KmsOptions};
use kms_gen::paper::fig4_c2_cone;
use kms_netlist::outln;
use kms_timing::{computed_delay, InputArrivals, PathCondition};

fn main() {
    let net = fig4_c2_cone();
    let cin = net.input_by_name("cin").expect("cin exists");
    let arr = InputArrivals::zero().with(cin, 5);

    outln!("Fig. 4 (initial redundant cone, simple gates):");
    outln!("{}", indent(&net.dump()));

    let (after, report) = kms_on_copy(&net, &arr, KmsOptions::default()).unwrap();
    for (i, it) in report.iterations.iter().enumerate() {
        outln!(
            "iteration {}: longest length {}, path {}, duplicated {} gates, first edge := {}",
            i + 1,
            it.longest_length,
            it.path,
            it.duplicated,
            u8::from(it.constant),
        );
    }
    outln!(
        "remaining redundancies removed in any order: {}",
        report
            .removed_redundancies
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    outln!();
    outln!("Fig. 6 (final irredundant cone):");
    outln!("{}", indent(&after.dump()));

    let inv = verify_kms_invariants(&net, &after, &arr).unwrap();
    let cap = 1 << 22;
    let before = computed_delay(&net, &arr, PathCondition::Viability, cap).unwrap();
    let after_d = computed_delay(&after, &arr, PathCondition::Viability, cap).unwrap();
    outln!("equivalent: {}", inv.equivalent);
    outln!("fully testable: {}", inv.fully_testable);
    outln!(
        "viable delay: {} -> {}   [paper: 8 -> no slower]",
        before.delay,
        after_d.delay
    );
    outln!(
        "gates: {} -> {}   [paper: no area overhead on this cone]",
        report.gates_before,
        report.gates_after
    );
}

fn indent(s: &str) -> String {
    s.lines()
        .map(|l| format!("    {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}
