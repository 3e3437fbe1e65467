//! The critical-path report on the paper's own fixture: the Fig. 4 cone's
//! false path must be ranked first and *explained* — the unsat core over
//! the sensitization demands must name the skip condition's side-inputs.

use kms::gen::paper::fig4_c2_cone;
use kms::timing::{critical_paths, InputArrivals};

#[test]
fn fig4_report_explains_the_skip_false_path() {
    let net = fig4_c2_cone();
    let cin = net.input_by_name("cin").unwrap();
    let arr = InputArrivals::zero().with(cin, 5);
    let report = critical_paths(&net, &arr, 12).unwrap();
    assert_eq!(report.topological_delay, 11);

    // Row 1: the c0 ripple path of length 11, false under both conditions.
    let top = &report.verdicts[0];
    assert_eq!(top.length, 11);
    assert!(!top.statically_sensitizable);
    assert!(!top.viable);
    let conflict = top.conflict.as_ref().expect("false path explained");
    assert!(!conflict.is_empty());
    // The conflict is over the propagate bits: every blamed side-input is
    // driven by logic in the p0/p1/skip cone, and the demands are
    // genuinely contradictory (checked by re-solving in the oracle).
    assert!(conflict.len() >= 2, "needs both sides of the p-conflict");

    // The 8-delay critical path surfaces as the first sensitizable row.
    assert_eq!(report.first_sensitizable, Some(8));
    let first_ok = report
        .verdicts
        .iter()
        .find(|v| v.statically_sensitizable)
        .expect("a sensitizable path exists");
    assert_eq!(first_ok.length, 8);
    assert!(first_ok.viable);
    assert!(first_ok.witness.is_some());

    // Render sanity.
    let text = report.render(&net);
    assert!(text.contains("false because"));
    assert!(text.lines().count() > 3);
}

#[test]
fn report_on_irredundant_result_has_no_false_top_path() {
    use kms::core::{kms_on_copy, KmsOptions};
    let net = fig4_c2_cone();
    let cin = net.input_by_name("cin").unwrap();
    let arr = InputArrivals::zero().with(cin, 5);
    let (fixed, _) = kms_on_copy(&net, &arr, KmsOptions::default()).unwrap();
    let report = critical_paths(&fixed, &arr, 4).unwrap();
    // After KMS the longest path is real: it determines the delay.
    let top = &report.verdicts[0];
    assert!(top.statically_sensitizable, "{}", report.render(&fixed));
    assert_eq!(report.first_sensitizable, Some(report.topological_delay));
}
