//! The classic ISCAS-85 c17 benchmark through the full toolchain: parse,
//! decompose, ATPG, KMS, and format round trips.

use kms::atpg::{analyze_all, compact_tests, fault_simulate, podem, Engine};
use kms::blif::{parse_iscas, write_blif, write_iscas, C17};
use kms::core::{kms_on_copy, verify_kms_invariants, KmsOptions};
use kms::netlist::{transform, DelayModel};
use kms::timing::InputArrivals;

#[test]
fn c17_is_fully_testable() {
    // c17 is the canonical irredundant ATPG example: every stuck fault
    // has a test.
    let net = parse_iscas(C17).unwrap();
    let report = analyze_all(&net, Engine::Sat);
    assert!(report.fully_testable());
    // PODEM agrees.
    for &f in &report.faults {
        assert!(podem(&net, f, 10_000).test_vector().is_some(), "{f}");
    }
    // A compacted complete test set for c17 is famously tiny (≤ 8).
    let faults = kms::atpg::all_faults(&net);
    let compact = compact_tests(&net, &faults, &report.tests());
    assert!(compact.tests.len() <= 8, "{} vectors", compact.tests.len());
    let cov = fault_simulate(&net, &faults, &compact.tests);
    assert_eq!(cov.detected(), faults.len());
}

#[test]
fn c17_through_kms_is_a_fixpoint() {
    let mut net = parse_iscas(C17).unwrap();
    transform::decompose_to_simple(&mut net);
    net.apply_delay_model(DelayModel::Unit);
    let arr = InputArrivals::zero();
    let (after, report) = kms_on_copy(&net, &arr, KmsOptions::default()).unwrap();
    // Irredundant input: nothing removed, nothing duplicated.
    assert!(report.removed_redundancies.is_empty());
    assert_eq!(report.duplicated_gates, 0);
    let inv = verify_kms_invariants(&net, &after, &arr).unwrap();
    assert!(inv.holds(), "{inv:?}");
}

#[test]
fn c17_cross_format_roundtrip() {
    // ISCAS → network → BLIF → network → ISCAS → network, all equivalent.
    let net = parse_iscas(C17).unwrap();
    let blif_text = write_blif(&net);
    let via_blif = kms::blif::parse_blif(&blif_text).unwrap().network;
    net.exhaustive_equiv(&via_blif).unwrap();
    let iscas_text = write_iscas(&net).unwrap();
    let via_iscas = parse_iscas(&iscas_text).unwrap();
    net.exhaustive_equiv(&via_iscas).unwrap();
}
