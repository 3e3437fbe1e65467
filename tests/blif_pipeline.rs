//! End-to-end interchange pipeline: PLA suite → networks → BLIF text →
//! re-parse → KMS → BLIF again, checking equivalence at every hop.

use kms::blif::{parse_blif, write_blif, PlaFile};
use kms::core::{kms_on_copy, KmsOptions};
use kms::gen::mcnc;
use kms::netlist::{transform, DelayModel};
use kms::sat::check_equivalence;
use kms::timing::InputArrivals;

#[test]
fn pla_suite_elaborates_and_roundtrips() {
    for bench in mcnc::table1_suite() {
        let net = bench.pla.to_network(bench.name);
        net.validate().unwrap();
        assert_eq!(net.inputs().len(), bench.pla.num_inputs, "{}", bench.name);
        assert_eq!(net.outputs().len(), bench.pla.num_outputs, "{}", bench.name);
        // PLA text round trip.
        let text = bench.pla.to_text();
        let back = kms::blif::parse_pla(&text).unwrap();
        assert_eq!(back, bench.pla, "{}", bench.name);
        // BLIF round trip of the elaborated network (SAT equivalence for
        // the wide ones).
        let blif = write_blif(&net);
        let reparsed = parse_blif(&blif).unwrap().network;
        if net.inputs().len() <= 14 {
            net.exhaustive_equiv(&reparsed).unwrap();
        } else {
            assert!(
                check_equivalence(&net, &reparsed).is_equivalent(),
                "{}",
                bench.name
            );
        }
    }
}

#[test]
fn kms_output_survives_blif_interchange() {
    let pla = mcnc::z4ml();
    let mut net = pla.to_network("z4ml");
    transform::decompose_to_simple(&mut net);
    net.apply_delay_model(DelayModel::Unit);
    let (fixed, _) = kms_on_copy(&net, &InputArrivals::zero(), KmsOptions::default()).unwrap();
    let text = write_blif(&fixed);
    let back = parse_blif(&text).unwrap().network;
    fixed.exhaustive_equiv(&back).unwrap();
    // And the re-parsed circuit is still fully testable.
    assert!(kms::atpg::analyze(&back, kms::atpg::Engine::Sat).fully_testable());
}

/// The `kms` command line twice over: a carry-skip adder written as
/// BLIF, optimized, written, read back and optimized again. The first
/// pass reads gates named `n<k>` whose ids have moved, and its output
/// must not reuse those names for the gates it adds.
#[test]
fn kms_output_reads_back_after_two_passes() {
    let options = KmsOptions::default();
    let pass = |text: &str| {
        let mut net = parse_blif(text).expect("written BLIF parses").network;
        transform::decompose_to_simple(&mut net);
        net.apply_delay_model(DelayModel::Unit);
        let (fixed, _) = kms_on_copy(&net, &InputArrivals::zero(), options).unwrap();
        assert!(check_equivalence(&net, &fixed).is_equivalent());
        write_blif(&fixed)
    };
    let adder = kms::gen::adders::carry_skip_adder(8, 4, DelayModel::Unit);
    let once = pass(&write_blif(&adder));
    let twice = pass(&once);
    let first = parse_blif(&once).unwrap().network;
    let second = parse_blif(&twice).unwrap().network;
    assert!(check_equivalence(&adder, &first).is_equivalent());
    assert!(check_equivalence(&first, &second).is_equivalent());
}

#[test]
fn exact_functions_match_their_definitions_after_interchange() {
    // rd73 through the full text pipeline still counts ones.
    let text = mcnc::rd73().to_text();
    let pla = kms::blif::parse_pla(&text).unwrap();
    let net = pla.to_network("rd73");
    for m in [0u32, 1, 3, 42, 85, 127] {
        let bits: Vec<bool> = (0..7).map(|i| (m >> i) & 1 == 1).collect();
        let out = net.eval_bool(&bits);
        let got = out
            .iter()
            .enumerate()
            .fold(0u32, |acc, (i, &b)| acc | (u32::from(b) << i));
        assert_eq!(got, m.count_ones());
    }
}

#[test]
fn hand_written_pla_to_kms() {
    // A deliberately redundant PLA: f = a·b + a (the a·b cube is covered).
    let mut pla = PlaFile::new(3, 1);
    pla.add_cube("11-", "1");
    pla.add_cube("1--", "1");
    let mut net = pla.to_network("red");
    net.apply_delay_model(DelayModel::Unit);
    let red = kms::atpg::redundancy_count(&net, kms::atpg::Engine::Sat);
    assert!(red > 0, "covered cube must be redundant");
    let (fixed, report) = kms_on_copy(&net, &InputArrivals::zero(), KmsOptions::default()).unwrap();
    assert!(!report.removed_redundancies.is_empty());
    net.exhaustive_equiv(&fixed).unwrap();
    assert!(kms::atpg::analyze(&fixed, kms::atpg::Engine::Sat).fully_testable());
}
