//! Chaos suite: deterministic fault injection (`fault-inject` feature).
//!
//! Run with `cargo test --features fault-inject --test chaos`. Each
//! scenario arms one injection hook — abort solver call #k, panic
//! classification #j, fail checkpoint write #i —
//! and proves the governed runtime degrades cleanly: every injected
//! failure yields either a typed error or a degraded-but-valid report,
//! never a corrupt one, and a clean re-run is bit-identical to the
//! uninjected baseline.
//!
//! The hooks are process-global atomics, so every test serializes on one
//! mutex and clears all plans on entry and exit.

#![cfg(feature = "fault-inject")]

use std::sync::{Mutex, MutexGuard};

use kms::atpg::{
    classify_faults, classify_faults_report, collapsed_faults, ParallelOptions, Testability,
    UnknownReason,
};
use kms::core::{kms_on_copy, kms_with_control, KmsOptions, RunControl};
use kms::netlist::{transform, DelayModel, GateKind, Network};
use kms::timing::InputArrivals;

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// Serializes the scenarios (the injection plans are process-global) and
/// starts from a clean slate even if a previous test failed mid-plan.
fn serial() -> MutexGuard<'static, ()> {
    let guard = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    clear_all();
    guard
}

fn clear_all() {
    kms::sat::inject::clear();
    kms::atpg::chaos::clear();
    kms::core::inject::clear();
}

/// The Table I csa 4.4 preparation: redundant by construction, so the
/// classification runs have real redundant faults to prove.
fn csa() -> Network {
    let mut net = kms::gen::adders::carry_skip_adder(4, 4, DelayModel::Unit);
    transform::decompose_to_simple(&mut net);
    net.apply_delay_model(DelayModel::Unit);
    net
}

fn chaos_path(tag: &str) -> std::path::PathBuf {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/target/chaos-tests");
    std::fs::create_dir_all(dir).unwrap();
    std::path::Path::new(dir).join(format!("{tag}-{}.ck", std::process::id()))
}

/// Scenario 1 — abort solver call #k: the armed call returns
/// `Aborted(Injected)` at entry; classification degrades that one fault
/// to `Unknown(Injected)`, decides every other fault exactly as the
/// baseline did, and a clean re-run is bit-identical.
#[test]
fn injected_solver_abort_degrades_one_fault() {
    let _guard = serial();
    let net = csa();
    // `certify` forces every redundancy verdict through an incremental
    // UNSAT query, so the run is guaranteed to issue solver calls (the
    // uncertified path may settle everything in PODEM).
    let opts = ParallelOptions {
        certify: true,
        ..Default::default()
    };
    let baseline = classify_faults(&net, collapsed_faults(&net), opts);
    assert_eq!(baseline.unknown_count(), 0, "uninjected baseline is total");

    kms::sat::inject::abort_solver_call(1);
    let hit = classify_faults(&net, collapsed_faults(&net), opts);
    assert!(
        kms::sat::inject::calls_observed() >= 1,
        "the certified run must issue at least one solver call"
    );
    kms::sat::inject::clear();

    assert_eq!(hit.faults, baseline.faults);
    assert!(hit.unknown_count() >= 1, "the aborted query must surface");
    assert!(
        hit.unknown_reasons()
            .iter()
            .any(|(r, _)| *r == UnknownReason::Injected),
        "the unknown must carry the injection reason, got {:?}",
        hit.unknown_reasons()
    );
    // Degraded, not corrupted: every decided fault agrees with baseline.
    for (a, b) in baseline.verdicts.iter().zip(&hit.verdicts) {
        if !b.is_unknown() {
            assert_eq!(a, b, "a decided verdict diverged under injection");
        }
    }

    let rerun = classify_faults(&net, collapsed_faults(&net), opts);
    assert_eq!(rerun.verdicts, baseline.verdicts, "clean re-run diverged");
}

/// Scenario 2 — panic classification #j mid-update: the per-fault panic
/// shield degrades exactly that fault to `Unknown(WorkerPanic)`, every
/// other verdict equals the clean run's, and the rebuilt solver context
/// keeps classifying the faults after it, with the broken context's
/// counters kept.
#[test]
fn injected_classification_panic_degrades_one_fault() {
    let _guard = serial();
    let net = csa();
    // `certify` sends every redundant fault through the shared-CNF SAT
    // path, so the panic fires with the fault's cone half done.
    let opts = ParallelOptions {
        certify: true,
        ..Default::default()
    };
    let clean = classify_faults_report(&net, collapsed_faults(&net), opts);
    let baseline = &clean.testability;
    let redundant: Vec<usize> = (0..baseline.verdicts.len())
        .filter(|&i| baseline.verdicts[i].is_redundant())
        .collect();
    // The random patterns detect every testable fault of csa 4.4, so the
    // classifier sees exactly the redundant faults, in list order: the
    // j-th classification is the j-th redundant fault.
    assert_eq!(clean.engine_calls, redundant.len() as u64);
    const J: usize = 1;
    assert!(redundant.len() > J, "faults must follow the victim");

    kms::atpg::chaos::panic_on_classification(J as u64);
    let report = classify_faults_report(&net, collapsed_faults(&net), opts);
    let observed = kms::atpg::chaos::classifications_observed();
    kms::atpg::chaos::clear();

    assert_eq!(
        observed, clean.engine_calls,
        "the rebuilt context must classify every fault after the panic"
    );
    assert_eq!(
        report.engine_calls, clean.engine_calls,
        "the broken context's counters must be kept"
    );
    // Every redundancy but the victim's is certified, by whichever
    // context decided it, and every certificate checks.
    let (want, got) = (
        clean.certification.as_ref().expect("certified run"),
        report.certification.as_ref().expect("certified run"),
    );
    assert_eq!(got.proofs_checked + 1, want.proofs_checked);
    assert_eq!(got.proofs_failed, 0);
    let hit = report.testability;
    assert_eq!(hit.faults, baseline.faults);
    let victim = redundant[J - 1];
    for (i, (want, got)) in baseline.verdicts.iter().zip(&hit.verdicts).enumerate() {
        if i == victim {
            assert_eq!(*got, Testability::Unknown(UnknownReason::WorkerPanic));
        } else {
            assert_eq!(
                want, got,
                "fault {} diverged under injection",
                hit.faults[i]
            );
        }
    }

    let rerun = classify_faults(&net, collapsed_faults(&net), opts);
    assert_eq!(rerun.verdicts, baseline.verdicts, "clean re-run diverged");
}

/// Two disjoint copies of `net`, inputs and outputs prefixed `a.`/`b.`.
fn two_copies(net: &Network) -> Network {
    let mut out = Network::new("twice");
    for copy in ["a", "b"] {
        let mut map = vec![None; net.num_gate_slots()];
        for id in net.topo_order() {
            let g = net.gate(id);
            let new = match g.kind {
                GateKind::Input => {
                    out.add_input(format!("{copy}.{}", g.name.as_deref().unwrap_or("?")))
                }
                GateKind::Const(v) => out.add_const(v),
                kind => {
                    let srcs: Vec<_> = g.pins.iter().map(|p| map[p.src.index()].unwrap()).collect();
                    out.add_gate(kind, &srcs, g.delay)
                }
            };
            map[id.index()] = Some(new);
        }
        for o in net.outputs() {
            out.add_output(format!("{copy}.{}", o.name), map[o.src.index()].unwrap());
        }
    }
    out
}

/// Scenario 2b — the panic shield rebuilds the broken context. The
/// circuit is two disjoint copies of the 8-bit comparator, on which PODEM
/// gives up on several testable faults; the shared-CNF SAT path then
/// classifies them, pinning every *encoded* input in turn for the
/// canonical test vector. Classification #40 falls in the second copy,
/// after the first copy's SAT classifications and before the second's,
/// and PODEM settles it. A run that kept the context after the panic
/// repeats the clean run's solver calls exactly. The rebuilt context
/// holds none of the first copy's encoding, so each later SAT
/// classification pins only its own copy's inputs: fewer solver calls,
/// with every other verdict and vector unchanged.
#[test]
fn panic_rebuilds_the_context_for_the_faults_after_it() {
    let _guard = serial();
    let mut one = kms::gen::datapath::comparator(8, DelayModel::Unit);
    transform::decompose_to_simple(&mut one);
    let mut net = two_copies(&one);
    net.apply_delay_model(DelayModel::Unit);
    let opts = ParallelOptions::default();
    let clean = classify_faults_report(&net, collapsed_faults(&net), opts);
    let baseline = &clean.testability;
    assert!(baseline
        .verdicts
        .iter()
        .all(|v| matches!(v, Testability::Testable(_))));
    assert!(clean.solver.sat_calls > 0, "some testable fault needs SAT");
    const J: u64 = 40;
    assert!(clean.engine_calls > J, "classifications follow the victim");

    kms::atpg::chaos::panic_on_classification(J);
    let report = classify_faults_report(&net, collapsed_faults(&net), opts);
    let observed = kms::atpg::chaos::classifications_observed();
    kms::atpg::chaos::clear();

    assert_eq!(observed, clean.engine_calls);
    assert_eq!(report.engine_calls, clean.engine_calls);
    let hit = report.testability;
    assert_eq!(hit.unknown_count(), 1);
    for (want, got) in baseline.verdicts.iter().zip(&hit.verdicts) {
        if *got != Testability::Unknown(UnknownReason::WorkerPanic) {
            assert_eq!(want, got, "a verdict diverged after the panic");
        }
    }
    assert!(
        report.solver.sat_calls < clean.solver.sat_calls,
        "the faults after the victim must run in a fresh context: {} solver calls, \
         as many as a kept context makes ({})",
        report.solver.sat_calls,
        clean.solver.sat_calls
    );
}

/// Scenario 3 — fail checkpoint write #i: the injected I/O error is
/// warned about and swallowed; the run completes with a report identical
/// to an uncheckpointed baseline, later writes succeed, and the
/// completed run removes its checkpoint file.
#[test]
fn injected_checkpoint_write_failure_is_survivable() {
    let _guard = serial();
    let net = kms::gen::paper::fig4_c2_cone();
    let cin = net.input_by_name("cin").expect("cin exists");
    let arrivals = InputArrivals::zero().with(cin, 5);
    let options = KmsOptions::default();
    let (base_net, base_report) = kms_on_copy(&net, &arrivals, options).unwrap();
    assert!(
        !base_report.iterations.is_empty(),
        "the run must checkpoint at least once"
    );

    let path = chaos_path("ckpt-fail");
    kms::core::inject::fail_checkpoint_write(1);
    let mut governed = net.clone();
    let report = kms_with_control(
        &mut governed,
        &arrivals,
        options,
        RunControl {
            checkpoint: Some(path.clone()),
            ..Default::default()
        },
    )
    .unwrap()
    .expect("a run without stop_after always completes");
    assert!(
        kms::core::inject::writes_observed() >= 1,
        "the run must attempt a checkpoint write"
    );
    kms::core::inject::clear();

    // The failed write changed nothing observable: same final network,
    // same trace, same removals; and the completed run left no stale
    // checkpoint behind.
    assert_eq!(base_net.dump(), governed.dump());
    assert_eq!(report.iterations.len(), base_report.iterations.len());
    assert_eq!(
        report.removed_redundancies,
        base_report.removed_redundancies
    );
    assert_eq!(report.gates_after, base_report.gates_after);
    assert_eq!(report.unknown, 0);
    assert!(
        !path.exists(),
        "a completed run removes its checkpoint file"
    );
}
