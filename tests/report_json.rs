//! Golden bytes of the report JSON: the solver counters, the
//! certification ledger, the classification report and the KMS report,
//! each with fixed counters and zero durations. The strings pin the
//! values, the key order and the whitespace of `kms -f json` and the
//! ledgers embedded in it.

use std::time::Duration;

use kms::atpg::{ClassifyReport, Fault, Testability, TestabilityReport, UnknownReason};
use kms::core::{EngineStats, KmsIteration, KmsPhaseTimings, KmsReport};
use kms::netlist::GateId;
use kms::proof::CertificationReport;
use kms::sat::Stats;

/// Every counter distinct: `base + 1` to `base + 12` in field order.
fn stats(base: u64) -> Stats {
    Stats {
        sat_calls: base + 1,
        conflicts: base + 2,
        decisions: base + 3,
        propagations: base + 4,
        restarts: base + 5,
        learnts: base + 6,
        learned_total: base + 7,
        deleted_total: base + 8,
        minimized_lits: base + 9,
        lbd_sum: base + 10,
        arena_gc: base + 11,
        blocker_hits: base + 12,
    }
}

fn certification() -> CertificationReport {
    CertificationReport {
        proofs_emitted: 5,
        proofs_checked: 3,
        proofs_failed: 2,
        check_time: Duration::ZERO,
        proof_stream_total: 400,
        proof_stream_max: 120,
        stream_ingested: 250,
        steps_checked: 17,
        steps_skipped: 4,
        propagations: 999,
        failures: vec![
            "atpg g3 sa0: missing step".into(),
            "sens \"a\" -> y: rejected".into(),
        ],
    }
}

const CERTIFICATION: &str = "{\"proofs_emitted\": 5, \"proofs_checked\": 3, \"proofs_failed\": 2, \
    \"check_time_ns\": 0, \"proof_stream_total\": 400, \
    \"proof_stream_max\": 120, \"stream_ingested\": 250, \
    \"steps_checked\": 17, \"steps_skipped\": 4, \"propagations\": 999, \
    \"failures\": [\"atpg g3 sa0: missing step\", \
    \"sens \\\"a\\\" -> y: rejected\"]}";

#[test]
fn solver_stats_json() {
    assert_eq!(
        stats(0).to_json().compact(),
        "{\"sat_calls\": 1, \"conflicts\": 2, \"decisions\": 3, \
         \"propagations\": 4, \"restarts\": 5, \"learnts\": 6, \
         \"learned_total\": 7, \"deleted_total\": 8, \"minimized_lits\": 9, \
         \"lbd_sum\": 10, \"arena_gc\": 11, \"blocker_hits\": 12}"
    );
}

#[test]
fn certification_json() {
    assert_eq!(certification().to_json().compact(), CERTIFICATION);
    assert_eq!(
        CertificationReport::default().to_json().compact(),
        "{\"proofs_emitted\": 0, \"proofs_checked\": 0, \"proofs_failed\": 0, \
         \"check_time_ns\": 0, \"proof_stream_total\": 0, \
         \"proof_stream_max\": 0, \"stream_ingested\": 0, \"steps_checked\": 0, \
         \"steps_skipped\": 0, \"propagations\": 0, \"failures\": []}"
    );
}

#[test]
fn classify_report_json() {
    let g = GateId::from_index;
    let report = ClassifyReport {
        testability: TestabilityReport {
            faults: vec![
                Fault::output(g(1), false),
                Fault::output(g(1), true),
                Fault::output(g(2), false),
                Fault::output(g(3), true),
            ],
            verdicts: vec![
                Testability::Testable(vec![true, false]),
                Testability::Redundant,
                Testability::Unknown(UnknownReason::Conflicts),
                Testability::Testable(vec![false, false]),
            ],
        },
        solver: stats(100),
        engine_calls: 3,
        certification: Some(certification()),
    };
    let expected = "{\"faults\": 4, \"testable\": 2, \"redundant\": 1, \"unknown\": 1, \
        \"engine_calls\": 3, \"solver\": {\"sat_calls\": 101, \
        \"conflicts\": 102, \"decisions\": 103, \"propagations\": 104, \
        \"restarts\": 105, \"learnts\": 106, \"learned_total\": 107, \
        \"deleted_total\": 108, \"minimized_lits\": 109, \"lbd_sum\": 110, \
        \"arena_gc\": 111, \"blocker_hits\": 112}, \"unknown_reasons\": {\"conflicts\": 1}, \
        \"certification\": ";
    assert_eq!(
        report.to_json().compact(),
        format!("{expected}{CERTIFICATION}}}")
    );
}

#[test]
fn kms_report_json() {
    let report = KmsReport {
        iterations: vec![
            KmsIteration {
                longest_length: 7,
                path: "a -> y".into(),
                duplicated: 2,
                constant: false,
                gates_after: 9,
                dropped: 0,
            },
            KmsIteration {
                longest_length: 6,
                path: "b -> y".into(),
                duplicated: 0,
                constant: true,
                gates_after: 8,
                dropped: 1,
            },
        ],
        removed_redundancies: vec![Fault::output(GateId::from_index(4), false)],
        gates_before: 12,
        gates_after: 8,
        duplicated_gates: 2,
        topological_before: 7,
        topological_after: 6,
        max_fanout_before: 3,
        max_fanout_after: 2,
        capped: false,
        dropped_longest_paths: 1,
        engine: EngineStats {
            full_recomputes: 3,
            cache_hits: 4,
            cache_misses: 5,
            ..Default::default()
        },
        timings: KmsPhaseTimings::default(),
        oracle_solver: stats(200),
        atpg_solver: stats(300),
        certification: Some(certification()),
        unknown: 0,
    };
    let expected = "{\"iterations\": 2, \"removed_redundancies\": 1, \"gates_before\": 12, \
        \"gates_after\": 8, \"duplicated_gates\": 2, \"topological_before\": 7, \
        \"topological_after\": 6, \"max_fanout_before\": 3, \
        \"max_fanout_after\": 2, \"capped\": false, \
        \"dropped_longest_paths\": 1, \"unknown\": 0, \
        \"timings_ns\": {\"path_enum\": 0, \"oracle\": 0, \"transform\": 0, \
        \"atpg\": 0, \"engine\": 0}, \"oracle_solver\": {\"sat_calls\": 201, \
        \"conflicts\": 202, \"decisions\": 203, \"propagations\": 204, \
        \"restarts\": 205, \"learnts\": 206, \"learned_total\": 207, \
        \"deleted_total\": 208, \"minimized_lits\": 209, \"lbd_sum\": 210, \
        \"arena_gc\": 211, \"blocker_hits\": 212}, \"atpg_solver\": {\"sat_calls\": 301, \
        \"conflicts\": 302, \"decisions\": 303, \"propagations\": 304, \
        \"restarts\": 305, \"learnts\": 306, \"learned_total\": 307, \
        \"deleted_total\": 308, \"minimized_lits\": 309, \"lbd_sum\": 310, \
        \"arena_gc\": 311, \"blocker_hits\": 312}, \"certification\": ";
    assert_eq!(
        report.to_json().compact(),
        format!("{expected}{CERTIFICATION}}}")
    );
}
