//! Aggregated certification accounting, rendered as text or JSON by the
//! `--certify` modes of `kms` and `table1`.

use std::fmt::Write as _;
use std::time::Duration;

use kms_netlist::json::Json;

use crate::checker::{CheckError, CheckStats};

/// Counters accumulated over every certificate a run emitted and
/// checked. Merged across phases (ATPG, sweeping, miters, the oracle)
/// into one per-run report; any failure makes the run exit nonzero.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CertificationReport {
    /// Certificates emitted (one per UNSAT verdict put to use).
    pub proofs_emitted: usize,
    /// Certificates that passed the independent check.
    pub proofs_checked: usize,
    /// Certificates the checker rejected.
    pub proofs_failed: usize,
    /// Wall-clock time spent inside the checker.
    pub check_time: Duration,
    /// Sum of proof-stream lengths (axioms + steps) across certificates.
    pub proof_stream_total: u64,
    /// Largest single proof stream seen.
    pub proof_stream_max: u64,
    /// Axioms and steps the checker actually read. A [`crate::Session`]
    /// reads each solver's stream once, so this is at most
    /// `proof_stream_total`, and far less when one solver answers many
    /// queries.
    pub stream_ingested: u64,
    /// RUP checks performed (conclusions plus marked adds).
    pub steps_checked: u64,
    /// Add steps skipped by backward trimming.
    pub steps_skipped: u64,
    /// Literals enqueued by the checker's propagation.
    pub propagations: u64,
    /// Human-readable descriptions of every rejected certificate.
    pub failures: Vec<String>,
}

impl CertificationReport {
    /// `true` when every emitted certificate was checked successfully.
    pub fn all_verified(&self) -> bool {
        self.proofs_failed == 0 && self.proofs_checked == self.proofs_emitted
    }

    /// Records one check outcome under a human-readable `label`:
    /// `stream_len` is the certificate's whole stream, `ingested` the
    /// part of it the checker read for this certificate.
    pub fn record(
        &mut self,
        label: &str,
        outcome: &Result<CheckStats, CheckError>,
        elapsed: Duration,
        stream_len: usize,
        ingested: u64,
    ) {
        self.proofs_emitted += 1;
        self.check_time += elapsed;
        self.proof_stream_total += stream_len as u64;
        self.stream_ingested += ingested;
        self.proof_stream_max = self.proof_stream_max.max(stream_len as u64);
        match outcome {
            Ok(stats) => {
                self.proofs_checked += 1;
                self.steps_checked += stats.steps_checked as u64;
                self.steps_skipped += stats.steps_skipped as u64;
                self.propagations += stats.propagations;
            }
            Err(e) => {
                self.proofs_failed += 1;
                self.failures.push(format!("{label}: {e}"));
            }
        }
    }

    /// Accumulates another phase's report into this one.
    pub fn merge(&mut self, other: &CertificationReport) {
        self.proofs_emitted += other.proofs_emitted;
        self.proofs_checked += other.proofs_checked;
        self.proofs_failed += other.proofs_failed;
        self.check_time += other.check_time;
        self.proof_stream_total += other.proof_stream_total;
        self.proof_stream_max = self.proof_stream_max.max(other.proof_stream_max);
        self.stream_ingested += other.stream_ingested;
        self.steps_checked += other.steps_checked;
        self.steps_skipped += other.steps_skipped;
        self.propagations += other.propagations;
        self.failures.extend(other.failures.iter().cloned());
    }

    /// Multi-line text rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "certification: {} proofs emitted, {} checked, {} failed",
            self.proofs_emitted, self.proofs_checked, self.proofs_failed
        );
        let _ = writeln!(
            out,
            "  checker time {:.3?}, stream total {} (max {}, ingested {}), \
             rup checks {} (skipped by trimming {}), propagations {}",
            self.check_time,
            self.proof_stream_total,
            self.proof_stream_max,
            self.stream_ingested,
            self.steps_checked,
            self.steps_skipped,
            self.propagations
        );
        for fail in &self.failures {
            let _ = writeln!(out, "  FAILED: {fail}");
        }
        out
    }

    /// The ledger as a JSON object; `check_time_ns` is the checker time in
    /// nanoseconds.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("proofs_emitted", self.proofs_emitted.into()),
            ("proofs_checked", self.proofs_checked.into()),
            ("proofs_failed", self.proofs_failed.into()),
            ("check_time_ns", self.check_time.as_nanos().into()),
            ("proof_stream_total", self.proof_stream_total.into()),
            ("proof_stream_max", self.proof_stream_max.into()),
            ("stream_ingested", self.stream_ingested.into()),
            ("steps_checked", self.steps_checked.into()),
            ("steps_skipped", self.steps_skipped.into()),
            ("propagations", self.propagations.into()),
            (
                "failures",
                Json::Array(self.failures.iter().map(|f| f.as_str().into()).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_json_escapes_every_failure_label() {
        // Failure labels embed signal names from the input netlist, so
        // any character can reach the ledger.
        let report = CertificationReport {
            proofs_emitted: 1,
            proofs_failed: 1,
            failures: vec!["sens a\"b\\c\nd\te\u{1}f: rejected".into()],
            ..Default::default()
        };
        assert_eq!(
            report.to_json().compact(),
            "{\"proofs_emitted\": 1, \"proofs_checked\": 0, \"proofs_failed\": 1, \
             \"check_time_ns\": 0, \"proof_stream_total\": 0, \"proof_stream_max\": 0, \
             \"stream_ingested\": 0, \"steps_checked\": 0, \"steps_skipped\": 0, \
             \"propagations\": 0, \"failures\": [\"sens a\\\"b\\\\c\\nd\\te\\u0001f: rejected\"]}"
        );
    }
}
