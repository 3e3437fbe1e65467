//! Text and JSON rendering of a [`LintReport`].
//!
//! The JSON comes from the workspace's one writer ([`kms_netlist::json`]);
//! `kms-lint -f json` prints its row layout, one diagnostic per line. The
//! schema is intentionally small and stable, and versioned since the
//! semantic check tier landed (`schema_version` 1 was the same shape
//! without the version and `tier` fields; 2 added them; 3 added a
//! dataflow check tier — `"tier": "dataflow"` and the
//! `dataflow-untestable` / `codc-unobservable` check ids — and made the
//! diagnostic order a total order by breaking site ties on the message
//! text; 4 removed the dataflow tier and its two check ids again, keeping
//! the total order; 5 removed the semantic tier — the `redundant-node`,
//! `equivalent-node-pair` and `constant-node` check ids — and with it the
//! `tier` field, since every check left is structural):
//!
//! ```json
//! {
//!   "schema_version": 5,
//!   "network": "<model name>",
//!   "errors": 1,
//!   "warnings": 2,
//!   "diagnostics": [
//!     {"severity": "error", "check": "undriven", "site": "g4.0", "message": "...", "suggestion": "..."}
//!   ]
//! }
//! ```

use std::fmt::Write;

use kms_netlist::json::Json;

use crate::LintReport;

/// Renders the report as human-readable text.
pub(crate) fn render_text(report: &LintReport) -> String {
    let mut s = String::new();
    for d in &report.diagnostics {
        let _ = writeln!(s, "{d}");
    }
    let _ = writeln!(
        s,
        "{} error(s), {} warning(s)",
        report.error_count(),
        report.warning_count()
    );
    s
}

/// The report as a JSON object; `network_name` fills the `network` field
/// so batched CLI output stays attributable.
pub(crate) fn to_json(report: &LintReport, network_name: &str) -> Json {
    let diagnostics = report
        .diagnostics
        .iter()
        .map(|d| {
            let mut fields = vec![
                ("severity", d.severity.to_string().into()),
                ("check", d.check.as_str().into()),
                ("site", d.site.to_string().into()),
                ("message", d.message.as_str().into()),
            ];
            if let Some(sug) = &d.suggestion {
                fields.push(("suggestion", sug.as_str().into()));
            }
            Json::Object(fields)
        })
        .collect();
    Json::Object(vec![
        ("schema_version", Json::Int(5)),
        ("network", network_name.into()),
        ("errors", report.error_count().into()),
        ("warnings", report.warning_count().into()),
        ("diagnostics", Json::Array(diagnostics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CheckId, Diagnostic, Severity, Site};

    fn sample_report() -> LintReport {
        LintReport {
            diagnostics: vec![Diagnostic {
                severity: Severity::Error,
                check: CheckId::Undriven,
                site: Site::Network,
                message: "pin \"x\" broken\n(second line)".into(),
                suggestion: Some("fix it".into()),
            }],
        }
    }

    #[test]
    fn text_has_summary_line() {
        let text = render_text(&sample_report());
        assert!(text.contains("error[undriven] at network"));
        assert!(text.trim_end().ends_with("1 error(s), 0 warning(s)"));
    }

    #[test]
    fn json_structure_and_escaping() {
        let json = to_json(&sample_report(), "c17").rows();
        assert!(json.contains("\"network\": \"c17\""));
        assert!(json.contains("\"check\": \"undriven\""));
        assert!(json.contains("\\\"x\\\" broken\\n(second line)"));
        assert!(json.contains("\"suggestion\": \"fix it\""));
        assert!(json.contains("\"errors\": 1"));
    }

    #[test]
    fn json_schema_5_has_no_tier_key() {
        let json = to_json(&sample_report(), "n").rows();
        assert!(json.contains("\"schema_version\": 5"));
        assert!(!json.contains("\"tier\""));
    }

    #[test]
    fn json_empty_report() {
        let json = to_json(&LintReport::default(), "empty").rows();
        assert!(json.contains("\"diagnostics\": []"));
        assert!(json.contains("\"errors\": 0"));
    }
}
