//! Text and JSON rendering of a [`LintReport`].
//!
//! The JSON writer is hand-rolled (the workspace has no serde); the schema
//! is intentionally small and stable, and versioned since the semantic
//! check tier landed (`schema_version` 1 was the same shape without the
//! version and `tier` fields; 2 added them; 3 added a dataflow check
//! tier — `"tier": "dataflow"` and the `dataflow-untestable` /
//! `codc-unobservable` check ids — and made the diagnostic order a total
//! order by breaking site ties on the message text; 4 removed the
//! dataflow tier and its two check ids again, keeping the total order):
//!
//! ```json
//! {
//!   "schema_version": 4,
//!   "network": "<model name>",
//!   "errors": 1,
//!   "warnings": 2,
//!   "diagnostics": [
//!     {
//!       "severity": "error",
//!       "check": "undriven",
//!       "tier": "structural",
//!       "site": "g4.0",
//!       "message": "...",
//!       "suggestion": "..."
//!     }
//!   ]
//! }
//! ```

use std::fmt::Write;

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

/// Renders the report as a JSON object; `network_name` fills the `network`
/// field so batched CLI output stays attributable.
pub fn render_json(report: &LintReport, network_name: &str) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema_version\": 4,\n");
    let _ = writeln!(s, "  \"network\": {},", json_string(network_name));
    let _ = writeln!(s, "  \"errors\": {},", report.error_count());
    let _ = writeln!(s, "  \"warnings\": {},", report.warning_count());
    s.push_str("  \"diagnostics\": [");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {");
        let _ = write!(
            s,
            "\n      \"severity\": {},",
            json_string(&d.severity.to_string())
        );
        let _ = write!(s, "\n      \"check\": {},", json_string(d.check.as_str()));
        let _ = write!(
            s,
            "\n      \"tier\": {},",
            json_string(&d.check.tier().to_string())
        );
        let _ = write!(s, "\n      \"site\": {},", json_string(&d.site.to_string()));
        let _ = write!(s, "\n      \"message\": {}", json_string(&d.message));
        if let Some(sug) = &d.suggestion {
            let _ = write!(s, ",\n      \"suggestion\": {}", json_string(sug));
        }
        s.push_str("\n    }");
    }
    if !report.diagnostics.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

/// Escapes `v` as a JSON string literal.
fn json_string(v: &str) -> String {
    let mut s = String::with_capacity(v.len() + 2);
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
    s
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
    fn json_escapes_and_structures() {
        let json = render_json(&sample_report(), "c17");
        assert!(json.contains("\"schema_version\": 4"));
        assert!(json.contains("\"network\": \"c17\""));
        assert!(json.contains("\"check\": \"undriven\""));
        assert!(json.contains("\"tier\": \"structural\""));
        assert!(json.contains("\\\"x\\\" broken\\n(second line)"));
        assert!(json.contains("\"suggestion\": \"fix it\""));
        assert!(json.contains("\"errors\": 1"));
    }

    #[test]
    fn json_semantic_tier_field() {
        let report = LintReport {
            diagnostics: vec![Diagnostic {
                severity: Severity::Warning,
                check: CheckId::ConstantNode,
                site: Site::Network,
                message: "m".into(),
                suggestion: None,
            }],
        };
        let json = render_json(&report, "n");
        assert!(json.contains("\"check\": \"constant-node\""));
        assert!(json.contains("\"tier\": \"semantic\""));
    }

    #[test]
    fn json_empty_report() {
        let json = render_json(&LintReport::default(), "empty");
        assert!(json.contains("\"diagnostics\": []"));
        assert!(json.contains("\"errors\": 0"));
    }

    #[test]
    fn json_string_control_chars() {
        assert_eq!(json_string("a\u{1}b"), "\"a\\u0001b\"");
        assert_eq!(json_string("tab\there"), "\"tab\\there\"");
    }
}
