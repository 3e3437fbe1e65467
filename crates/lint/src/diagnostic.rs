//! Diagnostic types: what a check found, where, and how bad it is.

use std::fmt;

use kms_netlist::{ConnRef, GateId};

/// How serious a diagnostic is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// Advisory: the network is usable but violates a KMS convention.
    Warning,
    /// The network breaks a structural invariant; downstream engines may
    /// panic or produce garbage.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Identifies one lint check. The string form (via [`CheckId::as_str`]) is
/// the stable id used on the command line and in JSON output.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CheckId {
    /// Combinational cycle among live gates.
    Cycle,
    /// Pin or primary output referencing a dead or out-of-range gate.
    Undriven,
    /// Pin count invalid for the gate kind.
    Arity,
    /// Two live gates — or two outputs — share a name.
    DuplicateName,
    /// Derived fanout table inconsistent with the pin edge list.
    Fanout,
    /// Negative gate or wire delay.
    Delay,
    /// Live logic gate with no path to any primary output.
    Unreachable,
    /// Complex gate (XOR/XNOR/MUX/NAND/NOR) where KMS needs simple gates.
    NotSimple,
    /// Constant-propagation anomaly (Section VII conventions).
    ConstAnomaly,
}

impl CheckId {
    /// Every check, in execution order (hard invariants first, then the
    /// KMS conventions).
    pub const ALL: [CheckId; 9] = [
        CheckId::Cycle,
        CheckId::Undriven,
        CheckId::Arity,
        CheckId::DuplicateName,
        CheckId::Fanout,
        CheckId::Delay,
        CheckId::Unreachable,
        CheckId::NotSimple,
        CheckId::ConstAnomaly,
    ];

    /// The stable string id, e.g. `"duplicate-name"`.
    pub fn as_str(self) -> &'static str {
        match self {
            CheckId::Cycle => "cycle",
            CheckId::Undriven => "undriven",
            CheckId::Arity => "arity",
            CheckId::DuplicateName => "duplicate-name",
            CheckId::Fanout => "fanout",
            CheckId::Delay => "delay",
            CheckId::Unreachable => "unreachable",
            CheckId::NotSimple => "not-simple",
            CheckId::ConstAnomaly => "const-anomaly",
        }
    }

    /// Parses a string id back to a check; `None` for unknown ids.
    pub fn parse(s: &str) -> Option<CheckId> {
        CheckId::ALL.into_iter().find(|c| c.as_str() == s)
    }

    /// One-line description of what the check looks for.
    pub fn description(self) -> &'static str {
        match self {
            CheckId::Cycle => "combinational cycle among live gates",
            CheckId::Undriven => "pin or output referencing a dead or missing gate",
            CheckId::Arity => "pin count invalid for the gate kind",
            CheckId::DuplicateName => "two live gates or two outputs share a name",
            CheckId::Fanout => "fanout table inconsistent with the pin edge list",
            CheckId::Delay => "negative gate or wire delay",
            CheckId::Unreachable => "live logic gate with no path to a primary output",
            CheckId::NotSimple => "complex gate where KMS requires simple gates",
            CheckId::ConstAnomaly => "constant-propagation anomaly (paper Section VII)",
        }
    }
}

impl fmt::Display for CheckId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where in the network a diagnostic points.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Site {
    /// The network as a whole (e.g. a cycle involving many gates).
    Network,
    /// A specific gate.
    Gate(GateId),
    /// A specific connection (input pin of a gate).
    Conn(ConnRef),
    /// A primary output, by index into [`kms_netlist::Network::outputs`].
    Output(usize),
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Site::Network => f.write_str("network"),
            Site::Gate(id) => write!(f, "{id}"),
            Site::Conn(c) => write!(f, "{c}"),
            Site::Output(i) => write!(f, "output#{i}"),
        }
    }
}

/// One finding: which check fired, where, at what severity, with a
/// human-readable message and (usually) a suggested fix.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Error or warning, per the [`crate::LintConfig`] level of the check.
    pub severity: Severity,
    /// The check that produced this diagnostic.
    pub check: CheckId,
    /// The gate / connection / output the diagnostic points at.
    pub site: Site,
    /// Human-readable description of the specific finding.
    pub message: String,
    /// Suggested remediation, when one is known.
    pub suggestion: Option<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] at {}: {}",
            self.severity, self.check, self.site, self.message
        )?;
        if let Some(s) = &self.suggestion {
            write!(f, "\n  suggestion: {s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_id_roundtrip() {
        for c in CheckId::ALL {
            assert_eq!(CheckId::parse(c.as_str()), Some(c));
            assert!(!c.description().is_empty());
        }
        assert_eq!(CheckId::parse("no-such-check"), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Severity::Error.to_string(), "error");
        assert_eq!(CheckId::DuplicateName.to_string(), "duplicate-name");
        assert_eq!(Site::Gate(GateId::from_index(4)).to_string(), "g4");
        assert_eq!(
            Site::Conn(ConnRef::new(GateId::from_index(4), 1)).to_string(),
            "g4.1"
        );
        assert_eq!(Site::Output(0).to_string(), "output#0");
        assert_eq!(Site::Network.to_string(), "network");
    }

    #[test]
    fn diagnostic_display_includes_suggestion() {
        let d = Diagnostic {
            severity: Severity::Warning,
            check: CheckId::Unreachable,
            site: Site::Gate(GateId::from_index(7)),
            message: "gate drives nothing".into(),
            suggestion: Some("run transform::sweep".into()),
        };
        let s = d.to_string();
        assert!(s.contains("warning[unreachable] at g7"));
        assert!(s.contains("suggestion: run transform::sweep"));
    }
}
