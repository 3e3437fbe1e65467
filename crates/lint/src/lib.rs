//! `kms-lint` — structural static analysis for [`kms_netlist::Network`]s.
//!
//! The KMS algorithm (and every oracle it rests on — PODEM, the SAT
//! sensitization encoding, the viability engine) assumes its input network
//! is *well-formed*: acyclic, fully driven, with consistent fanout
//! bookkeeping and the paper's Section VI/VII structural conventions
//! respected. A malformed network used to surface as a panic deep inside
//! one of those engines; this crate turns the assumptions into an explicit
//! check catalog producing structured [`Diagnostic`]s instead.
//!
//! # Check catalog
//!
//! | check id | default | meaning |
//! |---|---|---|
//! | `cycle` | deny | combinational cycle among live gates |
//! | `undriven` | deny | pin or primary output referencing a dead/missing gate |
//! | `arity` | deny | pin count invalid for the gate kind |
//! | `duplicate-name` | deny | two live gates (or two outputs) share a name |
//! | `fanout` | deny | fanout table inconsistent with the pin edge list |
//! | `delay` | deny | negative gate or wire delay (defensive; see [`Delay`]) |
//! | `unreachable` | warn | live logic gate with no path to any primary output |
//! | `not-simple` | warn | complex gate where the KMS oracles need simple ones |
//! | `const-anomaly` | warn | unpropagated constants / single-input AND-OR gates |
//!
//! Every check reads the graph only. Whether a gate is redundant is the
//! ATPG engine's question (`kms-atpg`), decided exactly.
//!
//! The crate also holds the structural-hash table ([`StrashTable`]) behind
//! the `debug-invariants` sharing checks of the KMS pipeline
//! ([`assert_shared`], [`assert_new_gates_shared`]).
//!
//! # Example
//!
//! ```
//! use kms_lint::{lint_network, LintConfig, NetworkLint, CheckId};
//! use kms_netlist::{Network, GateKind, Delay};
//!
//! let mut net = Network::new("demo");
//! let a = net.add_input("a");
//! let b = net.add_input("b");
//! let g = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
//! net.add_output("y", g);
//! assert!(net.lint().is_clean());
//!
//! // An orphan gate is reachable from no output: `unreachable` fires.
//! net.add_gate(GateKind::Or, &[a, b], Delay::UNIT);
//! let report = lint_network(&net, &LintConfig::default());
//! assert_eq!(report.diagnostics[0].check, CheckId::Unreachable);
//! ```
//!
//! [`Delay`]: kms_netlist::Delay

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checks;
mod config;
mod diagnostic;
mod render;
mod strash;

pub use config::{Level, LintConfig};
pub use diagnostic::{CheckId, Diagnostic, Severity, Site};
pub use strash::{assert_new_gates_shared, assert_shared, StrashSnapshot, StrashTable};

use kms_netlist::json::Json;
use kms_netlist::Network;

/// The result of linting one network: every diagnostic produced by the
/// enabled checks, errors first, in stable (check, site) order.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LintReport {
    /// The diagnostics, sorted errors-before-warnings then by check id.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// `true` when no diagnostic of any severity was produced.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// `true` when at least one error-severity diagnostic was produced.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Iterates over the diagnostics produced by `check`.
    pub fn by_check(&self, check: CheckId) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.check == check)
    }

    /// Renders the report as human-readable text, one diagnostic per
    /// paragraph, with a trailing summary line.
    pub fn to_text(&self) -> String {
        render::render_text(self)
    }

    /// The report as a JSON object (schema in the `render` module docs);
    /// `network_name` fills its `network` field.
    pub fn to_json(&self, network_name: &str) -> Json {
        render::to_json(self, network_name)
    }
}

/// Runs every check enabled in `config` over `net`.
///
/// Checks are ordered so that structural prerequisites come first: if the
/// edge list itself is broken (`undriven`), the cycle and reachability
/// analyses still run — they simply skip the dangling edges — so one
/// defect does not hide an unrelated one.
pub fn lint_network(net: &Network, config: &LintConfig) -> LintReport {
    let mut diagnostics = Vec::new();
    for check in CheckId::ALL {
        let level = config.level(check);
        if level == Level::Allow {
            continue;
        }
        let severity = match level {
            Level::Deny => Severity::Error,
            _ => Severity::Warning,
        };
        checks::run_check(net, check, severity, &mut diagnostics);
    }
    sort_diagnostics(&mut diagnostics);
    LintReport { diagnostics }
}

/// Sorts diagnostics into the report's total order: errors first, then by
/// check, site and message text. Checks can emit several diagnostics at
/// the same site, so the message text is the final tie-break — without it the order within a site would
/// be whatever emission order the check used, and JSON output would not
/// be reproducible across refactors of the check internals.
fn sort_diagnostics(diagnostics: &mut [Diagnostic]) {
    fn key(d: &Diagnostic) -> (bool, u8, Site, &str) {
        (
            d.severity != Severity::Error,
            d.check as u8,
            d.site,
            &d.message,
        )
    }
    diagnostics.sort_by(|a, b| key(a).cmp(&key(b)));
}

/// Extension methods hanging the linter off [`Network`] itself.
///
/// `Network::validate()` (in `kms-netlist`) remains the cheap fail-fast
/// check returning the *first* violated invariant; `lint()` is the full
/// pass returning *every* finding as a structured diagnostic.
pub trait NetworkLint {
    /// Lints with the default configuration.
    fn lint(&self) -> LintReport;

    /// Lints with an explicit configuration.
    fn lint_with(&self, config: &LintConfig) -> LintReport;
}

impl NetworkLint for Network {
    fn lint(&self) -> LintReport {
        lint_network(self, &LintConfig::default())
    }

    fn lint_with(&self, config: &LintConfig) -> LintReport {
        lint_network(self, config)
    }
}

/// Panics with a rendered report if `net` has any lint errors.
///
/// This is the `debug-invariants` hook used by `kms-core` and `kms-opt`
/// after every transform step; `context` names the step for the panic
/// message.
pub fn assert_well_formed(net: &Network, context: &str) {
    let report = lint_network(net, &LintConfig::errors_only());
    if report.has_errors() {
        panic!(
            "network {:?} failed invariant check {context}:\n{}",
            net.name(),
            report.to_text()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kms_netlist::{Delay, GateKind};

    #[test]
    fn clean_network_is_clean() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        net.add_output("y", g);
        let report = net.lint();
        assert!(report.is_clean(), "{}", report.to_text());
        assert_well_formed(&net, "test");
    }

    #[test]
    fn report_counters() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        net.add_gate(GateKind::Not, &[a], Delay::UNIT); // unreachable
        let report = net.lint();
        assert_eq!(report.error_count(), 0);
        assert_eq!(report.warning_count(), 1);
        assert!(!report.has_errors());
        assert!(!report.is_clean());
        assert_eq!(report.by_check(CheckId::Unreachable).count(), 1);
    }

    #[test]
    fn errors_sort_before_warnings() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let x = net.add_gate(GateKind::Xor, &[a, a], Delay::UNIT); // not-simple warn
        net.add_output("y", x);
        net.gate_mut(x).kind = GateKind::Mux; // arity error (2 pins on a mux)
        let report = net.lint();
        assert!(report.has_errors());
        assert_eq!(report.diagnostics[0].severity, Severity::Error);
    }

    #[test]
    fn same_site_ties_break_on_message() {
        // Emitted out of message order at one site: only the message key
        // can put them in order.
        let diag = |message: &str| Diagnostic {
            severity: Severity::Warning,
            check: CheckId::ConstAnomaly,
            site: Site::Network,
            message: message.into(),
            suggestion: None,
        };
        let mut diagnostics = vec![diag("stuck-at-1"), diag("stuck-at-0")];
        sort_diagnostics(&mut diagnostics);
        assert_eq!(diagnostics[0].message, "stuck-at-0");
    }

    #[test]
    #[should_panic(expected = "failed invariant check after-test-step")]
    fn assert_well_formed_panics_on_errors() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let g = net.add_gate(GateKind::Not, &[a], Delay::UNIT);
        net.add_output("y", g);
        net.gate_mut(g).pins.clear(); // arity violation
        assert_well_formed(&net, "after-test-step");
    }
}
