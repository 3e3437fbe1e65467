//! One deliberately-broken network per lint check, asserting the exact
//! check id fires — plus the clean case on the paper's Fig. 1 circuit
//! (the carry-skip adder) and the reader/pipeline wiring.

use kms::blif::{parse_blif, BlifError};
use kms::gen::adders::carry_skip_adder;
use kms::lint::{lint_network, CheckId, Level, LintConfig, NetworkLint, Site};
use kms::netlist::{transform, ConnRef, Delay, DelayModel, GateId, GateKind, Network, Pin};

/// The single check ids that fired, in report order, deduplicated.
fn fired(net: &Network) -> Vec<CheckId> {
    let mut ids: Vec<CheckId> = net.lint().diagnostics.iter().map(|d| d.check).collect();
    ids.dedup();
    ids
}

#[test]
fn cycle_is_reported() {
    let mut net = Network::new("cycle");
    let a = net.add_input("a");
    let g1 = net.add_gate(GateKind::And, &[a, a], Delay::UNIT);
    let g2 = net.add_gate(GateKind::Or, &[g1, a], Delay::UNIT);
    net.add_output("y", g2);
    net.gate_mut(g1).pins[1] = Pin::new(g2);
    assert!(fired(&net).contains(&CheckId::Cycle));
}

#[test]
fn undriven_is_reported() {
    let mut net = Network::new("undriven");
    let a = net.add_input("a");
    let g = net.add_gate(GateKind::Not, &[a], Delay::UNIT);
    net.add_output("y", g);
    net.gate_mut(g).pins[0] = Pin::new(GateId::from_index(1000));
    let report = net.lint();
    let d = report.by_check(CheckId::Undriven).next().expect("fires");
    assert_eq!(d.site, Site::Conn(ConnRef::new(g, 0)));
    assert!(report.has_errors());
}

#[test]
fn unreachable_is_reported() {
    let mut net = Network::new("unreachable");
    let a = net.add_input("a");
    let g = net.add_gate(GateKind::Buf, &[a], Delay::UNIT);
    net.add_output("y", g);
    let orphan = net.add_gate(GateKind::Not, &[a], Delay::UNIT);
    let report = net.lint();
    let d = report.by_check(CheckId::Unreachable).next().expect("fires");
    assert_eq!(d.site, Site::Gate(orphan));
    // It is a warning, not an error: the circuit still works.
    assert!(!report.has_errors());
}

#[test]
fn duplicate_name_is_reported() {
    let mut net = Network::new("dup");
    let a = net.add_input("a");
    let g1 = net.add_gate(GateKind::Not, &[a], Delay::UNIT);
    let g2 = net.add_gate(GateKind::Buf, &[g1], Delay::UNIT);
    net.set_gate_name(g1, "same");
    net.set_gate_name(g2, "same");
    net.add_output("y", g2);
    assert!(fired(&net).contains(&CheckId::DuplicateName));
}

#[test]
fn arity_is_reported() {
    let mut net = Network::new("arity");
    let a = net.add_input("a");
    let g = net.add_gate(GateKind::And, &[a, a], Delay::UNIT);
    net.add_output("y", g);
    net.gate_mut(g).pins.clear();
    assert!(fired(&net).contains(&CheckId::Arity));
}

#[test]
fn not_simple_is_reported() {
    let mut net = Network::new("complex");
    let a = net.add_input("a");
    let b = net.add_input("b");
    let x = net.add_gate(GateKind::Xor, &[a, b], Delay::new(2));
    net.add_output("y", x);
    assert!(fired(&net).contains(&CheckId::NotSimple));
    // Lowering to simple gates clears the finding.
    transform::decompose_to_simple(&mut net);
    assert_eq!(net.lint().by_check(CheckId::NotSimple).count(), 0);
}

#[test]
fn const_anomaly_is_reported() {
    let mut net = Network::new("const");
    let a = net.add_input("a");
    let one = net.add_const(true);
    let g = net.add_gate(GateKind::And, &[a, one], Delay::UNIT);
    net.add_output("y", g);
    assert!(fired(&net).contains(&CheckId::ConstAnomaly));
    // Propagating the constant clears it (And of noncontrolling 1 becomes
    // the Section VII zero-delay buffer, which must NOT re-fire the check).
    transform::propagate_constants(&mut net);
    assert_eq!(net.gate(g).kind, GateKind::Buf);
    assert!(net.lint().is_clean(), "{}", net.lint().to_text());
}

#[test]
fn fanout_inconsistency_is_reported() {
    // Build a dead gate through the public API (substitute_gate kills its
    // first argument), then point a live pin back at the tombstone.
    let mut net = Network::new("fanout");
    let a = net.add_input("a");
    let old = net.add_gate(GateKind::Not, &[a], Delay::UNIT);
    let new = net.add_gate(GateKind::Not, &[a], Delay::UNIT);
    let sink = net.add_gate(GateKind::Buf, &[old], Delay::UNIT);
    net.add_output("y", sink);
    transform::substitute_gate(&mut net, old, new);
    net.gate_mut(sink).pins[0] = Pin::new(old); // live pin into dead gate
    let ids = fired(&net);
    assert!(ids.contains(&CheckId::Fanout), "{ids:?}");
    assert!(ids.contains(&CheckId::Undriven), "{ids:?}");
}

#[test]
fn delay_check_is_defensive() {
    // Negative delays cannot be constructed through the public API — the
    // check exists for future deserializers. Pin down both facts.
    assert!(std::panic::catch_unwind(|| Delay::new(-1)).is_err());
    assert!(CheckId::ALL.contains(&CheckId::Delay));
    let mut net = Network::new("delays");
    let a = net.add_input("a");
    let g = net.add_gate(GateKind::Not, &[a], Delay::new(7));
    net.add_output("y", g);
    assert_eq!(net.lint().by_check(CheckId::Delay).count(), 0);
}

#[test]
fn carry_skip_adder_lints_clean() {
    // The paper's Fig. 1 circuit. Raw, it contains MUX gates (legal input,
    // warned as not-simple); decomposed, it must be spotless.
    let net = carry_skip_adder(8, 4, DelayModel::Unit);
    let hard = lint_network(&net, &LintConfig::errors_only());
    assert!(hard.is_clean(), "{}", hard.to_text());

    let mut simple = net.clone();
    transform::decompose_to_simple(&mut simple);
    simple.apply_delay_model(DelayModel::Unit);
    let report = simple.lint();
    assert!(report.is_clean(), "{}", report.to_text());
}

#[test]
fn kms_pipeline_output_lints_clean() {
    // End-to-end: the full KMS run on the Fig. 1 circuit must leave a
    // network that still passes every hard invariant.
    let mut net = carry_skip_adder(4, 4, DelayModel::Unit);
    transform::decompose_to_simple(&mut net);
    net.apply_delay_model(DelayModel::Unit);
    let arr = kms::timing::InputArrivals::zero();
    kms::core::kms(&mut net, &arr, kms::core::KmsOptions::default()).unwrap();
    let report = lint_network(&net, &LintConfig::errors_only());
    assert!(report.is_clean(), "{}", report.to_text());
}

#[test]
fn blif_reader_reports_warnings() {
    let circuit = parse_blif(
        ".model w\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.names a b dead\n10 1\n.end\n",
    )
    .unwrap();
    assert!(circuit
        .warnings
        .iter()
        .any(|d| d.check == CheckId::Unreachable));
    // A clean model carries no warnings.
    let clean = parse_blif(".model c\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n").unwrap();
    assert!(clean.warnings.is_empty(), "{:?}", clean.warnings);
}

#[test]
fn lint_error_renders_in_blif_error_display() {
    let report = lint_network(
        &{
            let mut net = Network::new("bad");
            let a = net.add_input("a");
            let g = net.add_gate(GateKind::Not, &[a], Delay::UNIT);
            net.add_output("y", g);
            net.gate_mut(g).pins[0] = Pin::new(GateId::from_index(9));
            net
        },
        &LintConfig::default(),
    );
    let e = BlifError::Lint(report);
    let msg = e.to_string();
    assert!(msg.contains("failed lint"), "{msg}");
    assert!(msg.contains("undriven"), "{msg}");
}

#[test]
fn diagnostic_order_is_total_and_stable() {
    // Regression: the report order used to tie-break on (severity, check,
    // site) only, so two findings at the same site could legally appear in
    // either order and the JSON output was not reproducible. The message
    // text is now the final sort key (`same_site_ties_break_on_message`
    // pins that tie-break in the crate). Here one gate draws findings from
    // three checks at two severities, and other gates add more of each:
    // the whole report must follow the documented total order, and
    // repeated runs must render byte-identical JSON.
    let mut net = Network::new("order");
    let a = net.add_input("a");
    let one = net.add_const(true);
    let x = net.add_gate(GateKind::Xor, &[a], Delay::UNIT); // single-input, unread
    let m = net.add_gate(GateKind::Nand, &[a, one], Delay::UNIT);
    let o = net.add_gate(GateKind::Or, &[m, one], Delay::UNIT);
    net.add_output("y", o);
    let config = LintConfig::default().with_level(CheckId::NotSimple, Level::Deny);
    let report = lint_network(&net, &config);
    let at_x: Vec<CheckId> = report
        .diagnostics
        .iter()
        .filter(|diag| diag.site == Site::Gate(x))
        .map(|diag| diag.check)
        .collect();
    assert_eq!(
        at_x,
        [
            CheckId::NotSimple,
            CheckId::Unreachable,
            CheckId::ConstAnomaly
        ],
        "{}",
        report.to_text()
    );
    let keys: Vec<_> = report
        .diagnostics
        .iter()
        .map(|diag| {
            (
                diag.severity != kms::lint::Severity::Error,
                diag.check as u8,
                diag.site,
                diag.message.clone(),
            )
        })
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "report is not in the documented total order");
    assert_eq!(
        report.to_json("order"),
        lint_network(&net, &config).to_json("order"),
        "JSON output must be reproducible run to run"
    );
}

#[test]
fn per_check_levels_control_severity() {
    let mut net = Network::new("levels");
    let a = net.add_input("a");
    net.add_gate(GateKind::Not, &[a], Delay::UNIT); // unreachable
    let deny = LintConfig::default().with_level(CheckId::Unreachable, Level::Deny);
    assert!(lint_network(&net, &deny).has_errors());
    let allow = LintConfig::default().with_level(CheckId::Unreachable, Level::Allow);
    assert!(lint_network(&net, &allow).is_clean());
}
