//! The check implementations.
//!
//! Every check walks the network through its public read API only, and is
//! defensive about corrupt edges: a pin whose source id is out of range or
//! dead (the `undriven` finding) is skipped by the graph traversals
//! (`cycle`, `unreachable`, `fanout`) so a single broken edge does not make
//! the other checks panic or mask their findings.

use std::collections::HashMap;

use kms_netlist::{ConnRef, GateId, GateKind, Network};

use crate::diagnostic::{CheckId, Diagnostic, Severity, Site};

/// Runs one check over `net`, appending findings at `severity` to `out`.
pub(crate) fn run_check(
    net: &Network,
    check: CheckId,
    severity: Severity,
    out: &mut Vec<Diagnostic>,
) {
    let mut emit = |site: Site, message: String, suggestion: Option<&str>| {
        out.push(Diagnostic {
            severity,
            check,
            site,
            message,
            suggestion: suggestion.map(String::from),
        });
    };
    match check {
        CheckId::Cycle => check_cycle(net, &mut emit),
        CheckId::Undriven => check_undriven(net, &mut emit),
        CheckId::Arity => check_arity(net, &mut emit),
        CheckId::DuplicateName => check_duplicate_name(net, &mut emit),
        CheckId::Fanout => check_fanout(net, &mut emit),
        CheckId::Delay => check_delay(net, &mut emit),
        CheckId::Unreachable => check_unreachable(net, &mut emit),
        CheckId::NotSimple => check_not_simple(net, &mut emit),
        CheckId::ConstAnomaly => check_const_anomaly(net, &mut emit),
    }
}

type Emit<'a> = dyn FnMut(Site, String, Option<&str>) + 'a;

/// `true` when `src` names a live gate of `net`.
fn live(net: &Network, src: GateId) -> bool {
    src.index() < net.num_gate_slots() && !net.gate(src).is_dead()
}

/// `"g3"`, or `"g3 ('sum')"` when the gate is named.
fn label(net: &Network, id: GateId) -> String {
    match net.gate(id).name.as_deref() {
        Some(name) => format!("{id} ({name:?})"),
        None => id.to_string(),
    }
}

/// Kahn's algorithm over the live gates, counting only valid edges; any
/// live gate left unprocessed sits on or downstream of a cycle, and the
/// cycle members proper are those whose residual in-degree is nonzero.
fn check_cycle(net: &Network, emit: &mut Emit) {
    let n = net.num_gate_slots();
    let mut indeg = vec![0usize; n];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut live_count = 0usize;
    for id in net.gate_ids() {
        live_count += 1;
        for pin in &net.gate(id).pins {
            if live(net, pin.src) {
                indeg[id.index()] += 1;
                adj[pin.src.index()].push(id.index());
            }
        }
    }
    let mut stack: Vec<usize> = net
        .gate_ids()
        .map(GateId::index)
        .filter(|&i| indeg[i] == 0)
        .collect();
    let mut popped = 0usize;
    while let Some(i) = stack.pop() {
        popped += 1;
        for &j in &adj[i] {
            indeg[j] -= 1;
            if indeg[j] == 0 {
                stack.push(j);
            }
        }
    }
    if popped == live_count {
        return;
    }
    let members: Vec<GateId> = net.gate_ids().filter(|&id| indeg[id.index()] > 0).collect();
    let shown: Vec<String> = members.iter().take(8).map(|&id| label(net, id)).collect();
    let ellipsis = if members.len() > 8 { ", ..." } else { "" };
    emit(
        members.first().map_or(Site::Network, |&id| Site::Gate(id)),
        format!(
            "combinational cycle through {} gate(s): {}{ellipsis}",
            members.len(),
            shown.join(", "),
        ),
        Some("combinational networks must be DAGs (Definition 4.1); break the feedback loop"),
    );
}

fn check_undriven(net: &Network, emit: &mut Emit) {
    for id in net.gate_ids() {
        for (p, pin) in net.gate(id).pins.iter().enumerate() {
            if !live(net, pin.src) {
                let state = if pin.src.index() < net.num_gate_slots() {
                    "dead"
                } else {
                    "out-of-range"
                };
                emit(
                    Site::Conn(ConnRef::new(id, p)),
                    format!(
                        "pin {p} of gate {} is driven by {state} gate {}",
                        label(net, id),
                        pin.src
                    ),
                    Some("rewire the connection before killing its driver, or run Network::compact only after all references are fixed"),
                );
            }
        }
    }
    for (i, o) in net.outputs().iter().enumerate() {
        if !live(net, o.src) {
            emit(
                Site::Output(i),
                format!(
                    "primary output {:?} is driven by dead or out-of-range gate {}",
                    o.name, o.src
                ),
                Some(
                    "use Network::set_output_src to retarget the output before deleting its driver",
                ),
            );
        }
    }
}

fn check_arity(net: &Network, emit: &mut Emit) {
    for id in net.gate_ids() {
        let g = net.gate(id);
        let expected: Option<&str> = match g.kind {
            GateKind::Input | GateKind::Const(_) => (!g.pins.is_empty()).then_some("no pins"),
            GateKind::Not | GateKind::Buf => (g.pins.len() != 1).then_some("exactly one pin"),
            GateKind::Mux => (g.pins.len() != 3).then_some("exactly three pins"),
            _ => g.pins.is_empty().then_some("at least one pin"),
        };
        if let Some(expected) = expected {
            emit(
                Site::Gate(id),
                format!(
                    "{} gate {} has {} pin(s), expected {expected}",
                    g.kind,
                    label(net, id),
                    g.pins.len()
                ),
                Some("gates must be built through Network::add_gate, which enforces arity"),
            );
        }
    }
}

fn check_duplicate_name(net: &Network, emit: &mut Emit) {
    let mut by_name: HashMap<&str, Vec<GateId>> = HashMap::new();
    for id in net.gate_ids() {
        if let Some(name) = net.gate(id).name.as_deref() {
            by_name.entry(name).or_default().push(id);
        }
    }
    let mut dup_gates: Vec<(&str, Vec<GateId>)> = by_name
        .into_iter()
        .filter(|(_, ids)| ids.len() > 1)
        .collect();
    dup_gates.sort_by_key(|(_, ids)| ids[0]);
    for (name, ids) in dup_gates {
        let shown: Vec<String> = ids.iter().map(ToString::to_string).collect();
        emit(
            Site::Gate(ids[1]),
            format!(
                "{} live gates share the name {name:?}: {}",
                ids.len(),
                shown.join(", ")
            ),
            Some("names must be unique for gate_by_name/name_map lookups; rename with Network::set_gate_name"),
        );
    }
    let mut out_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, o) in net.outputs().iter().enumerate() {
        out_by_name.entry(o.name.as_str()).or_default().push(i);
    }
    let mut dup_outs: Vec<(&str, Vec<usize>)> = out_by_name
        .into_iter()
        .filter(|(_, idxs)| idxs.len() > 1)
        .collect();
    dup_outs.sort_by_key(|(_, idxs)| idxs[0]);
    for (name, idxs) in dup_outs {
        emit(
            Site::Output(idxs[1]),
            format!(
                "{} primary outputs share the name {name:?} (indices {idxs:?})",
                idxs.len()
            ),
            Some("output names must be unique for output_by_name and BLIF round-trips"),
        );
    }
}

/// Cross-checks the derived fanout table against the pin edge list: the two
/// must be exact inverses, and dead gates must have no fanout entries.
///
/// `Network::fanouts` is computed from the pins, so a mismatch means either
/// a pin into a dead gate (the tombstone still "drives" something) or a
/// regression in the fanout derivation itself.
fn check_fanout(net: &Network, emit: &mut Emit) {
    // fanouts() indexes its table by raw pin source ids, so an out-of-range
    // pin would panic inside it; `undriven` owns that finding.
    let any_oob = net.gate_ids().any(|id| {
        net.gate(id)
            .pins
            .iter()
            .any(|p| p.src.index() >= net.num_gate_slots())
    });
    if any_oob {
        return;
    }
    let fo = net.fanouts();
    let mut edges_seen = 0usize;
    for (i, conns) in fo.iter().enumerate() {
        let src = GateId::from_index(i);
        if net.gate(src).is_dead() && !conns.is_empty() {
            emit(
                Site::Gate(src),
                format!(
                    "dead gate {src} still drives {} connection(s), e.g. {}",
                    conns.len(),
                    conns[0]
                ),
                Some("kill a gate only after rewiring its fanout (transform::substitute_gate)"),
            );
        }
        for &conn in conns {
            edges_seen += 1;
            let sink = net.gate(conn.gate);
            let consistent =
                !sink.is_dead() && conn.pin < sink.pins.len() && sink.pins[conn.pin].src == src;
            if !consistent {
                emit(
                    Site::Conn(conn),
                    format!(
                        "fanout table says gate {src} drives connection {conn}, but the pin list disagrees"
                    ),
                    Some("the fanout table is derived from the pins; this indicates netlist corruption"),
                );
            }
        }
    }
    let edges_declared: usize = net.gate_ids().map(|id| net.gate(id).pins.len()).sum();
    if edges_seen != edges_declared {
        emit(
            Site::Network,
            format!(
                "fanout table holds {edges_seen} edge(s) but live gates declare {edges_declared} pin(s)"
            ),
            Some("the fanout table is derived from the pins; this indicates netlist corruption"),
        );
    }
}

/// Delays are constructed through [`kms_netlist::Delay::new`], which rejects
/// negative values, so this check is defensive: it guards against future
/// constructors (deserialization, FFI) that might bypass that assertion.
fn check_delay(net: &Network, emit: &mut Emit) {
    for id in net.gate_ids() {
        let g = net.gate(id);
        if g.delay.units() < 0 {
            emit(
                Site::Gate(id),
                format!("gate {} has negative delay {}", label(net, id), g.delay),
                Some("delays are nonnegative quantities (Definition 4.1)"),
            );
        }
        for (p, pin) in g.pins.iter().enumerate() {
            if pin.wire_delay.units() < 0 {
                emit(
                    Site::Conn(ConnRef::new(id, p)),
                    format!(
                        "connection {} has negative wire delay {}",
                        ConnRef::new(id, p),
                        pin.wire_delay
                    ),
                    Some("delays are nonnegative quantities (Definition 4.1)"),
                );
            }
        }
    }
}

/// Reverse reachability from the primary outputs; live logic gates the walk
/// never reaches contribute nothing to any output function.
fn check_unreachable(net: &Network, emit: &mut Emit) {
    let mut reached = vec![false; net.num_gate_slots()];
    let mut stack: Vec<GateId> = Vec::new();
    for o in net.outputs() {
        if live(net, o.src) && !reached[o.src.index()] {
            reached[o.src.index()] = true;
            stack.push(o.src);
        }
    }
    while let Some(id) = stack.pop() {
        for pin in &net.gate(id).pins {
            if live(net, pin.src) && !reached[pin.src.index()] {
                reached[pin.src.index()] = true;
                stack.push(pin.src);
            }
        }
    }
    for id in net.gate_ids() {
        if net.gate(id).kind.is_logic() && !reached[id.index()] {
            emit(
                Site::Gate(id),
                format!(
                    "{} gate {} has no path to any primary output",
                    net.gate(id).kind,
                    label(net, id)
                ),
                Some("transform::sweep removes logic that reaches no output"),
            );
        }
    }
}

fn check_not_simple(net: &Network, emit: &mut Emit) {
    for id in net.gate_ids() {
        let kind = net.gate(id).kind;
        if !kind.is_source() && !kind.is_simple() {
            emit(
                Site::Gate(id),
                format!(
                    "gate {} is a complex {kind}; the KMS algorithm requires simple gates (Section VI)",
                    label(net, id)
                ),
                Some("lower complex gates first with transform::decompose_to_simple"),
            );
        }
    }
}

/// Section VII conventions: constants should be propagated, and the
/// single-input gates that constant propagation leaves behind should be
/// zero-delay buffers, not degenerate ANDs/ORs.
fn check_const_anomaly(net: &Network, emit: &mut Emit) {
    for id in net.gate_ids() {
        let g = net.gate(id);
        // The commutative kinds are the n-ary ones.
        let degenerate = g.kind.is_commutative() && g.pins.len() == 1;
        if degenerate {
            emit(
                Site::Gate(id),
                format!(
                    "single-input {} gate {} should be a zero-delay buffer (paper Section VII)",
                    g.kind,
                    label(net, id)
                ),
                Some("transform::propagate_constants rewrites degenerate gates"),
            );
        }
        for (p, pin) in g.pins.iter().enumerate() {
            if live(net, pin.src) {
                if let GateKind::Const(v) = net.gate(pin.src).kind {
                    emit(
                        Site::Conn(ConnRef::new(id, p)),
                        format!(
                            "constant {} feeds pin {p} of {} gate {}; the constant was not propagated",
                            u8::from(v),
                            g.kind,
                            label(net, id)
                        ),
                        Some("run transform::propagate_constants to fold constants through the logic"),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_network, CheckId, LintConfig, NetworkLint};
    use kms_netlist::{Delay, GateKind, Pin};

    fn checks_fired(net: &Network) -> Vec<CheckId> {
        let mut ids: Vec<CheckId> = net.lint().diagnostics.iter().map(|d| d.check).collect();
        ids.dedup();
        ids
    }

    #[test]
    fn cycle_detected() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let g1 = net.add_gate(GateKind::And, &[a, a], Delay::UNIT);
        let g2 = net.add_gate(GateKind::Or, &[g1, a], Delay::UNIT);
        net.add_output("y", g2);
        net.gate_mut(g1).pins[1] = Pin::new(g2); // g1 <-> g2 feedback
        let report = net.lint();
        let d = report.by_check(CheckId::Cycle).next().expect("cycle fires");
        assert!(d.message.contains("combinational cycle through 2 gate(s)"));
        assert_eq!(d.site, Site::Gate(g1));
    }

    #[test]
    fn undriven_pin_and_output() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let g = net.add_gate(GateKind::Not, &[a], Delay::UNIT);
        net.add_output("y", g);
        net.add_output("z", GateId::from_index(99)); // out of range
        net.gate_mut(g).pins[0] = Pin::new(GateId::from_index(42));
        let report = net.lint();
        let sites: Vec<Site> = report.by_check(CheckId::Undriven).map(|d| d.site).collect();
        assert!(sites.contains(&Site::Conn(ConnRef::new(g, 0))));
        assert!(sites.contains(&Site::Output(1)));
    }

    #[test]
    fn arity_violations_per_kind() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let g = net.add_gate(GateKind::And, &[a, a], Delay::UNIT);
        net.add_output("y", g);
        net.gate_mut(g).kind = GateKind::Mux;
        let report = net.lint();
        let d = report.by_check(CheckId::Arity).next().expect("arity fires");
        assert!(d.message.contains("expected exactly three pins"));

        net.gate_mut(g).kind = GateKind::And;
        net.gate_mut(a).pins.push(Pin::new(g)); // input with a pin
        assert!(net
            .lint()
            .by_check(CheckId::Arity)
            .any(|d| d.site == Site::Gate(a)));
    }

    #[test]
    fn duplicate_names_on_gates_and_outputs() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let g1 = net.add_gate(GateKind::Not, &[a], Delay::UNIT);
        let g2 = net.add_gate(GateKind::Buf, &[g1], Delay::UNIT);
        net.set_gate_name(g1, "n");
        net.set_gate_name(g2, "n");
        net.add_output("y", g2);
        net.add_output("y", g1);
        let report = net.lint();
        let dups: Vec<&Diagnostic> = report.by_check(CheckId::DuplicateName).collect();
        assert_eq!(dups.len(), 2);
        assert_eq!(dups[0].site, Site::Gate(g2));
        assert_eq!(dups[1].site, Site::Output(1));
    }

    #[test]
    fn fanout_consistent_on_wellformed_net() {
        // Gates can only be killed through crate-private transforms, so the
        // tombstone-with-fanout case is exercised from the netlist side
        // (tests/lint_diagnostics.rs drives it through transform APIs);
        // here we pin down that a well-formed net passes the conservation
        // and inverse checks.
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let g1 = net.add_gate(GateKind::Not, &[a], Delay::UNIT);
        let g2 = net.add_gate(GateKind::Buf, &[g1], Delay::UNIT);
        net.add_output("y", g2);
        assert_eq!(net.lint().by_check(CheckId::Fanout).count(), 0);
    }

    #[test]
    fn unreachable_gate_warns() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let g = net.add_gate(GateKind::Not, &[a], Delay::UNIT);
        net.add_output("y", g);
        let orphan = net.add_gate(GateKind::Buf, &[a], Delay::UNIT);
        let report = net.lint();
        let d = report
            .by_check(CheckId::Unreachable)
            .next()
            .expect("unreachable fires");
        assert_eq!(d.site, Site::Gate(orphan));
        // Unused *inputs* are interface, not dead logic: no warning for `a`
        // itself even when nothing reads it.
        let mut net2 = Network::new("t2");
        net2.add_input("unused");
        let b = net2.add_input("b");
        let g2 = net2.add_gate(GateKind::Buf, &[b], Delay::UNIT);
        net2.add_output("y", g2);
        assert_eq!(net2.lint().by_check(CheckId::Unreachable).count(), 0);
    }

    #[test]
    fn not_simple_warns_on_complex_kinds() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let x = net.add_gate(GateKind::Xor, &[a, b], Delay::UNIT);
        let m = net.add_gate(GateKind::Mux, &[a, b, x], Delay::UNIT);
        net.add_output("y", m);
        let report = net.lint();
        assert_eq!(report.by_check(CheckId::NotSimple).count(), 2);
    }

    #[test]
    fn nand_nor_are_not_simple_here() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let g = net.add_gate(GateKind::Nand, &[a, a], Delay::UNIT);
        net.add_output("y", g);
        assert_eq!(net.lint().by_check(CheckId::NotSimple).count(), 1);
    }

    #[test]
    fn const_anomalies() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let one = net.add_const(true);
        let g = net.add_gate(GateKind::And, &[a, one], Delay::UNIT); // const feeds logic
        let d = net.add_gate(GateKind::Or, &[g], Delay::UNIT); // degenerate single-input OR
        net.add_output("y", d);
        let report = net.lint();
        let msgs: Vec<&str> = report
            .by_check(CheckId::ConstAnomaly)
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(msgs.len(), 2, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("was not propagated")));
        assert!(msgs.iter().any(|m| m.contains("zero-delay buffer")));
    }

    #[test]
    fn zero_delay_buffer_is_not_an_anomaly() {
        // The Section VII convention itself: constants propagated, survivor
        // kept as a zero-delay buffer. This must lint clean.
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let buf = net.add_gate(GateKind::Buf, &[a], Delay::ZERO);
        net.add_output("y", buf);
        assert!(net.lint().is_clean());
    }

    #[test]
    fn disabled_check_does_not_fire() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        net.add_gate(GateKind::Not, &[a], Delay::UNIT); // unreachable
        let config = LintConfig::default().with_level(CheckId::Unreachable, crate::Level::Allow);
        assert!(lint_network(&net, &config).is_clean());
    }

    #[test]
    fn multiple_defects_all_reported() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let x = net.add_gate(GateKind::Xor, &[a, a], Delay::UNIT);
        net.add_output("y", x);
        net.add_output("z", GateId::from_index(77));
        let fired = checks_fired(&net);
        assert!(fired.contains(&CheckId::Undriven));
        assert!(fired.contains(&CheckId::NotSimple));
    }
}
