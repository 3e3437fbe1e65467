//! Structural transforms used by the KMS algorithm and its substrate.
//!
//! * [`decompose_to_simple`] — lower complex gates (NAND/NOR/XOR/XNOR/MUX)
//!   into simple gates; the last gate in each expansion receives the complex
//!   gate's delay, the others zero (paper, Section VI).
//! * [`set_conn_const`] / [`propagate_constants`] — assert a constant on a
//!   connection (the redundancy-removal rewrite) and propagate it "as far as
//!   possible, removing useless gates" (Fig. 3). A multi-input gate that
//!   becomes single-input is kept as a zero-delay buffer rather than deleted
//!   (Section VII preamble), so gate ids stay stable for path bookkeeping.
//! * [`duplicate_path_prefix`] — the Theorem 7.1 duplication: copy the gates
//!   of a path up to its last multiple-fanout gate and retarget one fanout
//!   edge so that every gate along the new path has fanout exactly one.
//! * [`sweep`] — remove logic that no longer reaches any primary output.

use std::collections::VecDeque;

use crate::delay::Delay;
use crate::error::NetlistError;
use crate::gate::{ConnRef, GateId, GateKind, Pin};
use crate::network::Network;
use crate::path::Path;
use crate::topo::Fanouts;

/// Lowers every complex gate into simple gates (AND/OR/NOT/BUF).
///
/// The original gate id is preserved as the *last* gate of its expansion so
/// that fanout references and output drivers remain valid. Per the paper,
/// the last gate keeps the complex gate's delay and all helper gates get
/// zero delay, so every path through the expansion has exactly the original
/// length.
///
/// ```
/// use kms_netlist::{Network, GateKind, Delay, transform};
/// let mut net = Network::new("x");
/// let a = net.add_input("a");
/// let b = net.add_input("b");
/// let x = net.add_gate(GateKind::Xor, &[a, b], Delay::new(2));
/// net.add_output("y", x);
/// let orig = net.clone();
/// transform::decompose_to_simple(&mut net);
/// assert!(net.is_simple());
/// orig.exhaustive_equiv(&net).unwrap();
/// ```
pub fn decompose_to_simple(net: &mut Network) {
    // Iterate over a snapshot of ids; new gates are appended and are already
    // simple.
    let ids: Vec<GateId> = net.gate_ids().collect();
    for id in ids {
        let g = net.gate(id);
        if g.kind.is_source() || g.kind.is_simple() {
            continue;
        }
        let kind = g.kind;
        let pins = g.pins.clone();
        let delay = g.delay;
        match kind {
            GateKind::Nand | GateKind::Nor => {
                let inner_kind = if kind == GateKind::Nand {
                    GateKind::And
                } else {
                    GateKind::Or
                };
                let inner = net.add_gate_pins(inner_kind, pins, Delay::ZERO);
                let g = net.gate_mut(id);
                g.kind = GateKind::Not;
                g.pins = vec![Pin::new(inner)];
                g.delay = delay;
            }
            GateKind::Xor | GateKind::Xnor => {
                // Fold pairwise: acc = acc XOR pin, all helpers zero-delay;
                // the last 2-input expansion's OR (or the final NOT for
                // XNOR) reuses `id` and carries `delay`.
                let mut acc = pins[0];
                for (i, &p) in pins.iter().enumerate().skip(1) {
                    let last = i == pins.len() - 1;
                    let na = net.add_gate_pins(GateKind::Not, vec![acc], Delay::ZERO);
                    let nb = net.add_gate_pins(GateKind::Not, vec![p], Delay::ZERO);
                    let t1 = net.add_gate_pins(GateKind::And, vec![acc, Pin::new(nb)], Delay::ZERO);
                    let t2 = net.add_gate_pins(GateKind::And, vec![Pin::new(na), p], Delay::ZERO);
                    if last && kind == GateKind::Xor {
                        let g = net.gate_mut(id);
                        g.kind = GateKind::Or;
                        g.pins = vec![Pin::new(t1), Pin::new(t2)];
                        g.delay = delay;
                        acc = Pin::new(id);
                    } else {
                        let o = net.add_gate(GateKind::Or, &[t1, t2], Delay::ZERO);
                        acc = Pin::new(o);
                    }
                }
                if kind == GateKind::Xnor {
                    let g = net.gate_mut(id);
                    g.kind = GateKind::Not;
                    g.pins = vec![acc];
                    g.delay = delay;
                } else if pins.len() == 1 {
                    // Degenerate single-input XOR: identity.
                    let g = net.gate_mut(id);
                    g.kind = GateKind::Buf;
                    g.pins = vec![acc];
                    g.delay = delay;
                }
            }
            GateKind::Mux => {
                // out = (NOT sel AND d0) OR (sel AND d1); the OR reuses `id`.
                let (sel, d0, d1) = (pins[0], pins[1], pins[2]);
                let ns = net.add_gate_pins(GateKind::Not, vec![sel], Delay::ZERO);
                let t0 = net.add_gate_pins(GateKind::And, vec![Pin::new(ns), d0], Delay::ZERO);
                let t1 = net.add_gate_pins(GateKind::And, vec![sel, d1], Delay::ZERO);
                let g = net.gate_mut(id);
                g.kind = GateKind::Or;
                g.pins = vec![Pin::new(t0), Pin::new(t1)];
                g.delay = delay;
            }
            _ => unreachable!("sources and simple gates skipped above"),
        }
    }
    debug_assert!(net.validate().is_ok());
}

/// The outcome of simplifying one gate during constant propagation.
enum Simplified {
    /// Gate's output is now the given constant.
    Const(bool),
    /// Gate changed in place (pins dropped / kind changed); re-examine
    /// fanouts only if it became constant.
    InPlace,
    /// Nothing to do.
    Unchanged,
}

fn const_of(net: &Network, id: GateId) -> Option<bool> {
    match net.gate(id).kind {
        GateKind::Const(v) => Some(v),
        _ => None,
    }
}

fn simplify_gate(net: &mut Network, id: GateId) -> Simplified {
    let gate = net.gate(id);
    let kind = gate.kind;
    // Most visits find no constant pin; answer those before copying pins.
    if kind != GateKind::Mux && gate.pins.iter().all(|p| const_of(net, p.src).is_none()) {
        return Simplified::Unchanged;
    }
    let pins = gate.pins.clone();
    let consts: Vec<Option<bool>> = pins.iter().map(|p| const_of(net, p.src)).collect();
    match kind {
        GateKind::Input | GateKind::Const(_) => Simplified::Unchanged,
        GateKind::Buf => match consts[0] {
            Some(v) => Simplified::Const(v),
            None => Simplified::Unchanged,
        },
        GateKind::Not => match consts[0] {
            Some(v) => Simplified::Const(!v),
            None => Simplified::Unchanged,
        },
        GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
            let (ctrl, inverting) = match kind {
                GateKind::And => (false, false),
                GateKind::Nand => (false, true),
                GateKind::Or => (true, false),
                GateKind::Nor => (true, true),
                _ => unreachable!(),
            };
            if consts.contains(&Some(ctrl)) {
                return Simplified::Const(ctrl ^ inverting);
            }
            // All constant pins carry the noncontrolling value: drop them.
            let keep: Vec<Pin> = pins
                .iter()
                .zip(&consts)
                .filter(|(_, c)| c.is_none())
                .map(|(p, _)| *p)
                .collect();
            if keep.is_empty() {
                // Every input was the noncontrolling constant.
                return Simplified::Const(!ctrl ^ inverting);
            }
            if keep.len() == 1 {
                // Paper, Section VII: a multi-input gate reduced to a single
                // input is kept, with the gate and input-edge delay set to
                // zero — it is "equivalent to a wire". Inverting kinds keep
                // their delay: an inverter is not a wire.
                let g = net.gate_mut(id);
                if inverting {
                    g.kind = GateKind::Not;
                    g.pins = vec![keep[0]];
                } else {
                    g.kind = GateKind::Buf;
                    g.pins = vec![Pin::new(keep[0].src)];
                    g.delay = Delay::ZERO;
                }
                return Simplified::InPlace;
            }
            if keep.len() < pins.len() {
                net.gate_mut(id).pins = keep;
                return Simplified::InPlace;
            }
            Simplified::Unchanged
        }
        GateKind::Xor | GateKind::Xnor => {
            let mut parity = kind == GateKind::Xnor;
            let keep: Vec<Pin> = pins
                .iter()
                .zip(&consts)
                .filter(|(_, c)| {
                    if let Some(v) = c {
                        parity ^= v;
                        false
                    } else {
                        true
                    }
                })
                .map(|(p, _)| *p)
                .collect();
            if keep.is_empty() {
                return Simplified::Const(parity);
            }
            if keep.len() == pins.len() {
                return Simplified::Unchanged;
            }
            let delay = net.gate(id).delay;
            let g = net.gate_mut(id);
            if keep.len() == 1 {
                g.kind = if parity { GateKind::Not } else { GateKind::Buf };
                g.pins = keep;
                g.delay = delay; // an XOR slice is not a wire; keep its cost
            } else {
                g.kind = if parity {
                    GateKind::Xnor
                } else {
                    GateKind::Xor
                };
                g.pins = keep;
            }
            Simplified::InPlace
        }
        GateKind::Mux => {
            match consts[0] {
                Some(sel) => {
                    let data = pins[if sel { 2 } else { 1 }];
                    if let Some(v) = const_of(net, data.src) {
                        return Simplified::Const(v);
                    }
                    let g = net.gate_mut(id);
                    g.kind = GateKind::Buf;
                    g.pins = vec![data];
                    Simplified::InPlace
                }
                None => {
                    if let (Some(v0), Some(v1)) = (consts[1], consts[2]) {
                        if v0 == v1 {
                            return Simplified::Const(v0);
                        }
                        // mux(s, 0, 1) = s; mux(s, 1, 0) = NOT s.
                        let delay = net.gate(id).delay;
                        let g = net.gate_mut(id);
                        g.kind = if v1 { GateKind::Buf } else { GateKind::Not };
                        g.pins = vec![pins[0]];
                        g.delay = delay;
                        return Simplified::InPlace;
                    }
                    if pins[1].src == pins[2].src {
                        let g = net.gate_mut(id);
                        g.kind = GateKind::Buf;
                        g.pins = vec![pins[1]];
                        return Simplified::InPlace;
                    }
                    Simplified::Unchanged
                }
            }
        }
    }
}

/// Propagates constants through the network until a fixpoint, then sweeps
/// unreachable logic. Returns the number of gates that became constant.
///
/// This is the "propagate constant as far as possible, removing useless
/// gates" step of the algorithm in Fig. 3 of the paper. The rewrite rules
/// respect the paper's delay bookkeeping: a gate reduced to a single input
/// becomes a **zero-delay buffer** (its residual delay is dropped), so path
/// lengths through it can only shrink.
///
/// The fanout table is built at most once per call, when the first gate
/// turns constant. Simplification only drops pins and adds no gate, so
/// that table holds every later fanout list; a stale entry only re-queues
/// a gate, and since the rewrites are confluent the fixpoint does not
/// depend on the order of visits.
pub fn propagate_constants(net: &mut Network) -> usize {
    let mut queue: VecDeque<GateId> = net.gate_ids().collect();
    let mut fanouts: Option<Fanouts> = None;
    let mut became_const = 0;
    while let Some(id) = queue.pop_front() {
        if net.gate(id).is_dead() {
            continue;
        }
        match simplify_gate(net, id) {
            Simplified::Const(v) => {
                became_const += 1;
                let g = net.gate_mut(id);
                g.kind = GateKind::Const(v);
                g.pins.clear();
                g.delay = Delay::ZERO;
                // Re-examine everything this gate feeds.
                let fo = fanouts.get_or_insert_with(|| net.fanouts());
                queue.extend(fo[id.index()].iter().map(|c| c.gate));
            }
            Simplified::InPlace => {
                // Pins were dropped; the gate itself may simplify further
                // (e.g. Buf of a constant), so revisit it.
                queue.push_back(id);
            }
            Simplified::Unchanged => {}
        }
    }
    sweep(net);
    became_const
}

/// Asserts the constant `value` on connection `conn` — the redundancy
/// removal rewrite ("set first edge of P' to either constant 0 or 1",
/// Fig. 3) — then propagates and sweeps.
///
/// # Panics
///
/// Panics if `conn` does not reference a live pin; use
/// [`try_set_conn_const`] for a fallible version.
pub fn set_conn_const(net: &mut Network, conn: ConnRef, value: bool) {
    if let Err(e) = try_set_conn_const(net, conn, value) {
        panic!("{e}");
    }
}

/// Fallible [`set_conn_const`].
///
/// # Errors
///
/// Returns [`NetlistError::BadConn`] if `conn` does not reference a live
/// pin; the network is unchanged on failure.
pub fn try_set_conn_const(
    net: &mut Network,
    conn: ConnRef,
    value: bool,
) -> Result<(), NetlistError> {
    let valid = conn.gate.index() < net.num_gate_slots()
        && !net.gate(conn.gate).is_dead()
        && conn.pin < net.gate(conn.gate).pins.len();
    if !valid {
        return Err(NetlistError::BadConn { conn });
    }
    let c = net.add_const(value);
    net.gate_mut(conn.gate).pins[conn.pin] = Pin::new(c);
    propagate_constants(net);
    Ok(())
}

/// Kills every logic gate that no longer reaches a primary output. Primary
/// inputs are never killed (the interface of the circuit is preserved).
/// Returns the number of gates removed.
pub fn sweep(net: &mut Network) -> usize {
    let mut live = vec![false; net.num_gate_slots()];
    let mut stack: Vec<GateId> = net.outputs().iter().map(|o| o.src).collect();
    while let Some(id) = stack.pop() {
        if live[id.index()] {
            continue;
        }
        live[id.index()] = true;
        for p in &net.gate(id).pins {
            stack.push(p.src);
        }
    }
    let ids: Vec<GateId> = net.gate_ids().collect();
    let mut removed = 0;
    for id in ids {
        if !live[id.index()] && net.gate(id).kind != GateKind::Input {
            net.kill(id);
            removed += 1;
        }
    }
    removed
}

/// The result of [`duplicate_path_prefix`].
#[derive(Clone, Debug)]
pub struct Duplication {
    /// The path in the new network corresponding to the input path
    /// (`P'` in Fig. 3); every gate on it now has fanout exactly one.
    pub new_path: Path,
    /// Pairs `(original, duplicate)` for each duplicated gate, in path
    /// order.
    pub mapping: Vec<(GateId, GateId)>,
}

/// The Theorem 7.1 duplication step of the KMS algorithm.
///
/// Duplicates the gates of `path` at positions `0..=upto` (where position
/// `upto` holds the gate `n` — the gate on the path closest to the output
/// with fanout greater than one) together with their fanin connections, then
/// retargets the single on-path fanout edge `e` of `n` (the connection at
/// position `upto + 1`, or the primary output if `n` is the last gate) to
/// the duplicate `n'`. The duplicate chain feeds only along the path, so
/// every gate along the returned path has fanout exactly one.
///
/// Logic function and all path lengths are unchanged (Theorem 7.1): each
/// duplicate has the same kind, delay and fanin connections as its original.
///
/// # Panics
///
/// Panics if `upto` is out of range or the path does not validate.
pub fn duplicate_path_prefix(net: &mut Network, path: &Path, upto: usize) -> Duplication {
    assert!(path.validate(net), "path does not validate");
    assert!(upto < path.len(), "duplication prefix out of range");
    let mut mapping: Vec<(GateId, GateId)> = Vec::with_capacity(upto + 1);
    let mut prev_dup: Option<GateId> = None;
    for (i, &conn) in path.conns().iter().take(upto + 1).enumerate() {
        let orig = conn.gate;
        let g = net.gate(orig);
        let mut pins = g.pins.clone();
        let (kind, delay) = (g.kind, g.delay);
        if i > 0 {
            // The on-path pin of the duplicate must come from the previous
            // duplicate; the wire delay of the connection is preserved.
            pins[conn.pin].src = prev_dup.expect("previous duplicate exists");
        }
        let dup = net.add_gate_pins(kind, pins, delay);
        mapping.push((orig, dup));
        prev_dup = Some(dup);
    }
    let n_dup = prev_dup.expect("at least one gate duplicated");
    // Retarget edge e — the on-path fanout of n — to n'.
    if upto + 1 < path.len() {
        let e = path.conns()[upto + 1];
        net.gate_mut(e.gate).pins[e.pin].src = n_dup;
    } else {
        net.set_output_src(path.output_index(), n_dup);
    }
    let new_conns: Vec<ConnRef> = path
        .conns()
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            if i <= upto {
                ConnRef::new(mapping[i].1, c.pin)
            } else {
                c
            }
        })
        .collect();
    let new_path = Path::new(new_conns, path.output_index());
    debug_assert!(new_path.validate(net));
    Duplication { new_path, mapping }
}

/// Rewires every consumer of `old` (pins and primary outputs) to `new`,
/// then kills `old`. Wire delays on rewired connections are preserved.
pub fn substitute_gate(net: &mut Network, old: GateId, new: GateId) {
    let fo = net.fanouts();
    for conn in &fo[old.index()] {
        net.gate_mut(conn.gate).pins[conn.pin].src = new;
    }
    for i in 0..net.outputs().len() {
        if net.outputs()[i].src == old {
            net.set_output_src(i, new);
        }
    }
    net.kill(old);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Delay, GateKind, Network};

    fn fresh(name: &str) -> Network {
        Network::new(name)
    }

    #[test]
    fn decompose_xor3_preserves_function_and_delay() {
        let mut net = fresh("x");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let x = net.add_gate(GateKind::Xor, &[a, b, c], Delay::new(2));
        net.add_output("y", x);
        let orig = net.clone();
        decompose_to_simple(&mut net);
        assert!(net.is_simple());
        orig.exhaustive_equiv(&net).unwrap();
        // All paths through the expansion still cost exactly 2 units: the
        // reused gate holds the full delay and helpers are free.
        assert_eq!(net.gate(x).delay, Delay::new(2));
        let helpers: Vec<_> = net
            .gate_ids()
            .filter(|&g| g != x && net.gate(g).kind.is_simple())
            .collect();
        assert!(helpers.iter().all(|&g| net.gate(g).delay.is_zero()));
    }

    #[test]
    fn decompose_all_kinds() {
        for kind in [GateKind::Nand, GateKind::Nor, GateKind::Xor, GateKind::Xnor] {
            let mut net = fresh("k");
            let a = net.add_input("a");
            let b = net.add_input("b");
            let g = net.add_gate(kind, &[a, b], Delay::new(3));
            net.add_output("y", g);
            let orig = net.clone();
            decompose_to_simple(&mut net);
            assert!(net.is_simple(), "{kind}");
            orig.exhaustive_equiv(&net).unwrap();
        }
        let mut net = fresh("m");
        let s = net.add_input("s");
        let d0 = net.add_input("d0");
        let d1 = net.add_input("d1");
        let g = net.add_gate(GateKind::Mux, &[s, d0, d1], Delay::new(2));
        net.add_output("y", g);
        let orig = net.clone();
        decompose_to_simple(&mut net);
        assert!(net.is_simple());
        orig.exhaustive_equiv(&net).unwrap();
    }

    #[test]
    fn and_with_controlling_constant_collapses() {
        let mut net = fresh("t");
        let a = net.add_input("a");
        let c0 = net.add_const(false);
        let g = net.add_gate(GateKind::And, &[a, c0], Delay::UNIT);
        let h = net.add_gate(GateKind::Or, &[g, a], Delay::UNIT);
        net.add_output("y", h);
        propagate_constants(&mut net);
        // g became const 0; OR dropped it and became a zero-delay buffer.
        assert_eq!(net.gate(h).kind, GateKind::Buf);
        assert_eq!(net.gate(h).delay, Delay::ZERO);
        net.validate().unwrap();
    }

    #[test]
    fn single_input_gate_becomes_zero_delay_buffer() {
        // Paper, Section VII: the reduced gate is kept as a "wire" with
        // zero delay, not deleted.
        let mut net = fresh("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate(GateKind::And, &[a, b], Delay::new(5));
        net.add_output("y", g);
        set_conn_const(&mut net, ConnRef::new(g, 1), true);
        assert_eq!(net.gate(g).kind, GateKind::Buf);
        assert_eq!(net.gate(g).delay, Delay::ZERO);
        assert_eq!(net.eval_bool(&[true, false]), vec![true]);
        assert_eq!(net.eval_bool(&[false, true]), vec![false]);
    }

    #[test]
    fn nand_single_input_becomes_inverter_keeping_delay() {
        let mut net = fresh("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate(GateKind::Nand, &[a, b], Delay::new(4));
        net.add_output("y", g);
        set_conn_const(&mut net, ConnRef::new(g, 1), true);
        assert_eq!(net.gate(g).kind, GateKind::Not);
        assert_eq!(net.gate(g).delay, Delay::new(4));
    }

    #[test]
    fn try_set_conn_const_rejects_bad_conn() {
        let mut net = fresh("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        net.add_output("y", g);
        let before = net.clone();
        let bad = ConnRef::new(g, 7);
        assert_eq!(
            try_set_conn_const(&mut net, bad, true),
            Err(NetlistError::BadConn { conn: bad })
        );
        assert_eq!(net.dump(), before.dump());
        try_set_conn_const(&mut net, ConnRef::new(g, 1), true).unwrap();
        assert_eq!(net.gate(g).kind, GateKind::Buf);
    }

    #[test]
    fn controlling_constant_dominates_nand() {
        let mut net = fresh("t");
        let a = net.add_input("a");
        let g = net.add_gate(GateKind::Nand, &[a, a], Delay::UNIT);
        net.add_output("y", g);
        set_conn_const(&mut net, ConnRef::new(g, 0), false);
        assert_eq!(net.gate(g).kind, GateKind::Const(true));
    }

    #[test]
    fn xor_constant_folding() {
        let mut net = fresh("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate(GateKind::Xor, &[a, b], Delay::new(2));
        net.add_output("y", g);
        // XOR with constant 1 becomes an inverter (delay retained).
        set_conn_const(&mut net, ConnRef::new(g, 1), true);
        assert_eq!(net.gate(g).kind, GateKind::Not);
        assert_eq!(net.gate(g).delay, Delay::new(2));
        assert_eq!(net.eval_bool(&[false, false]), vec![true]);
    }

    #[test]
    fn mux_constant_select() {
        let mut net = fresh("t");
        let s = net.add_input("s");
        let d0 = net.add_input("d0");
        let d1 = net.add_input("d1");
        let g = net.add_gate(GateKind::Mux, &[s, d0, d1], Delay::new(2));
        net.add_output("y", g);
        set_conn_const(&mut net, ConnRef::new(g, 0), true);
        assert_eq!(net.gate(g).kind, GateKind::Buf);
        assert_eq!(net.eval_bool(&[false, false, true]), vec![true]);
    }

    #[test]
    fn mux_const_data_shapes() {
        let mut net = fresh("t");
        let s = net.add_input("s");
        let c0 = net.add_const(false);
        let c1 = net.add_const(true);
        let g = net.add_gate(GateKind::Mux, &[s, c0, c1], Delay::new(2));
        net.add_output("y", g);
        propagate_constants(&mut net);
        assert_eq!(net.gate(g).kind, GateKind::Buf);
        assert_eq!(net.eval_bool(&[true]), vec![true]);
        assert_eq!(net.eval_bool(&[false]), vec![false]);
    }

    #[test]
    fn sweep_removes_dangling_cone() {
        let mut net = fresh("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let dead1 = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        let _dead2 = net.add_gate(GateKind::Not, &[dead1], Delay::UNIT);
        let live = net.add_gate(GateKind::Or, &[a, b], Delay::UNIT);
        net.add_output("y", live);
        assert_eq!(sweep(&mut net), 2);
        assert_eq!(net.simple_gate_count(), 1);
        net.validate().unwrap();
    }

    /// Carry-skip-flavoured duplication fixture:
    ///
    /// a ── g1(and,fanout 2) ──┬── g2(or) ── y0
    /// b ──┘                   └── g3(or) ── y1
    /// c ──────────────────────────┘
    #[test]
    fn duplicate_prefix_single_fanout_and_equivalence() {
        let mut net = fresh("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let g1 = net.add_gate(GateKind::And, &[a, b], Delay::new(1));
        let g2 = net.add_gate(GateKind::Or, &[g1, c], Delay::new(1));
        let g3 = net.add_gate(GateKind::Or, &[g1, c], Delay::new(1));
        net.add_output("y0", g2);
        net.add_output("y1", g3);
        let orig = net.clone();

        // Path a -> g1 -> g3 -> y1; g1 has fanout 2, so duplicate up to g1.
        let path = Path::new(vec![ConnRef::new(g1, 0), ConnRef::new(g3, 0)], 1);
        let dup = duplicate_path_prefix(&mut net, &path, 0);
        net.validate().unwrap();
        orig.exhaustive_equiv(&net).unwrap();

        // Every gate along the new path now has fanout exactly 1.
        let fo = net.fanouts();
        for g in dup.new_path.gates() {
            if g != dup.new_path.last_gate() {
                assert_eq!(fo[g.index()].len(), 1, "{g}");
            }
        }
        // Lengths match (Theorem 7.1).
        assert_eq!(dup.new_path.length(&net), path.length(&orig));
        // The original g1 keeps its other fanout.
        assert!(!fo[g1.index()].is_empty());
    }

    #[test]
    fn duplicate_prefix_retargets_primary_output() {
        let mut net = fresh("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g1 = net.add_gate(GateKind::And, &[a, b], Delay::new(1));
        let g2 = net.add_gate(GateKind::Not, &[g1], Delay::new(1));
        net.add_output("y0", g1); // g1 drives a PO *and* g2: fanout 2.
        net.add_output("y1", g2);
        let orig = net.clone();
        // Path a -> g1 -> y0 where g1 is the last gate and has fanout > 1.
        let path = Path::new(vec![ConnRef::new(g1, 0)], 0);
        let dup = duplicate_path_prefix(&mut net, &path, 0);
        net.validate().unwrap();
        orig.exhaustive_equiv(&net).unwrap();
        assert_ne!(net.outputs()[0].src, g1);
        assert_eq!(net.outputs()[0].src, dup.mapping[0].1);
    }

    #[test]
    fn substitute_rewires_everything() {
        let mut net = fresh("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g1 = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        let g2 = net.add_gate(GateKind::Not, &[g1], Delay::UNIT);
        net.add_output("y", g2);
        net.add_output("z", g1);
        let g1bis = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        substitute_gate(&mut net, g1, g1bis);
        net.validate().unwrap();
        assert!(net.gate(g1).is_dead());
        assert_eq!(net.outputs()[1].src, g1bis);
        assert_eq!(net.gate(g2).pins[0].src, g1bis);
    }

    #[test]
    fn propagate_reports_const_count() {
        let mut net = fresh("t");
        let a = net.add_input("a");
        let c1 = net.add_const(true);
        let g1 = net.add_gate(GateKind::And, &[a, c1], Delay::UNIT); // -> buf(a)
        let g2 = net.add_gate(GateKind::Or, &[g1, c1], Delay::UNIT); // -> const 1
        net.add_output("y", g2);
        let n = propagate_constants(&mut net);
        assert_eq!(n, 1);
        assert_eq!(net.gate(g2).kind, GateKind::Const(true));
    }
}

/// Structural hashing: merges live gates with identical kind, delay, and
/// pin lists (same sources, same wire delays). Returns the number of gates
/// merged away.
///
/// Under the Definition 4.1 timing model the merge is delay-safe: every
/// path through a merged gate maps to an equal-length path through the
/// survivor. Useful as an area-recovery pass after the KMS duplications —
/// the inverse of [`duplicate_path_prefix`] for duplicates that ended up
/// with identical fanins. AND/OR/XOR/XNOR pins are matched as multisets
/// (inputs commute); MUX pins are positional.
pub fn structural_hash(net: &mut Network) -> usize {
    use std::collections::HashMap;
    let mut merged_total = 0;
    loop {
        let mut table: HashMap<(GateKind, Delay, Vec<Pin>), GateId> = HashMap::new();
        let mut merged = 0;
        for id in net.topo_order() {
            let g = net.gate(id);
            if g.kind.is_source() {
                continue;
            }
            let mut pins = g.pins.clone();
            let commutative = matches!(
                g.kind,
                GateKind::And
                    | GateKind::Or
                    | GateKind::Nand
                    | GateKind::Nor
                    | GateKind::Xor
                    | GateKind::Xnor
            );
            if commutative {
                pins.sort_by_key(|p| (p.src, p.wire_delay));
            }
            let key = (g.kind, g.delay, pins);
            match table.entry(key) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(id);
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    let survivor = *e.get();
                    substitute_gate(net, id, survivor);
                    merged += 1;
                }
            }
        }
        merged_total += merged;
        if merged == 0 {
            break; // fixpoint: merging can expose new identical pairs
        }
    }
    merged_total
}

/// Counts the IO-paths of the network per output (Definition 4.2), by
/// dynamic programming over the DAG. Saturates at `u64::MAX`.
pub fn count_io_paths(net: &Network) -> Vec<u64> {
    let order = net.topo_order();
    let mut paths = vec![0u64; net.num_gate_slots()];
    for id in order {
        let g = net.gate(id);
        paths[id.index()] = match g.kind {
            GateKind::Input => 1,
            GateKind::Const(_) => 0,
            _ => g
                .pins
                .iter()
                .fold(0u64, |acc, p| acc.saturating_add(paths[p.src.index()])),
        };
    }
    net.outputs().iter().map(|o| paths[o.src.index()]).collect()
}

#[cfg(test)]
mod strash_tests {
    use super::*;
    use crate::{Delay, GateKind, Network};

    #[test]
    fn merges_identical_gates() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g1 = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        let g2 = net.add_gate(GateKind::And, &[b, a], Delay::UNIT); // commuted
        let g3 = net.add_gate(GateKind::Or, &[g1, g2], Delay::UNIT);
        net.add_output("y", g3);
        let orig = net.clone();
        let merged = structural_hash(&mut net);
        assert_eq!(merged, 1);
        net.validate().unwrap();
        orig.exhaustive_equiv(&net).unwrap();
        // The OR collapsed to two identical pins from the survivor.
        assert_eq!(net.gate(g3).pins[0].src, net.gate(g3).pins[1].src);
    }

    #[test]
    fn cascaded_merges_reach_fixpoint() {
        // Two identical two-level cones: merging the lower level exposes
        // the upper level as identical.
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let l1 = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        let l2 = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        let u1 = net.add_gate(GateKind::Or, &[l1, c], Delay::UNIT);
        let u2 = net.add_gate(GateKind::Or, &[l2, c], Delay::UNIT);
        net.add_output("y0", u1);
        net.add_output("y1", u2);
        let orig = net.clone();
        let merged = structural_hash(&mut net);
        assert_eq!(merged, 2);
        orig.exhaustive_equiv(&net).unwrap();
        assert_eq!(net.outputs()[0].src, net.outputs()[1].src);
    }

    #[test]
    fn different_delays_not_merged() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g1 = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        let g2 = net.add_gate(GateKind::And, &[a, b], Delay::new(2));
        net.add_output("y0", g1);
        net.add_output("y1", g2);
        assert_eq!(structural_hash(&mut net), 0);
    }

    #[test]
    fn mux_pins_positional() {
        let mut net = Network::new("t");
        let s = net.add_input("s");
        let d0 = net.add_input("d0");
        let d1 = net.add_input("d1");
        let m1 = net.add_gate(GateKind::Mux, &[s, d0, d1], Delay::UNIT);
        let m2 = net.add_gate(GateKind::Mux, &[s, d1, d0], Delay::UNIT); // swapped data
        net.add_output("y0", m1);
        net.add_output("y1", m2);
        assert_eq!(structural_hash(&mut net), 0, "mux data pins don't commute");
    }

    #[test]
    fn path_counting() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let g1 = net.add_gate(GateKind::Not, &[a], Delay::UNIT);
        let g2 = net.add_gate(GateKind::And, &[g1, g1, a], Delay::UNIT);
        net.add_output("y", g2);
        // Paths to y: a→g1→g2 (×2 parallel pins) + a→g2 = 3.
        assert_eq!(count_io_paths(&net), vec![3]);
        // Constants contribute no paths.
        let mut net2 = Network::new("c");
        net2.add_input("a");
        let c = net2.add_const(true);
        let g = net2.add_gate(GateKind::Buf, &[c], Delay::UNIT);
        net2.add_output("y", g);
        assert_eq!(count_io_paths(&net2), vec![0]);
    }
}
