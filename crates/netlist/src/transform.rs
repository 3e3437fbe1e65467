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
//! * [`ConstEdits`] — the same edits for a caller that makes one after
//!   another: from the second on, each seeds the worklist with the gates it
//!   re-pinned and sweeps by reference count, so it costs what it changes,
//!   and reports what it touched ([`Touched`]).
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
    /// Gate becomes this kind, pin list and delay (pins dropped, kind
    /// changed); it is visited again, since it may simplify further.
    Rewrite(GateKind, Vec<Pin>, Delay),
    /// Nothing to do.
    Unchanged,
}

fn const_of(net: &Network, id: GateId) -> Option<bool> {
    match net.gate(id).kind {
        GateKind::Const(v) => Some(v),
        _ => None,
    }
}

fn simplify_gate(net: &Network, id: GateId) -> Simplified {
    let gate = net.gate(id);
    let (kind, delay) = (gate.kind, gate.delay);
    // Most visits find no constant pin; answer those before copying pins.
    if kind != GateKind::Mux && gate.pins.iter().all(|p| const_of(net, p.src).is_none()) {
        return Simplified::Unchanged;
    }
    let pins = &gate.pins;
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
                return if inverting {
                    Simplified::Rewrite(GateKind::Not, keep, delay)
                } else {
                    Simplified::Rewrite(GateKind::Buf, vec![Pin::new(keep[0].src)], Delay::ZERO)
                };
            }
            if keep.len() < pins.len() {
                return Simplified::Rewrite(kind, keep, delay);
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
            // An XOR slice is not a wire; every rewrite keeps its cost.
            let kind = match (keep.len(), parity) {
                (1, true) => GateKind::Not,
                (1, false) => GateKind::Buf,
                (_, true) => GateKind::Xnor,
                (_, false) => GateKind::Xor,
            };
            Simplified::Rewrite(kind, keep, delay)
        }
        GateKind::Mux => match consts[0] {
            Some(sel) => {
                let data = pins[if sel { 2 } else { 1 }];
                match const_of(net, data.src) {
                    Some(v) => Simplified::Const(v),
                    None => Simplified::Rewrite(GateKind::Buf, vec![data], delay),
                }
            }
            None => {
                if let (Some(v0), Some(v1)) = (consts[1], consts[2]) {
                    if v0 == v1 {
                        return Simplified::Const(v0);
                    }
                    // mux(s, 0, 1) = s; mux(s, 1, 0) = NOT s.
                    let kind = if v1 { GateKind::Buf } else { GateKind::Not };
                    return Simplified::Rewrite(kind, vec![pins[0]], delay);
                }
                if pins[1].src == pins[2].src {
                    return Simplified::Rewrite(GateKind::Buf, vec![pins[1]], delay);
                }
                Simplified::Unchanged
            }
        },
    }
}

/// What one constant-setting edit changed: every gate slot it re-kinded,
/// re-pinned, killed or created, each with its kind (`None` when dead or
/// not yet created) and pin sources from before the edit, and every
/// primary-output entry it re-sourced, with its old source.
///
/// A caller that keeps state derived from the network (the incremental
/// removal scan keeps simulation words and known-testable marks) reads
/// what it must update from here instead of comparing the whole network
/// before and after the edit. Every slot the edit changed is listed; a
/// listed slot may also have ended as it began (a new constant that the
/// sweep removed again), which [`Touched::mark_changed`] filters out.
///
/// Only a [`ConstEdits`] edit makes one, so a report always describes the
/// edit that returned it.
#[derive(Debug)]
pub struct Touched {
    /// Whether [`Touched::touch`] records; the whole-network free
    /// functions, whose callers discard the report, record nothing.
    record: bool,
    old_slots: usize,
    /// `(slot, kind before the edit, its old pin sources as a range of
    /// pins)`, one entry per slot once [`Touched::finish`] has run.
    gates: Vec<(GateId, Option<GateKind>, u32, u32)>,
    pins: Vec<GateId>,
    /// `(output index, source before the edit)`.
    outputs: Vec<(usize, GateId)>,
}

impl Touched {
    fn new(net: &Network) -> Touched {
        Touched {
            record: true,
            old_slots: net.num_gate_slots(),
            gates: Vec::new(),
            pins: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// A report that records nothing.
    fn off(net: &Network) -> Touched {
        Touched {
            record: false,
            ..Touched::new(net)
        }
    }

    /// Records `id` as it stands, before the caller changes it. Only the
    /// first record of a slot survives [`Touched::finish`].
    fn touch(&mut self, net: &Network, id: GateId) {
        if !self.record {
            return;
        }
        let start = self.pins.len() as u32;
        let kind = if id.index() < self.old_slots && !net.gate(id).is_dead() {
            self.pins.extend(net.gate(id).pins.iter().map(|p| p.src));
            Some(net.gate(id).kind)
        } else {
            None
        };
        self.gates.push((id, kind, start, self.pins.len() as u32));
    }

    /// Records that output entry `i`, read from `old`, is re-sourced.
    fn touch_output(&mut self, i: usize, old: GateId) {
        if self.record {
            self.outputs.push((i, old));
        }
    }

    /// Keeps the first record of each slot, in slot order.
    fn finish(&mut self) {
        self.gates.sort_by_key(|g| g.0);
        self.gates.dedup_by_key(|g| g.0);
    }

    /// The number of gate slots before the edit; slots at or past it are
    /// new.
    pub fn old_slots(&self) -> usize {
        self.old_slots
    }

    /// Every slot the edit touched, in slot order.
    pub fn gates(&self) -> impl Iterator<Item = GateId> + '_ {
        self.gates.iter().map(|g| g.0)
    }

    /// The indices of the primary outputs the edit re-sourced.
    pub fn outputs(&self) -> impl Iterator<Item = usize> + '_ {
        self.outputs.iter().map(|o| o.0)
    }

    /// Sets `mark[g]` for every gate the edit changed structurally: each
    /// gate that is new, killed, re-kinded or re-pinned (its pin sources
    /// differ), the old and new sources of its pins (which gained or lost
    /// a fanout), and the old and new sources of each changed output
    /// entry. This is exactly the set a comparison of every slot before
    /// and after the edit finds.
    ///
    /// # Panics
    ///
    /// Panics if `mark` is shorter than the slot count of `net`.
    pub fn mark_changed(&self, net: &Network, mark: &mut [bool]) {
        for &(id, old_kind, start, end) in &self.gates {
            let g = net.gate(id);
            let kind = (!g.is_dead()).then_some(g.kind);
            let old_pins = &self.pins[start as usize..end as usize];
            let same = old_kind == kind
                && old_pins.len() == g.pins.len()
                && old_pins.iter().zip(&g.pins).all(|(&s, p)| s == p.src);
            if !same {
                mark[id.index()] = true;
                for &s in old_pins {
                    mark[s.index()] = true;
                }
                for p in &g.pins {
                    mark[p.src.index()] = true;
                }
            }
        }
        for &(i, old) in &self.outputs {
            let now = net.outputs()[i].src;
            if now != old {
                mark[old.index()] = true;
                mark[now.index()] = true;
            }
        }
    }
}

/// The edit's fanout table, built from `net` the first time it is needed.
/// Propagation and sweeping only drop pins and add no gate, so a table
/// built at any point of the edit lists, for every gate it covers, each
/// reader the gate has left or more (a stale entry only costs a look).
fn table<'a>(fo: &'a mut Option<Fanouts>, net: &Network) -> &'a Fanouts {
    fo.get_or_insert_with(|| net.fanouts())
}

/// `g`'s readers in the edit's table `fo`. A slot the table does not cover
/// (the constant of a gate-output edit, whose table predates it) has none
/// listed.
fn readers(fo: &Fanouts, g: GateId) -> &[ConnRef] {
    if g.index() < fo.num_slots() {
        &fo[g.index()]
    } else {
        &[]
    }
}

/// Runs the propagation worklist from `queue` to the fixpoint. Every gate
/// it rewrites is recorded in `log` first, and the old sources of its pins
/// join `cut` (the local sweep's candidates). Returns the number of gates
/// that became constant.
///
/// A gate that turns constant queues its readers from the edit's fanout
/// table `fo`, built when the first gate turns constant unless the edit
/// built it already; a stale entry only re-queues a gate, and since the
/// rewrites are confluent the fixpoint does not depend on the order of
/// visits.
fn propagate_from(
    net: &mut Network,
    mut queue: VecDeque<GateId>,
    fo: &mut Option<Fanouts>,
    log: &mut Touched,
    cut: &mut Vec<GateId>,
) -> usize {
    let mut became_const = 0;
    while let Some(id) = queue.pop_front() {
        if net.gate(id).is_dead() {
            continue;
        }
        let (kind, pins, delay) = match simplify_gate(net, id) {
            Simplified::Unchanged => continue,
            Simplified::Const(v) => {
                became_const += 1;
                (GateKind::Const(v), Vec::new(), Delay::ZERO)
            }
            Simplified::Rewrite(kind, pins, delay) => (kind, pins, delay),
        };
        log.touch(net, id);
        cut.extend(net.gate(id).pins.iter().map(|p| p.src));
        let g = net.gate_mut(id);
        g.kind = kind;
        g.pins = pins;
        g.delay = delay;
        if matches!(kind, GateKind::Const(_)) {
            // Re-examine everything this gate feeds.
            queue.extend(readers(table(fo, net), id).iter().map(|c| c.gate));
        } else {
            // The gate itself may simplify further (e.g. Buf of a
            // constant), so revisit it.
            queue.push_back(id);
        }
    }
    became_const
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
/// This whole-network form takes any network: it seeds the worklist with
/// every live gate and sweeps from the outputs. A run of edits that starts
/// from its result can seed the worklist with the edited gates only and
/// sweep locally ([`ConstEdits`]); both run the same worklist.
pub fn propagate_constants(net: &mut Network) -> usize {
    propagate_all(net, &mut None, &mut Touched::off(net))
}

/// [`propagate_constants`] with the edit's fanout table `fo` (see
/// [`propagate_from`]), recording what it changes in `log`.
fn propagate_all(net: &mut Network, fo: &mut Option<Fanouts>, log: &mut Touched) -> usize {
    let queue = net.gate_ids().collect();
    let became_const = propagate_from(net, queue, fo, log, &mut Vec::new());
    sweep_logged(net, log);
    became_const
}

/// Asserts the constant `value` on connection `conn` — the redundancy
/// removal rewrite ("set first edge of P' to either constant 0 or 1",
/// Fig. 3) — then propagates and sweeps the whole network as
/// [`propagate_constants`] does.
///
/// # Panics
///
/// Panics if `conn` does not reference a live pin; use
/// [`try_set_conn_const`] for a fallible version.
pub fn set_conn_const(net: &mut Network, conn: ConnRef, value: bool) {
    if let Err(e) = check_conn(net, conn) {
        panic!("{e}");
    }
    let mut log = Touched::off(net);
    ConstEdits::default().edit(net, Site::Conn(conn), value, &mut log);
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
    check_conn(net, conn)?;
    set_conn_const(net, conn, value);
    Ok(())
}

fn check_conn(net: &Network, conn: ConnRef) -> Result<(), NetlistError> {
    let valid = conn.gate.index() < net.num_gate_slots()
        && !net.gate(conn.gate).is_dead()
        && conn.pin < net.gate(conn.gate).pins.len();
    if valid {
        Ok(())
    } else {
        Err(NetlistError::BadConn { conn })
    }
}

/// Where a constant-setting edit puts its constant.
#[derive(Clone, Copy, Debug)]
enum Site {
    /// One connection: its pin now reads the constant.
    Conn(ConnRef),
    /// A gate's output: every pin and primary output it drove now reads
    /// the constant, and the gate dies unless it is a primary input.
    Gate(GateId),
}

/// A run of constant-setting edits, each costing what it changes.
///
/// [`set_conn_const`] and [`propagate_constants`] take any network, so
/// they visit every gate and sweep from the outputs. A caller that makes
/// edit after edit (the KMS loop, the removal loop) keeps one `ConstEdits`
/// across them instead. Its first edit is the whole-network one, which
/// leaves the network at the constant fixpoint (no live gate simplifies)
/// and swept (every live gate but a primary input reaches an output). From
/// there, one more constant changes only the gates downstream of it and
/// strands only gates upstream of the pins it drops. So each later edit
/// seeds the worklist with the gates it re-pinned, and sweeps by reference
/// count: a gate whose reader dropped its pin, turned constant or died,
/// which drives no output, is no input and has no live reader left, dies,
/// and its sources are examined in turn. The result equals the
/// whole-network edit slot by slot (DESIGN §18); with the
/// `debug-invariants` feature each such edit is checked against the
/// whole-network edit on a clone.
///
/// Between edits the caller may change the network only in ways that keep
/// it at the fixpoint and swept, as [`duplicate_path_prefix`] does on the
/// KMS loop's paths (whose gate `n` keeps another fanout). The run state
/// belongs to one network, so a `ConstEdits` is neither `Clone` nor
/// `Copy`.
#[derive(Debug, Default)]
pub struct ConstEdits {
    at_fixpoint: bool,
}

impl ConstEdits {
    /// Asserts `value` on connection `conn`, as [`set_conn_const`] does,
    /// and returns what the edit touched.
    ///
    /// # Panics
    ///
    /// Panics if `conn` does not reference a live pin.
    pub fn set_conn_const(&mut self, net: &mut Network, conn: ConnRef, value: bool) -> Touched {
        if let Err(e) = check_conn(net, conn) {
            panic!("{e}");
        }
        let mut log = Touched::new(net);
        self.edit(net, Site::Conn(conn), value, &mut log);
        log
    }

    /// Replaces gate `g`'s output by the constant `value`: every pin and
    /// primary output that `g` drove reads the constant (wire delays
    /// kept), `g` dies unless it is a primary input (the circuit interface
    /// is preserved), and the constant is propagated. Returns what the
    /// edit touched.
    ///
    /// # Panics
    ///
    /// Panics if `g` is dead.
    pub fn set_gate_const(&mut self, net: &mut Network, g: GateId, value: bool) -> Touched {
        assert!(!net.gate(g).is_dead(), "set_gate_const on dead gate {g}");
        let mut log = Touched::new(net);
        self.edit(net, Site::Gate(g), value, &mut log);
        log
    }

    /// Makes the edit at `site`, recording it in `log` (made for `net`
    /// before the edit).
    fn edit(&mut self, net: &mut Network, site: Site, value: bool, log: &mut Touched) {
        #[cfg(feature = "debug-invariants")]
        let before = net.clone();
        // A gate-output edit looks up the gate's readers before the
        // rewire; otherwise the table waits until a gate turns constant or
        // the sweep needs it.
        let mut fo = match site {
            Site::Gate(_) => Some(net.fanouts()),
            Site::Conn(_) => None,
        };
        let c = net.add_const(value);
        log.touch(net, c);
        // The re-pinned gates seed the worklist; the constant and the
        // sources of the pins the edit drops are the sweep's first
        // candidates.
        let mut seeds = Vec::new();
        let mut cut = vec![c];
        match site {
            Site::Conn(conn) => {
                log.touch(net, conn.gate);
                cut.push(net.pin(conn).src);
                net.gate_mut(conn.gate).pins[conn.pin] = Pin::new(c);
                seeds.push(conn.gate);
            }
            Site::Gate(g) => {
                for &r in &fo.as_ref().expect("built above")[g.index()] {
                    log.touch(net, r.gate);
                    net.gate_mut(r.gate).pins[r.pin].src = c;
                    seeds.push(r.gate);
                }
                for i in 0..net.outputs().len() {
                    if net.outputs()[i].src == g {
                        log.touch_output(i, g);
                        net.set_output_src(i, c);
                    }
                }
                if net.gate(g).kind != GateKind::Input {
                    log.touch(net, g);
                    cut.extend(net.gate(g).pins.iter().map(|p| p.src));
                    net.kill(g);
                }
            }
        }
        let seeded = self.at_fixpoint;
        if seeded {
            let queue = seeds.iter().copied().collect();
            propagate_from(net, queue, &mut fo, log, &mut cut);
            sweep_from(net, cut, &mut fo, (c, &seeds), log);
        } else {
            propagate_all(net, &mut fo, log);
            self.at_fixpoint = true;
        }
        log.finish();
        #[cfg(feature = "debug-invariants")]
        check_edit(&before, net, site, value, seeded, log);
    }
}

/// With the `debug-invariants` feature: panics unless a recording `log`
/// lists every slot and output entry that differs between `before` and
/// `after`, and, for a `seeded` edit, unless `after` is the whole-network
/// edit's network, slot by slot.
#[cfg(feature = "debug-invariants")]
fn check_edit(
    before: &Network,
    after: &Network,
    site: Site,
    value: bool,
    seeded: bool,
    log: &Touched,
) {
    let context = format!("{}: {site:?} = {value}", before.name());
    if log.record {
        for i in 0..after.num_gate_slots() {
            let id = GateId::from_index(i);
            let old = (i < before.num_gate_slots()).then(|| before.gate(id));
            if old != Some(after.gate(id)) {
                assert!(
                    log.gates().any(|t| t == id),
                    "edit {context}: gate {id} changed but is not reported"
                );
            }
        }
        for (i, (a, b)) in before.outputs().iter().zip(after.outputs()).enumerate() {
            if a != b {
                assert!(
                    log.outputs().any(|o| o == i),
                    "edit {context}: output {i} changed but is not reported"
                );
            }
        }
    }
    if !seeded {
        return;
    }
    let mut whole = before.clone();
    ConstEdits::default().edit(&mut whole, site, value, &mut Touched::off(before));
    assert_eq!(
        after.num_gate_slots(),
        whole.num_gate_slots(),
        "seeded edit {context}: slot count"
    );
    for i in 0..after.num_gate_slots() {
        let id = GateId::from_index(i);
        assert_eq!(
            after.gate(id),
            whole.gate(id),
            "seeded edit {context}: gate {id} differs from the whole-network edit"
        );
    }
    assert_eq!(
        after.outputs(),
        whole.outputs(),
        "seeded edit {context}: outputs"
    );
}

/// The reference-counted sweep of a seeded edit: each candidate that is
/// live, no primary input, drives no primary output and has no live
/// reader left dies, and the sources of its pins become candidates in
/// turn. From a swept network whose only lost fanouts are the candidates',
/// this kills exactly what [`sweep`] would. Readers come from the edit's
/// fanout table `fo` (see [`propagate_from`]); `constant` is the edit's
/// constant and the gates it re-pinned to read it, which a table built
/// before the rewire does not list.
fn sweep_from(
    net: &mut Network,
    mut candidates: Vec<GateId>,
    fo: &mut Option<Fanouts>,
    constant: (GateId, &[GateId]),
    log: &mut Touched,
) -> usize {
    let reads = |net: &Network, r: GateId, id: GateId| {
        let g = net.gate(r);
        !g.is_dead() && g.pins.iter().any(|p| p.src == id)
    };
    let mut removed = 0;
    while let Some(id) = candidates.pop() {
        let g = net.gate(id);
        if g.is_dead() || g.kind == GateKind::Input || net.outputs().iter().any(|o| o.src == id) {
            continue;
        }
        let read = (id == constant.0 && constant.1.iter().any(|&r| reads(net, r, id)))
            || readers(table(fo, net), id)
                .iter()
                .any(|c| reads(net, c.gate, id));
        if read {
            continue;
        }
        log.touch(net, id);
        candidates.extend(net.gate(id).pins.iter().map(|p| p.src));
        net.kill(id);
        removed += 1;
    }
    removed
}

/// Kills every logic gate that no longer reaches a primary output. Primary
/// inputs are never killed (the interface of the circuit is preserved).
/// Returns the number of gates removed.
pub fn sweep(net: &mut Network) -> usize {
    sweep_logged(net, &mut Touched::off(net))
}

/// [`sweep`], recording every gate it kills in `log`.
fn sweep_logged(net: &mut Network, log: &mut Touched) -> usize {
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
            log.touch(net, id);
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
