//! Exactness of the netlist layer's shared fanout table.
//!
//! * Constant propagation builds one fanout table per call, on the first
//!   gate that turns constant, and reuses it although later rewrites drop
//!   pins. On random networks under random constant assertions and gate
//!   substitutions (the two rewrites redundancy removal makes), every step
//!   must leave the same network and the same count of gates turned
//!   constant as the full-rescan propagation that rebuilt the table after
//!   every constant gate, kept below as a reference.
//! * A run of constant edits through one [`transform::ConstEdits`] seeds
//!   each edit after the first with the gates it re-pinned and sweeps by
//!   reference count. From a network at the constant fixpoint, every such
//!   edit must leave what the whole-network edit leaves, and its report
//!   must list every slot and output entry it changed.
//! * [`Network::fanouts`] is one flat table; it must equal a per-slot
//!   nested-`Vec` table built from the pins, in order, with dead slots
//!   empty.

use proptest::prelude::*;

use kms::gen::random::{random_network, RandomNetworkSpec};
use kms::netlist::transform::ConstEdits;
use kms::netlist::{transform, ConnRef, GateId, GateKind, Network, Path, Pin, Topology};
use kms::timing::{InputArrivals, PathEnumerator};

/// The full-rescan constant propagation: it rebuilds the fanout table each
/// time a gate turns constant and copies every visited gate's pins.
mod reference {
    use std::collections::VecDeque;

    use kms::netlist::{transform, Delay, GateId, GateKind, Network, Pin};

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
        let kind = net.gate(id).kind;
        let pins = net.gate(id).pins.clone();
        let consts: Vec<Option<bool>> = pins.iter().map(|p| const_of(net, p.src)).collect();
        if consts.iter().all(|c| c.is_none()) && !matches!(kind, GateKind::Mux) {
            return Simplified::Unchanged;
        }
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

    /// Propagates to a fixpoint and sweeps, returning the number of gates
    /// that turned constant.
    pub fn propagate_constants(net: &mut Network) -> usize {
        let mut queue: VecDeque<GateId> = net.gate_ids().collect();
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
                    let fo = net.fanouts();
                    for conn in &fo[id.index()] {
                        queue.push_back(conn.gate);
                    }
                }
                Simplified::InPlace => {
                    // Pins were dropped; the gate itself may simplify further
                    // (e.g. Buf of a constant), so revisit it.
                    queue.push_back(id);
                }
                Simplified::Unchanged => {}
            }
        }
        transform::sweep(net);
        became_const
    }
}

fn spec() -> RandomNetworkSpec {
    RandomNetworkSpec {
        inputs: 5,
        gates: 24,
        outputs: 3,
        max_fanin: 3,
        max_delay: 2,
    }
}

/// A xorshift stream for the per-case choices.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// A random network whose n-ary gates are re-kinded to any of
/// AND/OR/NAND/NOR/XOR/XNOR, and whose three-pin gates may become MUXes,
/// so every simplification rule is reachable.
fn mixed_network(seed: u64, rng: &mut Rng) -> Network {
    let mut net = random_network(seed, spec());
    let ids: Vec<GateId> = net.gate_ids().collect();
    for id in ids {
        let g = net.gate_mut(id);
        let n_ary = [
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ];
        if n_ary.contains(&g.kind) {
            g.kind = if g.pins.len() == 3 && rng.below(3) == 0 {
                GateKind::Mux
            } else {
                n_ary[rng.below(n_ary.len())]
            };
        }
    }
    net
}

/// One rewrite of the KMS loop or the removal phase, chosen at random.
#[derive(Debug)]
enum Step {
    /// Assert a constant on one input connection (`set_conn_const`).
    Conn(ConnRef, bool),
    /// Replace a gate's output by a constant (`remove_fault` on a stem).
    Stem(GateId, bool),
    /// Fig. 3's transform: duplicate a path's prefix up to position `upto`,
    /// then assert a constant on the first edge of the new path. The
    /// duplicates get the highest ids yet feed older gates, so their
    /// constants reach gates the in-order first sweep has already passed.
    Dup(Path, usize, bool),
}

fn pick_step(net: &Network, rng: &mut Rng) -> Option<Step> {
    let logic: Vec<GateId> = net
        .gate_ids()
        .filter(|&g| net.gate(g).kind.is_logic())
        .collect();
    if logic.is_empty() {
        return None;
    }
    let g = logic[rng.below(logic.len())];
    let value = rng.below(2) == 1;
    Some(match rng.below(3) {
        0 => Step::Conn(ConnRef::new(g, rng.below(net.gate(g).pins.len())), value),
        1 => Step::Stem(g, value),
        _ => {
            let skip = rng.below(4);
            let path = PathEnumerator::new(net, &InputArrivals::zero())
                .map(|(p, _)| p)
                .filter(|p| !p.is_empty())
                .nth(skip)?;
            let upto = rng.below(path.len());
            Step::Dup(path, upto, value)
        }
    })
}

/// Applies `step` and propagates with `propagate`, returning the number of
/// gates that turned constant.
fn apply(net: &mut Network, step: &Step, propagate: fn(&mut Network) -> usize) -> usize {
    let (conn, value) = match step {
        &Step::Conn(conn, value) => (conn, value),
        &Step::Stem(g, value) => {
            let c = net.add_const(value);
            transform::substitute_gate(net, g, c);
            return propagate(net);
        }
        Step::Dup(path, upto, value) => {
            let dup = transform::duplicate_path_prefix(net, path, *upto);
            (dup.new_path.first_conn(), *value)
        }
    };
    let c = net.add_const(value);
    net.gate_mut(conn.gate).pins[conn.pin] = Pin::new(c);
    propagate(net)
}

/// The nested-`Vec` fanout table: one list per slot, in (gate, pin) order.
fn nested_fanouts(net: &Network) -> Vec<Vec<ConnRef>> {
    let mut fo = vec![Vec::new(); net.num_gate_slots()];
    for id in net.gate_ids() {
        for (p, pin) in net.gate(id).pins.iter().enumerate() {
            fo[pin.src.index()].push(ConnRef::new(id, p));
        }
    }
    fo
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every step leaves the same gates, pins, delays, tombstones and
    /// outputs, the same `dump()`, and the same count of gates turned
    /// constant as the full-rescan reference.
    #[test]
    fn one_table_propagation_matches_the_rescan(seed in 1u64..1_000_000) {
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let mut net = mixed_network(seed, &mut rng);
        let mut reference = net.clone();
        let first = transform::propagate_constants(&mut net);
        prop_assert_eq!(first, reference::propagate_constants(&mut reference));
        for step_no in 0..6 {
            let Some(step) = pick_step(&net, &mut rng) else { break };
            let got = apply(&mut net, &step, transform::propagate_constants);
            let want = apply(&mut reference, &step, reference::propagate_constants);
            let context = format!("seed {seed}, step {step_no}: {step:?}");
            prop_assert_eq!(got, want, "{}", context);
            prop_assert_eq!(net.dump(), reference.dump(), "{}", context);
            prop_assert_eq!(net.num_gate_slots(), reference.num_gate_slots(), "{}", context);
            for i in 0..net.num_gate_slots() {
                let id = GateId::from_index(i);
                prop_assert_eq!(net.gate(id), reference.gate(id), "{} gate {}", context, id);
            }
            prop_assert_eq!(net.outputs(), reference.outputs(), "{}", context);
            prop_assert!(net.validate().is_ok(), "{}", context);
        }
    }

    /// From a network brought to the fixpoint by the whole-network
    /// propagation, a random run of connection and gate-output constants
    /// (input stems included) through one `ConstEdits` matches the
    /// whole-network edit after every step: kind, pins, delay and dead
    /// flag of every slot, and the outputs. Each step's report lists every
    /// slot and output entry that differs from the network before it.
    #[test]
    fn seeded_edits_match_the_whole_network_edit(seed in 1u64..1_000_000) {
        let mut rng = Rng(seed.wrapping_mul(0xA076_1D64_78BD_642F) | 1);
        let mut net = mixed_network(seed, &mut rng);
        transform::propagate_constants(&mut net);
        let mut edits = ConstEdits::default();
        for step_no in 0..8 {
            let sites: Vec<GateId> = net
                .gate_ids()
                .filter(|&g| !matches!(net.gate(g).kind, GateKind::Const(_)))
                .collect();
            if sites.is_empty() {
                break;
            }
            let g = sites[rng.below(sites.len())];
            let value = rng.below(2) == 1;
            let pins = net.gate(g).pins.len();
            let before = net.clone();
            let mut whole = net.clone();
            let (touched, context) = if pins == 0 || rng.below(3) == 0 {
                ConstEdits::default().set_gate_const(&mut whole, g, value);
                let touched = edits.set_gate_const(&mut net, g, value);
                (touched, format!("seed {seed}, step {step_no}: {g} = {value}"))
            } else {
                let conn = ConnRef::new(g, rng.below(pins));
                transform::set_conn_const(&mut whole, conn, value);
                let touched = edits.set_conn_const(&mut net, conn, value);
                (touched, format!("seed {seed}, step {step_no}: {conn} = {value}"))
            };
            prop_assert_eq!(net.num_gate_slots(), whole.num_gate_slots(), "{}", context);
            prop_assert_eq!(touched.old_slots(), before.num_gate_slots(), "{}", context);
            for i in 0..net.num_gate_slots() {
                let id = GateId::from_index(i);
                let (got, want) = (net.gate(id), whole.gate(id));
                prop_assert_eq!(got.kind, want.kind, "{} gate {}", context, id);
                prop_assert_eq!(&got.pins, &want.pins, "{} gate {}", context, id);
                prop_assert_eq!(got.delay, want.delay, "{} gate {}", context, id);
                prop_assert_eq!(got.is_dead(), want.is_dead(), "{} gate {}", context, id);
                let old = (i < before.num_gate_slots()).then(|| before.gate(id));
                if old != Some(got) {
                    prop_assert!(touched.gates().any(|t| t == id), "{} gate {} not reported", context, id);
                }
            }
            prop_assert_eq!(net.outputs(), whole.outputs(), "{}", context);
            for (i, (a, b)) in before.outputs().iter().zip(net.outputs()).enumerate() {
                if a != b {
                    prop_assert!(touched.outputs().any(|o| o == i), "{} output {} not reported", context, i);
                }
            }
            prop_assert!(net.validate().is_ok(), "{}", context);
        }
    }

    /// The flat table equals the nested reference slot by slot and in
    /// order, before and after rewrites leave tombstones; `Topology`
    /// hands out the same lists.
    #[test]
    fn flat_fanouts_match_the_nested_table(seed in 1u64..1_000_000) {
        let mut rng = Rng(seed.wrapping_mul(0xD1B5_4A32_D192_ED03) | 1);
        let mut net = mixed_network(seed, &mut rng);
        for _ in 0..4 {
            let fo = net.fanouts();
            let want = nested_fanouts(&net);
            prop_assert_eq!(fo.num_slots(), want.len());
            prop_assert_eq!(fo.iter().len(), want.len());
            let topo = Topology::build(&net);
            for (i, list) in want.iter().enumerate() {
                prop_assert_eq!(&fo[i], list.as_slice(), "seed {} slot {}", seed, i);
                prop_assert_eq!(topo.fanouts(GateId::from_index(i)), list.as_slice());
                if net.gate(GateId::from_index(i)).is_dead() {
                    prop_assert!(fo[i].is_empty());
                }
            }
            prop_assert!(fo.iter().eq(want.iter().map(Vec::as_slice)));
            let Some(step) = pick_step(&net, &mut rng) else { break };
            apply(&mut net, &step, transform::propagate_constants);
        }
    }
}
