//! Fanout tables and topological order.
//!
//! [`Fanouts`] is the crate's one fanout table, in compressed sparse row
//! form: an offset array and one flat `Vec<ConnRef>`, so building it costs
//! two allocations however many gates the network has, and a fanout walk
//! is a slice. [`Network::fanouts`] builds it; [`Network::try_topo_order`]
//! and [`Topology`] walk it with the same Kahn pass.
//!
//! [`Topology`] keeps one table together with the order and two derived
//! arrays, for hot paths (ATPG, fault simulation) that ask for them
//! thousands of times while the network does not change:
//!
//! * **topological order** — bit-for-bit the order
//!   [`Network::try_topo_order`] produces, so swapping a call site over to
//!   the cache never changes behaviour;
//! * **topo positions** — `pos(g)` gives `g`'s index in the order without a
//!   `HashMap` (the sentinel `u32::MAX` marks dead slots);
//! * **levels** — `level(g)` is 0 for sources and `1 + max(level(fanin))`
//!   otherwise, the unit-delay levelization used for event scheduling.
//!
//! # Invalidation
//!
//! A [`Fanouts`] table or a [`Topology`] built from a network is exact for
//! that network until a gate is added, removed, or rewired; rebuild it
//! after such an edit. One weaker use survives edits that only drop pins
//! or kill gates: the table still lists, for every gate, each reader it
//! has left, and possibly more. The constant edits of
//! [`crate::transform::ConstEdits`] rely on that: each builds one table
//! during the edit, after its rewire, and checks every entry against the
//! reader's current pins; a gate-output constant needs the readers of the
//! replaced gate first, so it builds the table before the rewire and
//! tracks the constant's new readers (the gates it re-pinned) itself.

use std::ops::Index;

use crate::error::NetlistError;
use crate::gate::{ConnRef, GateId};
use crate::network::Network;

/// Sentinel topo position for dead (or never-ordered) gate slots.
const UNPLACED: u32 = u32::MAX;

/// The connections each gate slot drives, built by [`Network::fanouts`].
///
/// `fo[i]` is the slice of connections that gate slot `i` drives, in
/// (sink gate, pin) order; dead slots have empty slices. Output pins of the
/// network itself are not included (the paper treats primary-output
/// connections as delay-free path terminators); see
/// [`Network::output_counts`].
#[derive(Clone, Debug)]
pub struct Fanouts {
    /// `off[i]..off[i + 1]` is slot `i`'s run in `conns`.
    off: Vec<u32>,
    conns: Vec<ConnRef>,
}

impl Fanouts {
    /// Counts, prefix-sums, then fills each run back to front: walking the
    /// (gate, pin) pairs in reverse and filling each run from its end
    /// leaves every run in forward (gate, pin) order and turns each end
    /// offset into a start offset, with no separate cursor array.
    pub(crate) fn build(net: &Network) -> Fanouts {
        let gates = &net.gates;
        let n = gates.len();
        let mut off = vec![0u32; n + 1];
        for g in gates.iter().filter(|g| !g.dead) {
            for pin in &g.pins {
                off[pin.src.index()] += 1;
            }
        }
        let mut total = 0u32;
        for o in &mut off[..n] {
            total += *o;
            *o = total;
        }
        off[n] = total;
        let mut conns = vec![ConnRef::new(GateId::from_index(0), 0); total as usize];
        for (i, g) in gates.iter().enumerate().rev() {
            if g.dead {
                continue;
            }
            for (p, pin) in g.pins.iter().enumerate().rev() {
                let end = &mut off[pin.src.index()];
                *end -= 1;
                conns[*end as usize] = ConnRef::new(GateId::from_index(i), p);
            }
        }
        Fanouts { off, conns }
    }

    /// Number of gate slots (tombstones included) the table covers.
    pub fn num_slots(&self) -> usize {
        self.off.len() - 1
    }

    /// The per-slot fanout lists, in slot order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[ConnRef]> + '_ {
        (0..self.num_slots()).map(move |i| &self[i])
    }
}

impl Index<usize> for Fanouts {
    type Output = [ConnRef];

    #[inline]
    fn index(&self, slot: usize) -> &[ConnRef] {
        &self.conns[self.off[slot] as usize..self.off[slot + 1] as usize]
    }
}

/// Kahn's algorithm with a LIFO stack over the live gates of `net`, using
/// its fanout table `fo`.
pub(crate) fn kahn(net: &Network, fo: &Fanouts) -> Result<Vec<GateId>, NetlistError> {
    let n = net.gates.len();
    let mut indeg = vec![0u32; n];
    let mut live = 0usize;
    let mut stack = Vec::new();
    for (i, g) in net.gates.iter().enumerate() {
        if g.dead {
            continue;
        }
        live += 1;
        indeg[i] = g.pins.len() as u32;
        if g.pins.is_empty() {
            stack.push(GateId::from_index(i));
        }
    }
    let mut order = Vec::with_capacity(live);
    while let Some(id) = stack.pop() {
        order.push(id);
        for conn in &fo[id.index()] {
            let j = conn.gate.index();
            indeg[j] -= 1;
            if indeg[j] == 0 {
                stack.push(conn.gate);
            }
        }
    }
    if order.len() != live {
        return Err(NetlistError::Cyclic);
    }
    Ok(order)
}

/// Cached fanout table, topological order, and levelization for a
/// [`Network`]. See the module docs for the invalidation contract.
#[derive(Clone, Debug)]
pub struct Topology {
    fo: Fanouts,
    order: Vec<GateId>,
    pos: Vec<u32>,
    level: Vec<u32>,
    max_level: u32,
}

impl Topology {
    /// Builds the cached topology for `net`.
    ///
    /// # Panics
    ///
    /// Panics if the network contains a cycle; use [`Topology::try_build`]
    /// for a fallible version.
    pub fn build(net: &Network) -> Topology {
        Topology::try_build(net).expect("network contains a cycle")
    }

    /// Fallible [`Topology::build`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Cyclic`] if the live gates contain a cycle.
    pub fn try_build(net: &Network) -> Result<Topology, NetlistError> {
        let fo = net.fanouts();
        let order = kahn(net, &fo)?;
        let n = net.num_gate_slots();
        let mut pos = vec![UNPLACED; n];
        let mut level = vec![0u32; n];
        let mut max_level = 0u32;
        for (i, &id) in order.iter().enumerate() {
            pos[id.index()] = i as u32;
            let lvl = net
                .gate(id)
                .pins
                .iter()
                .map(|pin| level[pin.src.index()] + 1)
                .max()
                .unwrap_or(0);
            level[id.index()] = lvl;
            max_level = max_level.max(lvl);
        }
        Ok(Topology {
            fo,
            order,
            pos,
            level,
            max_level,
        })
    }

    /// Number of gate slots (including tombstones) in the network this
    /// topology was built from.
    pub fn num_slots(&self) -> usize {
        self.fo.num_slots()
    }

    /// The whole fanout table, as [`Network::fanouts`] builds it.
    pub fn fanout_table(&self) -> &Fanouts {
        &self.fo
    }

    /// The fanout connections of `g`, as in [`Network::fanouts`].
    #[inline]
    pub fn fanouts(&self, g: GateId) -> &[ConnRef] {
        &self.fo[g.index()]
    }

    /// The cached topological order (sources first), identical to
    /// [`Network::topo_order`].
    #[inline]
    pub fn order(&self) -> &[GateId] {
        &self.order
    }

    /// `g`'s index within [`Topology::order`].
    ///
    /// # Panics
    ///
    /// Panics if `g` was dead when the topology was built.
    #[inline]
    pub fn pos(&self, g: GateId) -> usize {
        let p = self.pos[g.index()];
        debug_assert_ne!(p, UNPLACED, "topo position queried for a dead gate");
        p as usize
    }

    /// Unit-delay level of `g`: 0 for sources, `1 + max(level of fanins)`
    /// otherwise. Dead slots report level 0.
    #[inline]
    pub fn level(&self, g: GateId) -> usize {
        self.level[g.index()] as usize
    }

    /// The largest level in the network (0 for an empty network).
    pub fn max_level(&self) -> usize {
        self.max_level as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;
    use crate::Delay;

    fn sample() -> Network {
        let mut net = Network::new("topo");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let na = net.add_gate(GateKind::Not, &[a], Delay::new(1));
        let g = net.add_gate(GateKind::And, &[na, b], Delay::new(1));
        let h = net.add_gate(GateKind::Or, &[g, a], Delay::new(1));
        net.add_output("h", h);
        net.add_output("g", g);
        net
    }

    #[test]
    fn order_matches_network_topo_order() {
        let net = sample();
        let topo = Topology::build(&net);
        assert_eq!(topo.order(), net.topo_order().as_slice());
        for (i, &g) in topo.order().iter().enumerate() {
            assert_eq!(topo.pos(g), i);
        }
    }

    /// Both tables equal a nested-`Vec` reference built from the pins,
    /// slot by slot and in order, tombstones included.
    #[test]
    fn fanouts_match_network_fanouts() {
        let mut net = sample();
        let a = net.input_by_name("a").unwrap();
        let x = net.add_gate(GateKind::And, &[a, a], Delay::new(1));
        let y = net.add_gate(GateKind::Not, &[x], Delay::new(1));
        net.kill(y);
        net.kill(x);
        let mut expect = vec![Vec::new(); net.num_gate_slots()];
        for id in net.gate_ids() {
            for (p, pin) in net.gate(id).pins.iter().enumerate() {
                expect[pin.src.index()].push(ConnRef::new(id, p));
            }
        }
        let fo = net.fanouts();
        assert_eq!(fo.num_slots(), expect.len());
        assert!(fo.iter().eq(expect.iter().map(Vec::as_slice)));
        let topo = Topology::build(&net);
        for (i, want) in expect.iter().enumerate() {
            assert_eq!(topo.fanouts(GateId::from_index(i)), want.as_slice());
        }
        assert!(fo[x.index()].is_empty() && fo[y.index()].is_empty());
    }

    #[test]
    fn levels_are_one_plus_max_fanin() {
        let net = sample();
        let topo = Topology::build(&net);
        for &g in topo.order() {
            let want = net
                .gate(g)
                .pins
                .iter()
                .map(|p| topo.level(p.src) + 1)
                .max()
                .unwrap_or(0);
            assert_eq!(topo.level(g), want);
        }
        assert_eq!(
            topo.max_level(),
            topo.order().iter().map(|&g| topo.level(g)).max().unwrap()
        );
    }
}
