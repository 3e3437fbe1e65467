//! Cached levelized topology: CSR fanouts, topological order, and levels.
//!
//! [`Network::fanouts`] and [`Network::topo_order`] allocate a fresh
//! `Vec<Vec<ConnRef>>` (and run a full Kahn pass) on every call. That is fine
//! for one-shot queries, but the ATPG and fault-simulation hot paths ask for
//! the same tables thousands of times per circuit while the network is not
//! changing at all. [`Topology`] computes the tables once and hands out
//! borrowed slices:
//!
//! * **CSR fanouts** — one flat `Vec<ConnRef>` plus an offset array instead
//!   of a `Vec` per gate, so a fanout walk is a bounds-checked slice, not a
//!   pointer chase through per-gate allocations;
//! * **topological order** — bit-for-bit the same order
//!   [`Network::try_topo_order`] produces, so swapping a call site over to
//!   the cache never changes behaviour;
//! * **topo positions** — `pos(g)` gives `g`'s index in the order without a
//!   `HashMap` (the sentinel `u32::MAX` marks dead slots);
//! * **levels** — `level(g)` is 0 for sources and `1 + max(level(fanin))`
//!   otherwise, the unit-delay levelization used for event scheduling.
//!
//! # Invalidation
//!
//! The cache is as stale as the caller lets it get. A `Topology` built from
//! a network is valid for exactly that network until a gate is added,
//! removed, or rewired; rebuild it after such an edit.

use crate::error::NetlistError;
use crate::gate::{ConnRef, GateId};
use crate::network::Network;

/// Sentinel topo position for dead (or never-ordered) gate slots.
const UNPLACED: u32 = u32::MAX;

/// Cached CSR fanout table, topological order, and levelization for a
/// [`Network`]. See the module docs for the invalidation contract.
#[derive(Clone, Debug)]
pub struct Topology {
    slots: usize,
    fo_off: Vec<u32>,
    fo: Vec<ConnRef>,
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
        let n = net.num_gate_slots();

        // CSR fanouts: count, prefix-sum, fill. Filling in the same
        // (gate, pin) iteration order as `Network::fanouts` keeps each
        // source's fanout list in the same relative order.
        let mut fo_off = vec![0u32; n + 1];
        let mut live = 0usize;
        for id in net.gate_ids() {
            live += 1;
            for pin in &net.gate(id).pins {
                fo_off[pin.src.index() + 1] += 1;
            }
        }
        for i in 0..n {
            fo_off[i + 1] += fo_off[i];
        }
        let mut cursor = fo_off.clone();
        let mut fo = vec![ConnRef::new(GateId::from_index(0), 0); fo_off[n] as usize];
        for id in net.gate_ids() {
            for (p, pin) in net.gate(id).pins.iter().enumerate() {
                let c = &mut cursor[pin.src.index()];
                fo[*c as usize] = ConnRef::new(id, p);
                *c += 1;
            }
        }

        // Kahn's algorithm with a LIFO stack — the exact traversal
        // `Network::try_topo_order` uses, so the orders are identical.
        let mut indeg = vec![0usize; n];
        let mut order = Vec::with_capacity(live);
        let mut stack = Vec::new();
        for id in net.gate_ids() {
            let pins = net.gate(id).pins.len();
            indeg[id.index()] = pins;
            if pins == 0 {
                stack.push(id);
            }
        }
        let mut pos = vec![UNPLACED; n];
        let mut level = vec![0u32; n];
        let mut max_level = 0u32;
        while let Some(id) = stack.pop() {
            pos[id.index()] = order.len() as u32;
            order.push(id);
            let mut lvl = 0u32;
            for pin in &net.gate(id).pins {
                lvl = lvl.max(level[pin.src.index()] + 1);
            }
            level[id.index()] = lvl;
            max_level = max_level.max(lvl);
            let (lo, hi) = (fo_off[id.index()] as usize, fo_off[id.index() + 1] as usize);
            for conn in &fo[lo..hi] {
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
        Ok(Topology {
            slots: n,
            fo_off,
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
        self.slots
    }

    /// The fanout connections of `g`, in the same relative order as
    /// [`Network::fanouts`].
    #[inline]
    pub fn fanouts(&self, g: GateId) -> &[ConnRef] {
        let lo = self.fo_off[g.index()] as usize;
        let hi = self.fo_off[g.index() + 1] as usize;
        &self.fo[lo..hi]
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

    #[test]
    fn fanouts_match_network_fanouts() {
        let net = sample();
        let topo = Topology::build(&net);
        let fo = net.fanouts();
        for (i, expect) in fo.iter().enumerate() {
            assert_eq!(topo.fanouts(GateId::from_index(i)), expect.as_slice());
        }
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
