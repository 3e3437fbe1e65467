//! Structural hashing: a canonical gate-signature table over the live
//! gates of a [`Network`].
//!
//! Two gates are *structural duplicates* when they have the same kind, the
//! same gate delay, and pin-for-pin identical sources and wire delays
//! (commutative kinds compare their pins as a sorted multiset). The table
//! here is the non-mutating analogue of
//! `kms_netlist::transform::structural_hash`: instead of rewiring the
//! network it reports, for every live gate, the canonical representative
//! its signature maps to. Signatures are computed with every pin source
//! first mapped through the representative table, so one topological pass
//! reaches the same fixpoint the mutating transform needs a loop for.

use kms_netlist::{Delay, FxHashMap, GateId, GateKind, Network, Pin};

/// The result of structurally hashing a network.
#[derive(Clone, Debug)]
pub struct StrashTable {
    /// Per gate slot: the canonical representative of this gate's
    /// signature class (`rep[g] == g` for class leaders and for gates the
    /// table does not cover — sources and dead slots).
    rep: Vec<GateId>,
    /// `(duplicate, representative)` pairs, in topological order of the
    /// duplicate.
    duplicates: Vec<(GateId, GateId)>,
}

impl StrashTable {
    /// Builds the signature table for `net`.
    pub fn build(net: &Network) -> StrashTable {
        let n = net.num_gate_slots();
        let mut rep: Vec<GateId> = (0..n).map(GateId::from_index).collect();
        let mut duplicates = Vec::new();
        // FxHash: one lookup per live gate per build, with no adversarial
        // keys to guard against — hashing speed is all that matters here.
        let mut table: FxHashMap<(GateKind, Delay, Vec<Pin>), GateId> = FxHashMap::default();
        for id in net.topo_order() {
            let g = net.gate(id);
            if g.kind.is_source() {
                continue;
            }
            // Map each pin through the representatives found so far: the
            // topological order guarantees fanins are canonicalized first,
            // so transitive duplicates collapse in this single pass.
            let mut pins: Vec<Pin> = g
                .pins
                .iter()
                .map(|p| {
                    let mut q = *p;
                    q.src = rep[q.src.index()];
                    q
                })
                .collect();
            if g.kind.is_commutative() {
                pins.sort_by_key(|p| (p.src, p.wire_delay));
            }
            match table.entry((g.kind, g.delay, pins)) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(id);
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    rep[id.index()] = *e.get();
                    duplicates.push((id, *e.get()));
                }
            }
        }
        StrashTable { rep, duplicates }
    }

    /// The canonical representative of `g`'s structural signature class.
    pub fn rep(&self, g: GateId) -> GateId {
        self.rep[g.index()]
    }

    /// `(duplicate, representative)` pairs found, in topological order.
    pub fn duplicates(&self) -> &[(GateId, GateId)] {
        &self.duplicates
    }

    /// Number of gates that duplicate an earlier structural signature.
    pub fn duplicate_count(&self) -> usize {
        self.duplicates.len()
    }
}

/// A record of which gate slots were live before a transform step, for
/// [`assert_new_gates_shared`].
#[derive(Clone, Debug)]
pub struct StrashSnapshot {
    live: Vec<bool>,
}

impl StrashSnapshot {
    /// Records the live gate slots of `net` before a transform step.
    pub fn take(net: &Network) -> StrashSnapshot {
        let mut live = vec![false; net.num_gate_slots()];
        for id in net.topo_order() {
            live[id.index()] = true;
        }
        StrashSnapshot { live }
    }
}

/// Panics if a gate created since `pre` was taken is a structural
/// duplicate — the `debug-invariants` hook for simplification-only steps
/// (constant propagation, redundancy removal). Such steps may fold the
/// gates they rewrite into twins of existing nodes — merging those is
/// `transform::structural_hash`'s job at the end of the pipeline — but a
/// *new* gate whose signature matches an existing one is a node the
/// transform should have shared instead of minting.
pub fn assert_new_gates_shared(net: &Network, context: &str, pre: &StrashSnapshot) {
    let table = StrashTable::build(net);
    for &(d, r) in table.duplicates() {
        let fresh = |g: GateId| pre.live.get(g.index()) != Some(&true);
        let minted = if fresh(d) {
            Some(d)
        } else if fresh(r) {
            Some(r)
        } else {
            None
        };
        if let Some(g) = minted {
            panic!(
                "network {:?} failed strash invariant {context}: transform created gate \
                 {g} as a structural duplicate ({d}≡{r}); it should have shared the \
                 existing node",
                net.name(),
            );
        }
    }
}

/// Panics if `net` holds more structural duplicates than `allowed` — the
/// `debug-invariants` hook run after pipeline transform steps that promise
/// not to introduce shareable nodes (a step that duplicates on purpose,
/// like the KMS path-prefix duplication, passes its declared count).
pub fn assert_shared(net: &Network, context: &str, allowed: usize) {
    let table = StrashTable::build(net);
    if table.duplicate_count() > allowed {
        let shown: Vec<String> = table
            .duplicates()
            .iter()
            .take(8)
            .map(|(d, r)| format!("{d}≡{r}"))
            .collect();
        panic!(
            "network {:?} failed strash invariant {context}: {} structural duplicate(s) \
             (allowed {allowed}): {}",
            net.name(),
            table.duplicate_count(),
            shown.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kms_netlist::{Delay, GateKind, Network};

    #[test]
    fn detects_commutative_and_transitive_duplicates() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g1 = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        let g2 = net.add_gate(GateKind::And, &[b, a], Delay::UNIT); // commuted dup
        let h1 = net.add_gate(GateKind::Or, &[g1, a], Delay::UNIT);
        let h2 = net.add_gate(GateKind::Or, &[g2, a], Delay::UNIT); // transitive dup
        net.add_output("y", h1);
        net.add_output("z", h2);
        let t = StrashTable::build(&net);
        // Representative choice follows topological visit order, which for
        // incomparable gates is not id order — accept either direction.
        assert!(t.rep(g2) == g1 || t.rep(g1) == g2);
        assert!(t.rep(h2) == h1 || t.rep(h1) == h2);
        assert_eq!(t.duplicate_count(), 2);
    }

    #[test]
    fn delay_differences_block_merging() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g1 = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        let g2 = net.add_gate(GateKind::And, &[a, b], Delay::new(2));
        net.add_output("y", g1);
        net.add_output("z", g2);
        assert_eq!(StrashTable::build(&net).duplicate_count(), 0);
    }

    #[test]
    fn noncommutative_order_matters() {
        let mut net = Network::new("t");
        let s = net.add_input("s");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let m1 = net.add_gate(GateKind::Mux, &[s, a, b], Delay::UNIT);
        let m2 = net.add_gate(GateKind::Mux, &[s, b, a], Delay::UNIT);
        net.add_output("y", m1);
        net.add_output("z", m2);
        assert_eq!(StrashTable::build(&net).duplicate_count(), 0);
    }

    #[test]
    #[should_panic(expected = "failed strash invariant here")]
    fn assert_shared_panics_past_allowance() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let g1 = net.add_gate(GateKind::Not, &[a], Delay::UNIT);
        let g2 = net.add_gate(GateKind::Not, &[a], Delay::UNIT);
        net.add_output("y", g1);
        net.add_output("z", g2);
        assert_shared(&net, "here", 0);
    }

    #[test]
    fn folding_existing_gates_into_twins_is_tolerated() {
        use kms_netlist::transform;
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let g1 = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        let g2 = net.add_gate(GateKind::And, &[a, b, c], Delay::UNIT);
        net.add_output("y", g1);
        net.add_output("z", g2);
        let pre = StrashSnapshot::take(&net);
        // Fold g2's third pin to constant 1: g2 becomes AND(a, b), a twin
        // of g1 — legitimate, because g2 existed before the step.
        let conn = kms_netlist::ConnRef { gate: g2, pin: 2 };
        transform::set_conn_const(&mut net, conn, true);
        assert_new_gates_shared(&net, "after fold", &pre);
    }

    #[test]
    #[should_panic(expected = "should have shared")]
    fn minting_a_duplicate_gate_panics() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let g1 = net.add_gate(GateKind::Not, &[a], Delay::UNIT);
        net.add_output("y", g1);
        let pre = StrashSnapshot::take(&net);
        let g2 = net.add_gate(GateKind::Not, &[a], Delay::UNIT);
        net.add_output("z", g2);
        assert_new_gates_shared(&net, "after mint", &pre);
    }

    #[test]
    fn assert_shared_respects_allowance() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let g1 = net.add_gate(GateKind::Not, &[a], Delay::UNIT);
        let g2 = net.add_gate(GateKind::Not, &[a], Delay::UNIT);
        net.add_output("y", g1);
        net.add_output("z", g2);
        assert_shared(&net, "here", 1);
    }
}
