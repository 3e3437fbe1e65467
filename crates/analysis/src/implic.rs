//! Static implication learning over a gate network.
//!
//! A *literal* is a (gate, value) pair. The engine records, for every
//! literal, the set of literals it directly implies from gate semantics
//! (e.g. an AND output at 1 implies every input at 1; an input at the
//! controlling value implies the controlled output). On top of the direct
//! edges, [`Implications::propagate`] runs a ternary-evaluation fixpoint —
//! forward evaluation plus last-unassigned-pin backward justification — so
//! it derives everything a PODEM-style implication step would. Optional
//! one-level *static learning* assumes each literal in turn, records the
//! contrapositive of every indirect consequence as a new direct edge, and
//! promotes literals whose assumption refutes itself to constant facts
//! (Teslenko & Dubrova's fast redundancy-identification trick).
//!
//! Propagation from a set of assumptions either reaches a fixpoint
//! (returning every derived literal) or derives a contradiction, in which
//! case the [`Conflict`] carries the implication chain that witnesses it.
//! All implications are sound consequences of the circuit function, so a
//! conflict proves the assumptions hold under *no* primary-input vector.

use std::collections::VecDeque;

use kms_netlist::{GateId, GateKind, Network};

use crate::sweep::EquivClasses;

const UNASSIGNED: u8 = 2;

#[inline]
fn lit(g: GateId, v: bool) -> u32 {
    ((g.index() as u32) << 1) | v as u32
}

#[inline]
fn lit_gate(l: u32) -> GateId {
    GateId::from_index((l >> 1) as usize)
}

#[inline]
fn lit_value(l: u32) -> bool {
    l & 1 == 1
}

/// Why a literal was assigned during implication propagation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Why {
    /// An assumption passed to [`Implications::propagate`].
    Assumed,
    /// Holds under every input vector: a constant gate, a node proved
    /// constant by the SAT sweep, or a learned constant.
    Fact,
    /// Implied by a direct implication edge from the given literal.
    ImpliedBy(GateId, bool),
    /// Forced by ternary evaluation of the given gate's semantics.
    Forced(GateId),
}

/// One assignment in an implication chain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ImplStep {
    /// The gate whose output value was derived.
    pub gate: GateId,
    /// The derived value.
    pub value: bool,
    /// The justification for the assignment.
    pub why: Why,
}

impl std::fmt::Display for ImplStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={}", self.gate, self.value as u8)?;
        match self.why {
            Why::Assumed => write!(f, " (assumed)"),
            Why::Fact => write!(f, " (fact)"),
            Why::ImpliedBy(g, v) => write!(f, " (implied by {}={})", g, v as u8),
            Why::Forced(g) => write!(f, " (forced by {g})"),
        }
    }
}

/// A refutation of a set of assumptions: the final step contradicts an
/// earlier assignment of the same gate. The steps are a topologically
/// consistent implication chain starting from assumptions and facts.
#[derive(Clone, Debug)]
pub struct Conflict {
    /// The chain of assignments ending in the contradiction.
    pub steps: Vec<ImplStep>,
}

/// The static implication database of a network.
pub struct Implications {
    /// Direct implication edges per literal index.
    edges: Vec<Vec<u32>>,
    /// Literals that hold under every input vector.
    facts: Vec<u32>,
    /// Per gate slot: the constant value recorded in `facts`, if any.
    fact_val: Vec<Option<bool>>,
    /// Per gate slot: deduplicated live fanout sink gates.
    sinks: Vec<Vec<GateId>>,
    learned_facts: usize,
    learned_edges: usize,
}

/// Static learning is quadratic in circuit size; past this many live gates
/// the base edges and the evaluation fixpoint carry the analysis alone.
const LEARNING_GATE_LIMIT: usize = 20_000;
/// Cap on contrapositive edges recorded per assumed literal.
const LEARNING_EDGE_CAP: usize = 512;

impl Implications {
    /// Builds the implication database for `net`, folding in the proved
    /// equivalences and constants of `classes` as edges and facts.
    pub fn build(net: &Network, classes: &EquivClasses, static_learning: bool) -> Implications {
        let n = net.num_gate_slots();
        let mut edges: Vec<Vec<u32>> = vec![Vec::new(); 2 * n];
        let mut facts = Vec::new();
        let topo = net.topo_order();
        for &id in &topo {
            let g = net.gate(id);
            match g.kind {
                GateKind::Input | GateKind::Xor | GateKind::Xnor | GateKind::Mux => {}
                GateKind::Const(b) => facts.push(lit(id, b)),
                GateKind::Buf => {
                    let s = g.pins[0].src;
                    for v in [false, true] {
                        edges[lit(id, v) as usize].push(lit(s, v));
                        edges[lit(s, v) as usize].push(lit(id, v));
                    }
                }
                GateKind::Not => {
                    let s = g.pins[0].src;
                    for v in [false, true] {
                        edges[lit(id, v) as usize].push(lit(s, !v));
                        edges[lit(s, v) as usize].push(lit(id, !v));
                    }
                }
                GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor => {
                    // Noncontrolled output pins every input noncontrolling;
                    // a controlling input pins the controlled output.
                    let cv = g.kind.controlling_value().unwrap();
                    let co = g.kind.controlled_output().unwrap();
                    for p in &g.pins {
                        edges[lit(id, !co) as usize].push(lit(p.src, !cv));
                        edges[lit(p.src, cv) as usize].push(lit(id, co));
                    }
                }
            }
        }
        for &(m, r, same) in classes.sat_pairs() {
            for v in [false, true] {
                edges[lit(m, v) as usize].push(lit(r, v == same));
                edges[lit(r, v == same) as usize].push(lit(m, v));
            }
        }
        for &(dup, rep) in classes.structural_pairs() {
            for v in [false, true] {
                edges[lit(dup, v) as usize].push(lit(rep, v));
                edges[lit(rep, v) as usize].push(lit(dup, v));
            }
        }
        for &(g, c) in classes.constant_nodes() {
            facts.push(lit(g, c));
        }

        let mut fact_val = vec![None; n];
        for &f in &facts {
            fact_val[lit_gate(f).index()] = Some(lit_value(f));
        }
        let mut sinks: Vec<Vec<GateId>> = vec![Vec::new(); n];
        for (i, conns) in net.fanouts().iter().enumerate() {
            let mut s: Vec<GateId> = conns.iter().map(|c| c.gate).collect();
            s.sort_unstable();
            s.dedup();
            sinks[i] = s;
        }
        let mut db = Implications {
            edges,
            facts,
            fact_val,
            sinks,
            learned_facts: 0,
            learned_edges: 0,
        };
        if static_learning && topo.len() <= LEARNING_GATE_LIMIT {
            db.learn(net, &topo);
        }
        for e in &mut db.edges {
            e.sort_unstable();
            e.dedup();
        }
        db
    }

    /// One-level static learning: assume each literal, promote
    /// self-refuting literals to facts, and record the contrapositive of
    /// every derived consequence as a direct edge.
    fn learn(&mut self, net: &Network, topo: &[GateId]) {
        for &id in topo {
            if matches!(net.gate(id).kind, GateKind::Const(_)) {
                continue;
            }
            for v in [false, true] {
                if self.fact_val[id.index()].is_some() {
                    break;
                }
                match self.propagate(net, &[(id, v)]) {
                    Err(_) => {
                        // Assuming id=v refutes itself: id is constant !v
                        // under every input vector.
                        self.facts.push(lit(id, !v));
                        self.fact_val[id.index()] = Some(!v);
                        self.learned_facts += 1;
                    }
                    Ok(steps) => {
                        let mut added = 0;
                        for st in steps {
                            if st.gate == id || matches!(st.why, Why::Assumed | Why::Fact) {
                                continue;
                            }
                            // (id=v => st) yields the contrapositive
                            // (!st => id=!v).
                            self.edges[lit(st.gate, !st.value) as usize].push(lit(id, !v));
                            self.learned_edges += 1;
                            added += 1;
                            if added >= LEARNING_EDGE_CAP {
                                break;
                            }
                        }
                    }
                }
            }
        }
    }

    /// The constant value of `g` recorded as a fact, if any (from constant
    /// gates, the SAT sweep, or static learning).
    pub fn fact_constant(&self, g: GateId) -> Option<bool> {
        self.fact_val[g.index()]
    }

    /// Number of constants discovered by static learning alone.
    pub fn learned_fact_count(&self) -> usize {
        self.learned_facts
    }

    /// Number of contrapositive edges recorded by static learning
    /// (before deduplication against the base edges).
    pub fn learned_edge_count(&self) -> usize {
        self.learned_edges
    }

    /// Total direct implication edges in the database.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Propagates `assumptions` to a fixpoint.
    ///
    /// Returns every derived assignment (assumptions and facts included,
    /// in derivation order), or the refuting [`Conflict`] chain. A
    /// conflict proves no primary-input vector satisfies the assumptions.
    pub fn propagate(
        &self,
        net: &Network,
        assumptions: &[(GateId, bool)],
    ) -> Result<Vec<ImplStep>, Conflict> {
        let n = self.fact_val.len();
        let mut prop = Prop {
            net,
            db: self,
            vals: vec![UNASSIGNED; n],
            why: vec![Why::Assumed; n],
            pos: vec![0; n],
            trail: Vec::new(),
            qhead: 0,
            dirty: VecDeque::new(),
            in_dirty: vec![false; n],
        };
        for &f in &self.facts {
            prop.assign(lit_gate(f), lit_value(f), Why::Fact)?;
        }
        for &(g, v) in assumptions {
            prop.assign(g, v, Why::Assumed)?;
        }
        prop.run()?;
        let steps = prop
            .trail
            .iter()
            .map(|&l| {
                let g = lit_gate(l);
                ImplStep {
                    gate: g,
                    value: lit_value(l),
                    why: prop.why[g.index()],
                }
            })
            .collect();
        Ok(steps)
    }
}

/// One propagation episode's working state.
struct Prop<'a> {
    net: &'a Network,
    db: &'a Implications,
    vals: Vec<u8>,
    why: Vec<Why>,
    pos: Vec<u32>,
    trail: Vec<u32>,
    qhead: usize,
    dirty: VecDeque<GateId>,
    in_dirty: Vec<bool>,
}

impl Prop<'_> {
    fn val(&self, g: GateId) -> Option<bool> {
        match self.vals[g.index()] {
            UNASSIGNED => None,
            v => Some(v == 1),
        }
    }

    fn assign(&mut self, g: GateId, v: bool, why: Why) -> Result<(), Conflict> {
        match self.vals[g.index()] {
            UNASSIGNED => {
                self.vals[g.index()] = v as u8;
                self.why[g.index()] = why;
                self.pos[g.index()] = self.trail.len() as u32;
                self.trail.push(lit(g, v));
                self.mark_dirty(g);
                for &s in &self.db.sinks[g.index()] {
                    self.mark_dirty(s);
                }
                Ok(())
            }
            old if (old == 1) == v => Ok(()),
            _ => Err(self.conflict(g, v, why)),
        }
    }

    fn mark_dirty(&mut self, g: GateId) {
        if !self.in_dirty[g.index()] {
            self.in_dirty[g.index()] = true;
            self.dirty.push_back(g);
        }
    }

    fn run(&mut self) -> Result<(), Conflict> {
        loop {
            if self.qhead < self.trail.len() {
                let l = self.trail[self.qhead];
                self.qhead += 1;
                let from = (lit_gate(l), lit_value(l));
                for i in 0..self.db.edges[l as usize].len() {
                    let e = self.db.edges[l as usize][i];
                    self.assign(lit_gate(e), lit_value(e), Why::ImpliedBy(from.0, from.1))?;
                }
            } else if let Some(h) = self.dirty.pop_front() {
                self.in_dirty[h.index()] = false;
                self.eval_gate(h)?;
            } else {
                return Ok(());
            }
        }
    }

    /// Ternary evaluation of gate `h`: forward evaluation when enough pins
    /// are known, plus backward justification when the output and all but
    /// one pin are known.
    fn eval_gate(&mut self, h: GateId) -> Result<(), Conflict> {
        let g = self.net.gate(h);
        if g.kind.is_source() || g.is_dead() {
            return Ok(());
        }
        let w = Why::Forced(h);
        let out = self.val(h);
        match g.kind {
            GateKind::Buf | GateKind::Not => {
                let invert = g.kind == GateKind::Not;
                let s = g.pins[0].src;
                if let Some(v) = self.val(s) {
                    self.assign(h, v != invert, w)?;
                }
                if let Some(o) = out {
                    self.assign(s, o != invert, w)?;
                }
            }
            GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor => {
                let cv = g.kind.controlling_value().unwrap();
                let co = g.kind.controlled_output().unwrap();
                let mut unknown = 0usize;
                let mut last_unknown = g.pins[0].src;
                let mut controlled = false;
                for p in &g.pins {
                    match self.val(p.src) {
                        None => {
                            unknown += 1;
                            last_unknown = p.src;
                        }
                        Some(v) if v == cv => controlled = true,
                        Some(_) => {}
                    }
                }
                if controlled {
                    self.assign(h, co, w)?;
                } else if unknown == 0 {
                    self.assign(h, !co, w)?;
                } else if unknown == 1 && out == Some(co) {
                    // Output is controlled but every other pin is
                    // noncontrolling: the remaining pin must control.
                    self.assign(last_unknown, cv, w)?;
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                let invert = g.kind == GateKind::Xnor;
                let mut unknown = 0usize;
                let mut last_unknown = g.pins[0].src;
                let mut parity = false;
                for p in &g.pins {
                    match self.val(p.src) {
                        None => {
                            unknown += 1;
                            last_unknown = p.src;
                        }
                        Some(v) => parity ^= v,
                    }
                }
                if unknown == 0 {
                    self.assign(h, parity != invert, w)?;
                } else if unknown == 1 {
                    if let Some(o) = out {
                        self.assign(last_unknown, (o != invert) ^ parity, w)?;
                    }
                }
            }
            GateKind::Mux => {
                let sel = g.pins[0].src;
                let d0 = g.pins[1].src;
                let d1 = g.pins[2].src;
                match self.val(sel) {
                    Some(sv) => {
                        let d = if sv { d1 } else { d0 };
                        if let Some(v) = self.val(d) {
                            self.assign(h, v, w)?;
                        }
                        if let Some(o) = out {
                            self.assign(d, o, w)?;
                        }
                    }
                    None => {
                        if let (Some(v0), Some(v1)) = (self.val(d0), self.val(d1)) {
                            if v0 == v1 {
                                self.assign(h, v0, w)?;
                            }
                        }
                        if let Some(o) = out {
                            // The selected data must equal the output, so a
                            // data pin at !o rules its select value out.
                            if self.val(d0) == Some(!o) {
                                self.assign(sel, true, w)?;
                            }
                            if self.val(d1) == Some(!o) {
                                self.assign(sel, false, w)?;
                            }
                        }
                    }
                }
            }
            GateKind::Input | GateKind::Const(_) => {}
        }
        Ok(())
    }

    /// Builds the witness chain for a contradiction: the ancestors of both
    /// the standing assignment of `g` and the newly derived opposite one,
    /// in trail order, ending with the contradicting step.
    fn conflict(&self, g: GateId, v: bool, why: Why) -> Conflict {
        let n = self.vals.len();
        let mut seen = vec![false; n];
        let mut stack: Vec<GateId> = vec![g];
        seen[g.index()] = true;
        self.push_parents(why, g, u32::MAX, &mut stack, &mut seen);
        let mut picked: Vec<GateId> = Vec::new();
        while let Some(x) = stack.pop() {
            picked.push(x);
            self.push_parents(
                self.why[x.index()],
                x,
                self.pos[x.index()],
                &mut stack,
                &mut seen,
            );
        }
        picked.sort_by_key(|x| self.pos[x.index()]);
        let mut steps: Vec<ImplStep> = picked
            .into_iter()
            .map(|x| ImplStep {
                gate: x,
                value: self.vals[x.index()] == 1,
                why: self.why[x.index()],
            })
            .collect();
        steps.push(ImplStep {
            gate: g,
            value: v,
            why,
        });
        Conflict { steps }
    }

    /// Pushes the assigned ancestors a justification depends on: the edge
    /// source for implications, the forcing gate's assigned neighbourhood
    /// for evaluations (restricted to assignments older than `before`).
    fn push_parents(
        &self,
        why: Why,
        of: GateId,
        before: u32,
        stack: &mut Vec<GateId>,
        seen: &mut [bool],
    ) {
        let push = |x: GateId, stack: &mut Vec<GateId>, seen: &mut [bool]| {
            if self.vals[x.index()] != UNASSIGNED
                && self.pos[x.index()] < before
                && !seen[x.index()]
            {
                seen[x.index()] = true;
                stack.push(x);
            }
        };
        match why {
            Why::Assumed | Why::Fact => {}
            Why::ImpliedBy(src, _) => push(src, stack, seen),
            Why::Forced(h) => {
                if h != of {
                    push(h, stack, seen);
                }
                for p in &self.net.gate(h).pins {
                    if p.src != of {
                        push(p.src, stack, seen);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kms_netlist::{Delay, GateKind, Network};

    fn db(net: &Network, learning: bool) -> Implications {
        Implications::build(net, &EquivClasses::empty(net), learning)
    }

    #[test]
    fn and_edges_propagate_both_ways() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        net.add_output("y", g);
        let imp = db(&net, false);
        let steps = imp.propagate(&net, &[(g, true)]).unwrap();
        assert!(steps.iter().any(|s| s.gate == a && s.value));
        assert!(steps.iter().any(|s| s.gate == b && s.value));
        let steps = imp.propagate(&net, &[(a, false)]).unwrap();
        assert!(steps.iter().any(|s| s.gate == g && !s.value));
    }

    #[test]
    fn backward_justification_forces_last_pin() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate(GateKind::Or, &[a, b], Delay::UNIT);
        net.add_output("y", g);
        let imp = db(&net, false);
        // OR output 1 with a=0 forces b=1.
        let steps = imp.propagate(&net, &[(g, true), (a, false)]).unwrap();
        assert!(steps.iter().any(|s| s.gate == b && s.value));
    }

    #[test]
    fn conflict_carries_chain() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let n1 = net.add_gate(GateKind::Not, &[a], Delay::UNIT);
        let g = net.add_gate(GateKind::And, &[a, n1], Delay::UNIT);
        net.add_output("y", g);
        let imp = db(&net, false);
        // a AND !a can never be 1.
        let c = imp.propagate(&net, &[(g, true)]).unwrap_err();
        assert!(c.steps.len() >= 2);
        let last = c.steps.last().unwrap();
        // The chain ends at the contradicted gate.
        let contradicted: Vec<_> = c.steps.iter().filter(|s| s.gate == last.gate).collect();
        assert_eq!(contradicted.len(), 2);
        assert_ne!(contradicted[0].value, contradicted[1].value);
    }

    #[test]
    fn learning_finds_constant_node() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let n1 = net.add_gate(GateKind::Not, &[a], Delay::UNIT);
        let g = net.add_gate(GateKind::And, &[a, n1], Delay::UNIT);
        net.add_output("y", g);
        let imp = db(&net, true);
        assert_eq!(imp.fact_constant(g), Some(false));
        assert!(imp.learned_fact_count() >= 1);
    }

    #[test]
    fn xor_parity_and_mux_select() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let x = net.add_gate(GateKind::Xor, &[a, b], Delay::UNIT);
        let m = net.add_gate(GateKind::Mux, &[a, b, x], Delay::UNIT);
        net.add_output("y", m);
        let imp = db(&net, false);
        let steps = imp.propagate(&net, &[(a, true), (b, false)]).unwrap();
        assert!(steps.iter().any(|s| s.gate == x && s.value)); // 1 xor 0
        assert!(steps.iter().any(|s| s.gate == m && s.value)); // selects x
    }
}
