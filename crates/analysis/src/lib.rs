//! Semantic static analysis of gate networks.
//!
//! The crate sits between `kms-netlist` and the ATPG/optimization layers
//! and answers, *without per-fault SAT or PODEM search*, three questions
//! the KMS pipeline (paper §VII) keeps re-deriving the expensive way:
//!
//! 1. **Which nodes are structurally identical?** — [`StrashTable`], an
//!    AIG-style canonical gate-signature table ([`strash`]).
//! 2. **Which nodes are functionally equivalent, antivalent, or
//!    constant?** — [`EquivClasses`], simulation-guided SAT sweeping over
//!    one shared incremental solver ([`sweep`]).
//! 3. **Which stuck-at faults are untestable?** — static implication
//!    learning ([`implic`]) refuting each fault's *necessary* detection
//!    conditions: excitation of the faulted line plus noncontrolling side
//!    inputs on every dominator of the fault site (unique sensitization,
//!    in the style of Teslenko & Dubrova's fast redundancy
//!    identification).
//!
//! Every verdict is sound — backed by syntactic identity, an UNSAT pair,
//! or an implication chain — and is packaged as a machine-checkable
//! witness in a [`StaticRedundancyReport`]. `kms-sweep` reports the
//! verdicts, `kms-lint` surfaces them as semantic diagnostics, and
//! `kms-core`'s verifier cross-checks them against the ATPG and SAT
//! oracles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod implic;
pub mod report;
pub mod signature;
pub mod strash;
pub mod sweep;

use std::collections::BTreeSet;

use kms_netlist::{ConnRef, GateId, GateKind, Network};

pub use implic::{Conflict, ImplStep, Implications, Why};
pub use report::{AnalysisStats, FaultRef, StaticFaultProof, StaticRedundancyReport, Witness};
pub use signature::{SignatureInterner, Signatures};
pub use strash::{assert_new_gates_shared, assert_shared, StrashSnapshot, StrashTable};
pub use sweep::EquivClasses;

/// Tuning knobs for [`StaticAnalysis::build`]. The defaults are fully
/// deterministic; the seed only feeds the signature simulation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AnalysisOptions {
    /// Initial 64-pattern simulation words for sweep signatures.
    pub sim_patterns: usize,
    /// Counterexample-refinement rounds of the SAT sweep.
    pub sweep_rounds: usize,
    /// Run the SAT sweep (structural hashing always runs).
    pub sat_sweep: bool,
    /// Run one-level static implication learning.
    pub static_learning: bool,
    /// Seed for the signature simulation.
    pub seed: u64,
    /// Log a RUP/DRAT proof for every UNSAT answer of the SAT sweep and
    /// check it with the independent `kms-proof` checker, so each merge
    /// and constant claim carries a verified certificate (see
    /// [`EquivClasses::certification`]).
    pub certify: bool,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            sim_patterns: 4,
            sweep_rounds: 4,
            sat_sweep: true,
            static_learning: true,
            seed: 0x4B4D_5333,
            certify: false,
        }
    }
}

/// The combined static analysis of one network: structural hash table,
/// proved equivalence classes, and the implication database, plus the
/// derived fault-proof machinery.
pub struct StaticAnalysis<'n> {
    net: &'n Network,
    topo: Vec<GateId>,
    topo_pos: Vec<usize>,
    fanouts: Vec<Vec<ConnRef>>,
    is_po_src: Vec<bool>,
    reach_po: Vec<bool>,
    strash: StrashTable,
    classes: EquivClasses,
    implications: Implications,
}

impl<'n> StaticAnalysis<'n> {
    /// Runs the full analysis over `net`.
    pub fn build(net: &'n Network, opts: &AnalysisOptions) -> StaticAnalysis<'n> {
        let strash = StrashTable::build(net);
        let classes = EquivClasses::build(net, &strash, opts);
        let implications = Implications::build(net, &classes, opts.static_learning);
        let topo = net.topo_order();
        let n = net.num_gate_slots();
        let mut topo_pos = vec![usize::MAX; n];
        for (i, &id) in topo.iter().enumerate() {
            topo_pos[id.index()] = i;
        }
        let fanouts = net.fanouts();
        let mut is_po_src = vec![false; n];
        for o in net.outputs() {
            is_po_src[o.src.index()] = true;
        }
        let mut reach_po = is_po_src.clone();
        for &id in topo.iter().rev() {
            if !reach_po[id.index()] {
                reach_po[id.index()] = fanouts[id.index()].iter().any(|c| reach_po[c.gate.index()]);
            }
        }
        StaticAnalysis {
            net,
            topo,
            topo_pos,
            fanouts,
            is_po_src,
            reach_po,
            strash,
            classes,
            implications,
        }
    }

    /// The analyzed network.
    pub fn network(&self) -> &'n Network {
        self.net
    }

    /// The structural hash table.
    pub fn strash(&self) -> &StrashTable {
        &self.strash
    }

    /// The proved equivalence classes.
    pub fn classes(&self) -> &EquivClasses {
        &self.classes
    }

    /// Certification accounting of the SAT sweep, present when the
    /// analysis ran with [`AnalysisOptions::certify`].
    pub fn certification(&self) -> Option<&kms_proof::CertificationReport> {
        self.classes.certification()
    }

    /// The proved constant value of node `g`, if any: explicit constant
    /// gates, SAT-proved constants, and constants from static learning.
    pub fn node_constant(&self, g: GateId) -> Option<bool> {
        if let GateKind::Const(b) = self.net.gate(g).kind {
            return Some(b);
        }
        self.classes
            .node_constant(g)
            .or_else(|| self.implications.fact_constant(g))
    }

    /// The proved `(representative, same_phase)` merge of `g`, if any.
    /// Prefer [`StaticAnalysis::node_constant`] when both apply.
    pub fn node_rep(&self, g: GateId) -> Option<(GateId, bool)> {
        self.classes.node_rep(g)
    }

    /// Aggregate counters of this analysis.
    pub fn stats(&self) -> AnalysisStats {
        let live_gates = self
            .topo
            .iter()
            .filter(|&&g| !self.net.gate(g).kind.is_source())
            .count();
        AnalysisStats {
            live_gates,
            strash_duplicates: self.strash.duplicate_count(),
            sat_merged: self.classes.sat_pairs().len(),
            antivalent_merged: self
                .classes
                .sat_pairs()
                .iter()
                .filter(|&&(_, _, same)| !same)
                .count(),
            constant_nodes: self.classes.constant_nodes().len(),
            learned_constants: self.implications.learned_fact_count(),
            sat_checks: self.classes.sat_check_count(),
            sim_words: self.classes.sim_word_count(),
            implication_edges: self.implications.edge_count(),
        }
    }

    /// Tries to prove the stuck-at fault untestable with purely static
    /// reasoning. `None` means "statically undecided", never "testable".
    ///
    /// The proof rules, all *sound* (they refute conditions every test
    /// vector must satisfy):
    ///
    /// - **Unexcitable** — the faulted line is proved constant at the
    ///   stuck value.
    /// - **Unobservable** — no primary output is reachable from the
    ///   fault site.
    /// - **Implication conflict** — excitation of the line, plus
    ///   noncontrolling values on every side pin of the faulted
    ///   connection's gate, plus noncontrolling values on every
    ///   fault-cone-external pin of every dominator of the fault site,
    ///   are refuted by the implication database.
    pub fn prove_untestable(&self, fault: FaultRef, stuck: bool) -> Option<Witness> {
        let net = self.net;
        let (line_src, obs) = match fault {
            FaultRef::Output(g) => (g, g),
            FaultRef::Conn(c) => (net.pin(c).src, c.gate),
        };
        if net.gate(line_src).is_dead() || net.gate(obs).is_dead() {
            return None;
        }
        // Rule 1: the good value of the line never differs from the stuck
        // value, so the fault cannot be excited.
        if let Some(cv) = self.node_constant(line_src) {
            if cv == stuck {
                return Some(Witness::Unexcitable {
                    node: line_src,
                    value: cv,
                });
            }
        }
        // Rule 2: the fault effect cannot reach any primary output.
        if !self.reach_po[obs.index()] {
            return Some(Witness::Unobservable);
        }
        // Rule 3: assemble the necessary detection conditions and try to
        // refute them.
        let assumptions = self.detection_conditions(fault, line_src, obs, stuck);
        match self.implications.propagate(net, &assumptions) {
            Err(conflict) => Some(Witness::ImplicationConflict {
                assumptions,
                steps: conflict.steps,
            }),
            Ok(_) => None,
        }
    }

    /// The *necessary* detection conditions of a stuck-at fault on the
    /// live line `line_src` whose effect enters the network at `obs`:
    /// every vector that detects the fault must satisfy all returned
    /// `(node, value)` literals. The set comprises excitation of the
    /// faulted line, noncontrolling values on the side pins of the
    /// faulted connection's gate, and noncontrolling values on every
    /// fault-cone-external pin of every dominator of the fault site
    /// (unique sensitization). [`StaticAnalysis::prove_untestable`]
    /// refutes the conjunction with [`Implications::propagate`].
    fn detection_conditions(
        &self,
        fault: FaultRef,
        line_src: GateId,
        obs: GateId,
        stuck: bool,
    ) -> Vec<(GateId, bool)> {
        let net = self.net;
        let tfo = self.tfo_mask(obs);
        let mut assumptions: Vec<(GateId, bool)> = vec![(line_src, !stuck)];
        let assume = |asm: &mut Vec<(GateId, bool)>, g: GateId, v: bool| {
            if !asm.contains(&(g, v)) {
                asm.push((g, v));
            }
        };
        if let FaultRef::Conn(c) = fault {
            // The effect enters `obs` through one pin only: every other
            // pin must sit at a noncontrolling value (those pins' sources
            // are upstream of the fault, so good and faulty values agree).
            let g = net.gate(c.gate);
            if let Some(nv) = g.kind.noncontrolling_value() {
                for (i, p) in g.pins.iter().enumerate() {
                    if i != c.pin {
                        assume(&mut assumptions, p.src, nv);
                    }
                }
            } else if g.kind == GateKind::Mux {
                match c.pin {
                    1 => assume(&mut assumptions, g.pins[0].src, false),
                    2 => assume(&mut assumptions, g.pins[0].src, true),
                    _ => {}
                }
            }
        }
        for d in self.dominators(obs) {
            // Every observation path passes through `d`, so the effect
            // must propagate through it: side pins outside the fault cone
            // carry good values and must be noncontrolling.
            let g = net.gate(d);
            if let Some(nv) = g.kind.noncontrolling_value() {
                for p in &g.pins {
                    if !tfo[p.src.index()] {
                        assume(&mut assumptions, p.src, nv);
                    }
                }
            } else if g.kind == GateKind::Mux {
                let sel_in = tfo[g.pins[0].src.index()];
                let d0_in = tfo[g.pins[1].src.index()];
                let d1_in = tfo[g.pins[2].src.index()];
                if !sel_in {
                    if d0_in && !d1_in {
                        assume(&mut assumptions, g.pins[0].src, false);
                    } else if d1_in && !d0_in {
                        assume(&mut assumptions, g.pins[0].src, true);
                    }
                }
            }
        }
        assumptions
    }

    /// Builds the [`StaticRedundancyReport`] over a caller-supplied fault
    /// list (`(site, stuck_value)` pairs, e.g. from `kms-atpg`'s
    /// collapsed fault enumeration).
    pub fn report(&self, faults: &[(FaultRef, bool)]) -> StaticRedundancyReport {
        let proofs = faults
            .iter()
            .filter_map(|&(fault, stuck)| {
                self.prove_untestable(fault, stuck)
                    .map(|witness| StaticFaultProof {
                        fault,
                        stuck,
                        witness,
                    })
            })
            .collect();
        StaticRedundancyReport {
            network: self.net.name().to_string(),
            total_faults: faults.len(),
            proofs,
            stats: self.stats(),
        }
    }

    /// Marks the transitive fanout of `start` (inclusive).
    fn tfo_mask(&self, start: GateId) -> Vec<bool> {
        let mut mask = vec![false; self.net.num_gate_slots()];
        let mut stack = vec![start];
        mask[start.index()] = true;
        while let Some(x) = stack.pop() {
            for c in &self.fanouts[x.index()] {
                if !mask[c.gate.index()] {
                    mask[c.gate.index()] = true;
                    stack.push(c.gate);
                }
            }
        }
        mask
    }

    /// The dominators of `start` with respect to the primary outputs:
    /// every observation path from `start` to a primary output passes
    /// through each returned gate. `start` itself is excluded; the walk
    /// maintains a topologically ordered cut frontier and records every
    /// singleton cut.
    fn dominators(&self, start: GateId) -> Vec<GateId> {
        let mut doms = Vec::new();
        let mut frontier: BTreeSet<(usize, GateId)> = BTreeSet::new();
        frontier.insert((self.topo_pos[start.index()], start));
        while let Some(&entry) = frontier.iter().next() {
            frontier.remove(&entry);
            let g = entry.1;
            let lone = frontier.is_empty();
            if lone && g != start {
                doms.push(g);
            }
            if self.is_po_src[g.index()] {
                // A path may terminate at g's primary output: if the cut
                // was not a singleton, observation can bypass the rest of
                // the frontier; either way nothing further dominates.
                break;
            }
            for c in &self.fanouts[g.index()] {
                if self.reach_po[c.gate.index()] {
                    frontier.insert((self.topo_pos[c.gate.index()], c.gate));
                }
            }
        }
        doms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kms_netlist::{Delay, GateKind, Network};

    fn analysis(net: &Network) -> StaticAnalysis<'_> {
        StaticAnalysis::build(net, &AnalysisOptions::default())
    }

    /// The textbook redundant circuit: y = (a & b) | (!a & c) | (b & c).
    /// The consensus term (b & c) is redundant; the stuck-at-0 fault on
    /// its output connection is untestable.
    fn consensus_net() -> (Network, GateId) {
        let mut net = Network::new("consensus");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let na = net.add_gate(GateKind::Not, &[a], Delay::UNIT);
        let t1 = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        let t2 = net.add_gate(GateKind::And, &[na, c], Delay::UNIT);
        let t3 = net.add_gate(GateKind::And, &[b, c], Delay::UNIT);
        let o = net.add_gate(GateKind::Or, &[t1, t2, t3], Delay::UNIT);
        net.add_output("y", o);
        (net, t3)
    }

    #[test]
    fn consensus_fault_proved_untestable() {
        let (net, t3) = consensus_net();
        let an = analysis(&net);
        // t3 output stuck-at-0: to detect it, t3 must be 1 (b=c=1) while
        // t1 and t2 are 0 — but b=c=1 forces t1|t2 = 1 whatever a is.
        let w = an.prove_untestable(FaultRef::Output(t3), false);
        assert!(
            matches!(w, Some(Witness::ImplicationConflict { .. })),
            "expected implication-conflict witness, got {w:?}"
        );
    }

    #[test]
    fn testable_fault_stays_undecided() {
        let (net, _) = consensus_net();
        let an = analysis(&net);
        // Stuck-at-1 on the OR output is testable (set all terms to 0).
        let o = net.outputs()[0].src;
        assert!(an.prove_untestable(FaultRef::Output(o), true).is_none());
    }

    #[test]
    fn unobservable_fault_detected() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        let dangling = net.add_gate(GateKind::Or, &[a, g], Delay::UNIT);
        net.add_output("y", g);
        let _ = dangling; // drives nothing
        let an = analysis(&net);
        assert!(matches!(
            an.prove_untestable(FaultRef::Output(dangling), false),
            Some(Witness::Unobservable)
        ));
    }

    #[test]
    fn unexcitable_fault_detected() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let na = net.add_gate(GateKind::Not, &[a], Delay::UNIT);
        let z = net.add_gate(GateKind::And, &[a, na], Delay::UNIT); // constant 0
        let o = net.add_gate(GateKind::Or, &[z, a], Delay::UNIT);
        net.add_output("y", o);
        let an = analysis(&net);
        // z stuck-at-0 on its connection into o: line is constant 0.
        let w = an.prove_untestable(FaultRef::Conn(ConnRef::new(o, 0)), false);
        assert!(
            matches!(
                w,
                Some(Witness::Unexcitable { value: false, .. })
                    | Some(Witness::ImplicationConflict { .. })
            ),
            "got {w:?}"
        );
    }

    #[test]
    fn dominator_walk_finds_chain() {
        // a -> g1 -> g2 -> g3 -> PO, with a side input at each stage.
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let s1 = net.add_input("s1");
        let s2 = net.add_input("s2");
        let g1 = net.add_gate(GateKind::And, &[a, s1], Delay::UNIT);
        let g2 = net.add_gate(GateKind::Or, &[g1, s2], Delay::UNIT);
        let g3 = net.add_gate(GateKind::Not, &[g2], Delay::UNIT);
        net.add_output("y", g3);
        let an = analysis(&net);
        assert_eq!(an.dominators(g1), vec![g2, g3]);
    }

    #[test]
    fn report_counts_and_renders() {
        let (net, t3) = consensus_net();
        let an = analysis(&net);
        let faults = vec![
            (FaultRef::Output(t3), false),
            (FaultRef::Output(net.outputs()[0].src), true),
        ];
        let r = an.report(&faults);
        assert_eq!(r.total_faults, 2);
        assert_eq!(r.proved_count(), 1);
        let text = r.render_text();
        assert!(text.contains("1/2 faults proved untestable"), "{text}");
        let json = r.to_json().rows();
        assert!(json.contains("\"schema_version\": 1"), "{json}");
        assert!(json.contains("implication-conflict"), "{json}");
    }
}
