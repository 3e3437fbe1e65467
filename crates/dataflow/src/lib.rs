//! Don't-care dataflow engine over gate networks.
//!
//! The crate layers a generic forward/backward abstract-interpretation
//! framework ([`framework`]) with pluggable lattices ([`lattice`]) on
//! top of `kms-netlist`, and instantiates it three ways:
//!
//! 1. **Ternary constant propagation under input cofactoring**
//!    ([`ternary`]) — 0/1/X evaluation to a fixpoint, refined by
//!    pinning each input to both values and keeping nodes on which the
//!    two cofactors agree.
//! 2. **Compatible observability don't-cares** ([`codc`]) — a backward
//!    pass marking connections blocked by proved-constant controlling
//!    side inputs; nodes with no unblocked path to a primary output are
//!    unobservable, and all derived don't-cares are simultaneously
//!    valid because every blocker is a global constant.
//! 3. **Depth-k recursive learning** ([`learn`]) — Kunz–Pradhan style
//!    case-splitting on unjustified gates with consequence
//!    intersection, refuting fault detection conditions the one-hop
//!    implication learner cannot reach and proving nodes constant.
//!
//! Every verdict carries a [`DfWitness`] that an independent checker
//! replays against SAT miters; `kms-core::cross_check_static_analysis`
//! does so (certified under `--certify`). The `kms-lint` dataflow tier
//! and `kms-sweep --dataflow` consume the results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codc;
pub mod equiv;
pub mod framework;
pub mod lattice;
pub mod learn;
pub mod merge;
pub mod report;
pub mod ternary;

use kms_analysis::{FaultRef, StaticAnalysis};
use kms_netlist::{ConnRef, GateId, Network};

pub use codc::{blocker, Codc, CodcBlock};
pub use equiv::conditional_equiv;
pub use framework::{fixpoint, Direction, Frame};
pub use lattice::{Lattice, Obs, Ternary};
pub use learn::LearnOptions;
pub use merge::{observability_merges, ObsMerge, ObsMergeResult};
pub use report::{DataflowReport, DataflowStats, DfFaultProof, DfWitness};
pub use ternary::{ConstOrigin, TernaryConsts};

/// Tuning knobs for [`DataflowAnalysis::build`]. Fully deterministic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DataflowOptions {
    /// Skip the cofactor refinement on networks with more inputs than
    /// this (the base ternary pass always runs).
    pub cofactor_input_limit: usize,
    /// Treat nodes with more fanout connections than this as observable
    /// without analysis.
    pub codc_fanout_bound: usize,
    /// Give up on a per-fault cut walk once its region grows past this
    /// many gates.
    pub codc_region_cap: usize,
    /// Recursive-learning shape (depth, rounds, split caps).
    pub learn: LearnOptions,
    /// Live logic gates examined by build-time implication learning.
    pub learn_gate_limit: usize,
    /// Total propagation budget of build-time learning.
    pub learn_budget: usize,
    /// Propagation budget of each per-fault refutation query.
    pub query_budget: usize,
}

impl Default for DataflowOptions {
    fn default() -> Self {
        DataflowOptions {
            cofactor_input_limit: 40,
            codc_fanout_bound: 64,
            codc_region_cap: 4_096,
            learn: LearnOptions::default(),
            learn_gate_limit: 2_000,
            learn_budget: 200_000,
            query_budget: 2_000,
        }
    }
}

/// The combined dataflow analysis of one network: proved constants with
/// derivation origins and CODC observability, plus the per-fault proof
/// machinery.
///
/// Built *on top of* a [`StaticAnalysis`] (whose constants seed the
/// fixpoint and whose implication database drives the learning), but
/// owns all its state — only the network is borrowed, so the value can
/// sit next to the base analysis in one struct.
pub struct DataflowAnalysis<'n> {
    net: &'n Network,
    consts: TernaryConsts,
    codc: Codc,
    fanouts: Vec<Vec<ConnRef>>,
    is_po: Vec<bool>,
    topo: Vec<GateId>,
    opts: DataflowOptions,
    stats: DataflowStats,
}

impl<'n> DataflowAnalysis<'n> {
    /// Runs the full dataflow pipeline: seed constants from `base`,
    /// ternary/cofactor fixpoint, build-time recursive learning (whose
    /// constants re-feed the fixpoint), then the backward CODC pass.
    pub fn build(
        net: &'n Network,
        base: &StaticAnalysis<'_>,
        opts: &DataflowOptions,
    ) -> DataflowAnalysis<'n> {
        let n = net.num_gate_slots();
        let mut seed: Vec<Option<bool>> = vec![None; n];
        for g in net.gate_ids() {
            if !net.gate(g).is_dead() {
                seed[g.index()] = base.node_constant(g);
            }
        }
        let mut consts = ternary::ternary_constants(net, &seed, opts.cofactor_input_limit);

        let mut budget = opts.learn_budget;
        let (learned_consts, learn_splits) = learn::learn_network(
            net,
            base.implications(),
            &consts.value,
            &opts.learn,
            opts.learn_gate_limit,
            &mut budget,
        );
        if !learned_consts.is_empty() {
            for &(g, v) in &learned_consts {
                consts.add(g, v, ConstOrigin::Learned);
            }
            // Learned constants can unlock further ternary/cofactor
            // constants; merge the refined fixpoint, keeping origins of
            // already-known nodes.
            let refined = ternary::ternary_constants(net, &consts.value, opts.cofactor_input_limit);
            for i in 0..n {
                if consts.value[i].is_none() && refined.value[i].is_some() {
                    consts.value[i] = refined.value[i];
                    consts.origin[i] = refined.origin[i];
                }
            }
            consts.passes += refined.passes;
        }

        let codc = codc::codc(net, &consts.value, opts.codc_fanout_bound);
        let fanouts = net.fanouts();
        let topo = net.topo_order();
        let mut is_po = vec![false; n];
        for o in net.outputs() {
            is_po[o.src.index()] = true;
        }

        let mut stats = DataflowStats {
            learn_splits,
            ternary_passes: consts.passes,
            blocked_connections: codc.blocked.len(),
            ..DataflowStats::default()
        };
        for g in net.gate_ids() {
            if net.gate(g).is_dead() {
                continue;
            }
            match consts.origin[g.index()] {
                Some(ConstOrigin::Ternary) => stats.ternary_constants += 1,
                Some(ConstOrigin::Cofactor(_)) => stats.cofactor_constants += 1,
                Some(ConstOrigin::Learned) => stats.learned_constants += 1,
                _ => {}
            }
            // Only count nodes whose unobservability survives the
            // cone-safety check — the fault-level claim, not the raw
            // fixpoint.
            if !codc.observable[g.index()] {
                let cone = codc::fanout_cone(net, &fanouts, g);
                if codc::cone_safe_cut(
                    net,
                    &fanouts,
                    &consts.value,
                    &cone,
                    &is_po,
                    g,
                    opts.codc_region_cap,
                )
                .is_some()
                {
                    stats.unobservable_nodes += 1;
                }
            }
        }

        DataflowAnalysis {
            net,
            consts,
            codc,
            fanouts,
            is_po,
            topo,
            opts: *opts,
            stats,
        }
    }

    /// The analyzed network.
    pub fn network(&self) -> &'n Network {
        self.net
    }

    /// The proved constant value of node `g`, if any (seeded constants
    /// included).
    pub fn node_constant(&self, g: GateId) -> Option<bool> {
        self.consts.value[g.index()]
    }

    /// `false` when the raw CODC fixpoint marks `g` unobservable. This
    /// is a *structural* verdict: every path from `g` to a primary
    /// output crosses a blocked connection. For the fault-level claim
    /// (stuck-at faults on `g` are untestable) use
    /// [`Self::codc_unobservable`], which additionally requires every
    /// blocker to sit outside `g`'s fanout cone.
    pub fn observable(&self, g: GateId) -> bool {
        self.codc.observable[g.index()]
    }

    /// The cone-safe unobservability verdict for `g`: `Some(cut)` when
    /// every path from `g` to a primary output crosses a connection
    /// blocked by a proved-constant side input *outside `g`'s fanout
    /// cone*. In-cone blockers are rejected — reconvergent fanout can
    /// flip them exactly when a fault on `g` is excited, voiding the
    /// mask — so this verdict implies both stuck-at faults on `g` are
    /// untestable.
    pub fn codc_unobservable(&self, g: GateId) -> Option<Vec<CodcBlock>> {
        if self.codc.observable[g.index()] {
            return None;
        }
        let cone = codc::fanout_cone(self.net, &self.fanouts, g);
        codc::cone_safe_cut(
            self.net,
            &self.fanouts,
            &self.consts.value,
            &cone,
            &self.is_po,
            g,
            self.opts.codc_region_cap,
        )
    }

    /// Aggregate counters of this analysis.
    pub fn stats(&self) -> &DataflowStats {
        &self.stats
    }

    /// The witness for a proved-constant node, shaped by its derivation.
    fn constant_witness(&self, node: GateId, value: bool) -> DfWitness {
        match self.consts.origin[node.index()] {
            Some(ConstOrigin::Cofactor(input)) => {
                DfWitness::CofactorConstant { node, value, input }
            }
            Some(ConstOrigin::Learned) => DfWitness::RecursiveConflict {
                assumptions: vec![(node, !value)],
                splits: 0,
            },
            _ => DfWitness::TernaryConstant { node, value },
        }
    }

    /// Tries to prove the stuck-at fault untestable with the dataflow
    /// verdicts. `None` means "undecided", never "testable". The rules,
    /// in order:
    ///
    /// - **Constant line** — the faulted line is proved constant at the
    ///   stuck value (ternary, cofactor, or learned constant), so the
    ///   fault cannot be excited.
    /// - **CODC-unobservable** — the faulted connection is blocked, or
    ///   the observing gate has no unblocked path to a primary output.
    ///   Blockers must lie outside the fault's fanout cone: an in-cone
    ///   blocker may itself carry the fault effect, voiding the mask.
    /// - **Conditional CODC** — propagating the fault's excitation
    ///   condition (the faulted line at its good value) implies further
    ///   out-of-cone literals; the cut walk reruns with those as extra
    ///   blockers. This catches lines that are unobservable exactly
    ///   when the fault is excitable — the carry-skip shape of the
    ///   paper's Table I redundancies.
    /// - **Recursive conflict** — the fault's necessary detection
    ///   conditions (from [`StaticAnalysis::detection_conditions`]) are
    ///   refuted by a proved constant or by depth-k learning.
    ///
    /// `base` must be the same analysis the value was built from.
    pub fn prove_untestable(
        &self,
        base: &StaticAnalysis<'_>,
        fault: FaultRef,
        stuck: bool,
    ) -> Option<DfWitness> {
        let net = self.net;
        let (line_src, obs) = match fault {
            FaultRef::Output(g) => (g, g),
            FaultRef::Conn(c) => (net.pin(c).src, c.gate),
        };
        if net.gate(line_src).is_dead() || net.gate(obs).is_dead() {
            return None;
        }
        // Rule 1: the line never leaves the stuck value.
        if self.consts.value[line_src.index()] == Some(stuck) {
            return Some(self.constant_witness(line_src, stuck));
        }
        // Rule 2: the fault effect cannot cross the blocked cut. For a
        // connection fault the effect enters only through the faulted
        // connection, so a blocker on it (necessarily a sibling pin,
        // hence outside the sink's cone) settles the fault by itself;
        // otherwise the effect sits at `obs` and the cone-safe region
        // walk decides.
        if let FaultRef::Conn(c) = fault {
            if let Some(b) = codc::blocker(net, &self.consts.value, c) {
                return Some(DfWitness::CodcUnobservable {
                    node: line_src,
                    cut: vec![b],
                });
            }
        }
        if !self.codc.observable[obs.index()] {
            let cone = codc::fanout_cone(net, &self.fanouts, obs);
            if let Some(cut) = codc::cone_safe_cut(
                net,
                &self.fanouts,
                &self.consts.value,
                &cone,
                &self.is_po,
                obs,
                self.opts.codc_region_cap,
            ) {
                return Some(DfWitness::CodcUnobservable { node: obs, cut });
            }
        }
        // Rule 2½ (conditional CODC): any detecting vector must excite
        // the fault, holding the faulted line at its good value in the
        // fault-free circuit. Literals implied by that single
        // assumption hold on every candidate detecting vector; those
        // whose gate lies outside the fault cone keep their value in
        // the faulty circuit too, so they serve as extra blockers.
        {
            let cone = codc::fanout_cone(net, &self.fanouts, obs);
            let mut budget = self.opts.query_budget;
            let mut splits = 0usize;
            match learn::analyze(
                net,
                base.implications(),
                &self.consts.value,
                &[(line_src, !stuck)],
                self.opts.learn.depth,
                &self.opts.learn,
                &mut budget,
                &mut splits,
            ) {
                // The excitation itself is contradictory: the line is
                // stuck at the fault value on every vector.
                Err(_) => {
                    return Some(DfWitness::RecursiveConflict {
                        assumptions: vec![(line_src, !stuck)],
                        splits,
                    });
                }
                Ok(implied) => {
                    let mut cond = self.consts.value.clone();
                    let mut extra = 0usize;
                    for (&g, &v) in &implied {
                        if !cone[g.index()] && cond[g.index()].is_none() {
                            cond[g.index()] = Some(v);
                            extra += 1;
                        }
                    }
                    if extra > 0 {
                        if let FaultRef::Conn(c) = fault {
                            if let Some(b) = codc::blocker(net, &cond, c) {
                                return Some(DfWitness::ConditionalCodc {
                                    node: line_src,
                                    excitation: (line_src, !stuck),
                                    cut: vec![b],
                                });
                            }
                        }
                        if let Some(cut) = codc::cone_safe_cut(
                            net,
                            &self.fanouts,
                            &cond,
                            &cone,
                            &self.is_po,
                            obs,
                            self.opts.codc_region_cap,
                        ) {
                            return Some(DfWitness::ConditionalCodc {
                                node: obs,
                                excitation: (line_src, !stuck),
                                cut,
                            });
                        }
                    }
                    // Rule 2¾ (conditional equivalence): no blocking cut
                    // exists, but the fault effect may still *cancel* —
                    // the carry-skip shape, where skip and ripple paths
                    // reconverge to equal values exactly under the
                    // excitation. Alias propagation decides structurally.
                    let knowns: Vec<(GateId, bool)> = cond
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| !cone[i])
                        .filter_map(|(i, v)| v.map(|v| (GateId::from_index(i), v)))
                        .collect();
                    if equiv::conditional_equiv(net, &self.topo, fault, stuck, &cone, &knowns) {
                        return Some(DfWitness::ConditionalEquiv {
                            excitation: (line_src, !stuck),
                            implied: knowns,
                        });
                    }
                }
            }
        }
        // Rule 3: refute the necessary detection conditions.
        let assumptions = base.detection_conditions(fault, stuck)?;
        if assumptions
            .iter()
            .any(|&(g, v)| self.consts.value[g.index()] == Some(!v))
        {
            return Some(DfWitness::RecursiveConflict {
                assumptions,
                splits: 0,
            });
        }
        let mut budget = self.opts.query_budget;
        let splits = learn::refute(
            net,
            base.implications(),
            &self.consts.value,
            &assumptions,
            &self.opts.learn,
            &mut budget,
        )?;
        Some(DfWitness::RecursiveConflict {
            assumptions,
            splits,
        })
    }

    /// Builds the [`DataflowReport`] over a caller-supplied fault list,
    /// marking how many proofs the base implic tier misses.
    pub fn report(&self, base: &StaticAnalysis<'_>, faults: &[(FaultRef, bool)]) -> DataflowReport {
        let mut proofs = Vec::new();
        let mut beyond = 0usize;
        for &(fault, stuck) in faults {
            if let Some(witness) = self.prove_untestable(base, fault, stuck) {
                if base.prove_untestable(fault, stuck).is_none() {
                    beyond += 1;
                }
                proofs.push(DfFaultProof {
                    fault,
                    stuck,
                    witness,
                });
            }
        }
        DataflowReport {
            network: self.net.name().to_string(),
            total_faults: faults.len(),
            proofs,
            beyond_implic: beyond,
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kms_analysis::AnalysisOptions;
    use kms_netlist::{ConnRef, Delay, GateKind};

    fn built(net: &Network) -> (StaticAnalysis<'_>, DataflowAnalysis<'_>) {
        let base = StaticAnalysis::build(net, &AnalysisOptions::default());
        let df = DataflowAnalysis::build(net, &base, &DataflowOptions::default());
        (base, df)
    }

    #[test]
    fn cofactor_constant_yields_unexcitable_witness() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let na = net.add_gate(GateKind::Not, &[a], Delay::UNIT);
        let taut = net.add_gate(GateKind::Or, &[a, na], Delay::UNIT);
        let o = net.add_gate(GateKind::And, &[taut, b], Delay::UNIT);
        net.add_output("y", o);
        let (base, df) = built(&net);
        // taut stuck-at-1 is unexcitable: the line is constant 1.
        let w = df.prove_untestable(&base, FaultRef::Output(taut), true);
        match w {
            Some(DfWitness::CofactorConstant { node, value, input }) => {
                assert_eq!(node, taut);
                assert!(value);
                assert_eq!(input, a);
            }
            // The sweep may already prove it (seed), which is also fine.
            Some(DfWitness::TernaryConstant { value, .. }) => assert!(value),
            other => panic!("expected a constant witness, got {other:?}"),
        }
    }

    #[test]
    fn blocked_connection_yields_codc_witness() {
        // nb's only path runs through an AND whose sibling is const 0.
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let z = net.add_const(false);
        let nb = net.add_gate(GateKind::Not, &[b], Delay::UNIT);
        let m = net.add_gate(GateKind::And, &[nb, z], Delay::UNIT);
        let o = net.add_gate(GateKind::Or, &[m, a], Delay::UNIT);
        net.add_output("y", o);
        let (base, df) = built(&net);
        let w = df.prove_untestable(&base, FaultRef::Conn(ConnRef::new(m, 0)), true);
        assert!(
            matches!(w, Some(DfWitness::CodcUnobservable { .. })),
            "got {w:?}"
        );
    }

    #[test]
    fn consensus_redundancy_proved() {
        // The textbook consensus circuit; the implic tier proves it too,
        // so this exercises agreement between tiers.
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
        let (base, df) = built(&net);
        assert!(df
            .prove_untestable(&base, FaultRef::Output(t3), false)
            .is_some());
    }

    #[test]
    fn excitation_implies_conditional_blocker() {
        // x sa0: excitation x=1 implies a=1 (out of x's cone), which
        // blocks the OR sink of x's only escape path. No global
        // constant exists, so only the conditional rule can see it.
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let x = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        let y = net.add_gate(GateKind::Not, &[x], Delay::UNIT);
        let t = net.add_gate(GateKind::Or, &[y, a], Delay::UNIT);
        net.add_output("o", t);
        let (base, df) = built(&net);
        let w = df.prove_untestable(&base, FaultRef::Output(x), false);
        match w {
            Some(DfWitness::ConditionalCodc {
                excitation, cut, ..
            }) => {
                assert_eq!(excitation, (x, true));
                assert_eq!(cut.len(), 1);
                assert_eq!(cut[0].side, a);
                assert!(cut[0].value);
            }
            other => panic!("expected a conditional-codc witness, got {other:?}"),
        }
    }

    #[test]
    fn carry_skip_cancellation_proved() {
        // Miniature carry-skip: skip sa0 is the paper's central
        // redundancy — under excitation skip=1 both cout branches equal
        // cin, so the effect cancels. The implic tier cannot prove it
        // (multi-fanout site, excitation-only detection conditions).
        let mut net = Network::new("skip");
        let p = net.add_input("p");
        let cin = net.add_input("cin");
        let skip = net.add_gate(GateKind::Buf, &[p], Delay::UNIT);
        let nskip = net.add_gate(GateKind::Not, &[skip], Delay::UNIT);
        let ripple = net.add_gate(GateKind::And, &[p, cin], Delay::UNIT);
        let a = net.add_gate(GateKind::And, &[nskip, ripple], Delay::UNIT);
        let b = net.add_gate(GateKind::And, &[skip, cin], Delay::UNIT);
        let cout = net.add_gate(GateKind::Or, &[a, b], Delay::UNIT);
        net.add_output("cout", cout);
        let (base, df) = built(&net);
        assert!(
            base.prove_untestable(FaultRef::Output(skip), false)
                .is_none(),
            "the implic tier should not reach this fault"
        );
        let w = df.prove_untestable(&base, FaultRef::Output(skip), false);
        match w {
            Some(DfWitness::ConditionalEquiv { excitation, .. }) => {
                assert_eq!(excitation, (skip, true));
            }
            other => panic!("expected a conditional-equiv witness, got {other:?}"),
        }
    }

    #[test]
    fn report_counts_beyond_implic() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let na = net.add_gate(GateKind::Not, &[a], Delay::UNIT);
        let taut = net.add_gate(GateKind::Or, &[a, na], Delay::UNIT);
        let o = net.add_gate(GateKind::And, &[taut, b], Delay::UNIT);
        net.add_output("y", o);
        let (base, df) = built(&net);
        let faults = vec![(FaultRef::Output(taut), true), (FaultRef::Output(o), false)];
        let r = df.report(&base, &faults);
        assert!(r.proved_count() >= 1);
        let json = r.render_json();
        assert!(json.contains("\"schema_version\": 2"), "{json}");
        let text = r.render_text();
        assert!(text.contains("faults proved untestable"), "{text}");
    }
}

#[cfg(test)]
mod soundness_probe {
    use super::*;
    use kms_analysis::AnalysisOptions;
    use kms_netlist::{Delay, GateKind};

    #[test]
    fn in_cone_blockers_do_not_mask() {
        // n = a&b; p1 = n & !a (== 0); p2 = n & !b (== 0); t = p1 & p2.
        // The cut {p1->t, p2->t} "blocks" every path from n, but on
        // a=b=0 the fault n stuck-at-1 flips BOTH blockers to 1 and the
        // effect crosses: t flips 0 -> 1. n sa1 is testable.
        let mut net = Network::new("trap");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let na = net.add_gate(GateKind::Not, &[a], Delay::UNIT);
        let nb = net.add_gate(GateKind::Not, &[b], Delay::UNIT);
        let n = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        let p1 = net.add_gate(GateKind::And, &[n, na], Delay::UNIT);
        let p2 = net.add_gate(GateKind::And, &[n, nb], Delay::UNIT);
        let t = net.add_gate(GateKind::And, &[p1, p2], Delay::UNIT);
        net.add_output("y", t);
        let base = StaticAnalysis::build(&net, &AnalysisOptions::default());
        let df = DataflowAnalysis::build(&net, &base, &DataflowOptions::default());
        let w = df.prove_untestable(&base, FaultRef::Output(n), true);
        assert!(w.is_none(), "testable fault proved untestable: {w:?}");
    }
}
