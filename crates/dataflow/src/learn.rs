//! Depth-k recursive learning (Kunz–Pradhan style).
//!
//! Direct implication propagation ([`Implications::propagate`]) misses
//! consequences that hold in *every* justification of an unjustified
//! gate without being directly implied. Recursive learning recovers
//! them: find a gate whose output sits at its controlled value with no
//! pin yet at the controlling value, case-split on which unassigned pin
//! supplies it, propagate each case (recursively, up to depth `k`), and
//! intersect the consequences of the feasible cases. If *no* case is
//! feasible the assumptions are refuted — an indirect conflict the
//! one-hop learner cannot see.
//!
//! Everything here is search-free from the SAT solver's point of view:
//! the only engine used is the implication database, so each verdict is
//! replayable as a machine-checkable witness.

use std::collections::BTreeMap;

use kms_analysis::Implications;
use kms_netlist::{GateId, Network};

/// Tuning knobs for the recursive-learning pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LearnOptions {
    /// Maximum case-split recursion depth (the `k` of depth-k learning).
    pub depth: usize,
    /// Learning rounds per level: each round may add intersected
    /// consequences that unlock further unjustified gates.
    pub rounds: usize,
    /// Unjustified gates examined per level.
    pub max_unjustified: usize,
    /// Maximum unassigned pins of one gate worth case-splitting on.
    pub max_cases: usize,
}

impl Default for LearnOptions {
    fn default() -> Self {
        LearnOptions {
            depth: 2,
            rounds: 3,
            max_unjustified: 24,
            max_cases: 4,
        }
    }
}

/// Marker for a refuted assumption set.
pub(crate) struct Refuted;

/// Propagates `assumptions` and checks the consequences against the
/// proved constants; a direct conflict or a contradiction with a global
/// constant refutes the set.
fn propagate_checked(
    net: &Network,
    db: &Implications,
    consts: &[Option<bool>],
    assumptions: &[(GateId, bool)],
    budget: &mut usize,
) -> Result<BTreeMap<GateId, bool>, Refuted> {
    if *budget == 0 {
        // Out of budget: fall back to the bare assumptions, which is
        // conservative (fewer consequences, never a bogus refutation).
        return Ok(assumptions.iter().copied().collect());
    }
    *budget -= 1;
    match db.propagate(net, assumptions) {
        Err(_) => Err(Refuted),
        Ok(steps) => {
            let map: BTreeMap<GateId, bool> = steps.iter().map(|s| (s.gate, s.value)).collect();
            for (&g, &v) in &map {
                if consts[g.index()] == Some(!v) {
                    return Err(Refuted);
                }
            }
            Ok(map)
        }
    }
}

/// Gates whose output is assigned the controlled value while no pin yet
/// carries the controlling value: their justification is still open and
/// worth case-splitting on. Returned in arena order, capped.
fn unjustified_gates(
    net: &Network,
    assigned: &BTreeMap<GateId, bool>,
    opts: &LearnOptions,
) -> Vec<GateId> {
    let mut out = Vec::new();
    for g in net.gate_ids() {
        let gate = net.gate(g);
        if gate.is_dead() {
            continue;
        }
        let (Some(cv), Some(co)) = (gate.kind.controlling_value(), gate.kind.controlled_output())
        else {
            continue;
        };
        if assigned.get(&g) != Some(&co) {
            continue;
        }
        let mut unassigned = 0usize;
        let mut has_cv = false;
        for p in &gate.pins {
            match assigned.get(&p.src) {
                Some(&v) if v == cv => has_cv = true,
                Some(_) => {}
                None => unassigned += 1,
            }
        }
        if !has_cv && unassigned >= 1 && unassigned <= opts.max_cases {
            out.push(g);
            if out.len() >= opts.max_unjustified {
                break;
            }
        }
    }
    out
}

fn intersect(a: &BTreeMap<GateId, bool>, b: &BTreeMap<GateId, bool>) -> BTreeMap<GateId, bool> {
    a.iter()
        .filter(|(g, v)| b.get(*g) == Some(*v))
        .map(|(&g, &v)| (g, v))
        .collect()
}

/// The core of the analysis: propagate, then repeatedly case-split on
/// unjustified gates, intersect the consequences of the feasible
/// justifications, and fold the learned literals back in. Returns the
/// full consequence map of `assumptions`, or [`Refuted`] when the set
/// is unsatisfiable.
#[allow(clippy::too_many_arguments)]
pub(crate) fn analyze(
    net: &Network,
    db: &Implications,
    consts: &[Option<bool>],
    assumptions: &[(GateId, bool)],
    depth: usize,
    opts: &LearnOptions,
    budget: &mut usize,
    splits: &mut usize,
) -> Result<BTreeMap<GateId, bool>, Refuted> {
    let mut aug = assumptions.to_vec();
    let mut assigned = propagate_checked(net, db, consts, &aug, budget)?;
    if depth == 0 {
        return Ok(assigned);
    }
    for _round in 0..opts.rounds {
        let mut changed = false;
        for h in unjustified_gates(net, &assigned, opts) {
            let gate = net.gate(h);
            let cv = gate
                .kind
                .controlling_value()
                .expect("unjustified gates have a controlling value");
            let co = gate
                .kind
                .controlled_output()
                .expect("unjustified gates have a controlled output");
            // Literals learned from an earlier gate of this round may
            // have justified `h` in the meantime; splitting on only the
            // still-unassigned pins would then be unsound (the assigned
            // controlling pin is a justification case of its own).
            if assigned.get(&h) != Some(&co)
                || gate.pins.iter().any(|p| assigned.get(&p.src) == Some(&cv))
            {
                continue;
            }
            // Each unassigned pin is one justification case; a pin
            // already assigned noncontrolling cannot justify the gate.
            let mut inter: Option<BTreeMap<GateId, bool>> = None;
            let mut feasible = 0usize;
            for p in &gate.pins {
                if assigned.contains_key(&p.src) {
                    continue;
                }
                if *budget == 0 {
                    // Unexamined case: must count as feasible with no
                    // usable consequences.
                    feasible += 1;
                    inter = Some(BTreeMap::new());
                    continue;
                }
                *splits += 1;
                let mut case = aug.clone();
                case.push((p.src, cv));
                match analyze(net, db, consts, &case, depth - 1, opts, budget, splits) {
                    Err(Refuted) => {}
                    Ok(m) => {
                        feasible += 1;
                        inter = Some(match inter.take() {
                            None => m,
                            Some(i) => intersect(&i, &m),
                        });
                    }
                }
            }
            if feasible == 0 {
                // Every way of justifying `h` is contradictory, yet any
                // total assignment satisfying the assumptions must
                // justify it: the assumptions are refuted.
                return Err(Refuted);
            }
            let mut learned_here = false;
            for (g, v) in inter.unwrap_or_default() {
                match assigned.get(&g) {
                    Some(&w) if w == v => {}
                    // The intersected consequence contradicts a direct
                    // one: refuted (see the feasibility argument above).
                    Some(_) => return Err(Refuted),
                    None => {
                        aug.push((g, v));
                        learned_here = true;
                    }
                }
            }
            if learned_here {
                changed = true;
                assigned = propagate_checked(net, db, consts, &aug, budget)?;
            }
        }
        if !changed {
            break;
        }
    }
    Ok(assigned)
}

/// Tries to refute the conjunction of `assumptions` by depth-`k`
/// recursive learning. Returns the number of case-splits spent when the
/// set is proved unsatisfiable, `None` when undecided.
pub fn refute(
    net: &Network,
    db: &Implications,
    consts: &[Option<bool>],
    assumptions: &[(GateId, bool)],
    opts: &LearnOptions,
    budget: &mut usize,
) -> Option<usize> {
    let mut splits = 0usize;
    match analyze(
        net,
        db,
        consts,
        assumptions,
        opts.depth,
        opts,
        budget,
        &mut splits,
    ) {
        Err(Refuted) => Some(splits),
        Ok(_) => None,
    }
}

/// Build-time derivation over the whole network: for every live logic
/// gate (capped at `gate_limit`) and both output values, run one-level
/// learning; a refuted value proves the node constant at the opposite
/// value. Returns the proved constants and the case-splits spent.
pub fn learn_network(
    net: &Network,
    db: &Implications,
    consts: &[Option<bool>],
    opts: &LearnOptions,
    gate_limit: usize,
    budget: &mut usize,
) -> (Vec<(GateId, bool)>, usize) {
    let mut constants = Vec::new();
    let mut splits = 0usize;
    let build_opts = LearnOptions { depth: 1, ..*opts };
    let mut examined = 0usize;
    for g in net.topo_order() {
        let gate = net.gate(g);
        if !gate.kind.is_logic() || consts[g.index()].is_some() {
            continue;
        }
        if examined >= gate_limit || *budget == 0 {
            break;
        }
        examined += 1;
        for v in [false, true] {
            let refuted = analyze(
                net,
                db,
                consts,
                &[(g, v)],
                build_opts.depth,
                &build_opts,
                budget,
                &mut splits,
            )
            .is_err();
            if refuted {
                constants.push((g, !v));
                break;
            }
        }
    }
    (constants, splits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kms_analysis::{AnalysisOptions, EquivClasses, StrashTable};
    use kms_netlist::{Delay, GateKind, Network};

    fn db(net: &Network) -> Implications {
        let strash = StrashTable::build(net);
        let classes = EquivClasses::build(net, &strash, &AnalysisOptions::default());
        Implications::build(net, &classes, true)
    }

    /// y = (a&b) | (a&c): every justification of y=1 forces a=1, so a
    /// proved constant a=0 refutes y=1 — but only the case-split sees
    /// it, since direct propagation derives nothing from y=1 alone.
    #[test]
    fn case_split_refutes_unjustified_or() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let t1 = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        let t2 = net.add_gate(GateKind::And, &[a, c], Delay::UNIT);
        let y = net.add_gate(GateKind::Or, &[t1, t2], Delay::UNIT);
        net.add_output("y", y);
        let db = db(&net);
        let opts = LearnOptions::default();
        let mut budget = 10_000;
        let mut consts = vec![None; net.num_gate_slots()];
        // Without the constant, y=1 is satisfiable and stays undecided.
        assert!(refute(&net, &db, &consts, &[(y, true)], &opts, &mut budget).is_none());
        consts[a.index()] = Some(false);
        let refuted = refute(&net, &db, &consts, &[(y, true)], &opts, &mut budget);
        assert!(refuted.is_some(), "expected a case-split refutation");
    }

    #[test]
    fn budget_exhaustion_is_conservative() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let na = net.add_gate(GateKind::Not, &[a], Delay::UNIT);
        let z = net.add_gate(GateKind::And, &[a, na], Delay::UNIT);
        net.add_output("y", z);
        let db = db(&net);
        let consts = vec![None; net.num_gate_slots()];
        let mut budget = 0usize;
        // With zero budget nothing can be refuted, even the trivially
        // contradictory set.
        assert!(refute(
            &net,
            &db,
            &consts,
            &[(a, true), (a, false)],
            &LearnOptions::default(),
            &mut budget
        )
        .is_none());
    }
}
