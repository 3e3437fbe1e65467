//! Viability analysis (Section V.1 of the paper, after McGeer–Brayton,
//! *Provably correct critical paths*, 1989).
//!
//! A path is **viable** under an input cube `c` if, at each gate `gi` along
//! the path, every *early* side-input (settled before the event time `τi`)
//! carries a noncontrolling value; *late* side-inputs are **smoothed out** —
//! no demand is placed on them. Static sensitization implies viability, and
//! the longest viable path is the paper's computed delay: a tight,
//! provably safe upper bound on the true delay.
//!
//! Lateness here uses the static-arrival upper bound on settle times, which
//! makes *more* side-inputs late than the exact fixpoint would — more
//! smoothing, a weaker condition, hence a safe (possibly pessimistic)
//! viability verdict, exactly the trade the paper's proofs rely on
//! (Theorem 7.2 compares plain path lengths).

use kms_bdd::{Bdd, BddManager, NodeFunctions};
use kms_netlist::{GateId, GateKind, NetlistError, Network, Path};

use crate::sta::{InputArrivals, Sta, Time, NEVER};

/// When is a side-input of gate `gi` "early"?
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LatenessRule {
    /// Early iff it settles before the event leaves the gate (`settle <
    /// τi`, the event time *at the gate output* — the paper's Section V.1
    /// wording). The default.
    #[default]
    BeforeGateOutput,
    /// Early iff it settles before the event reaches the gate *input*
    /// (`settle < τ(i−1) + wire`). Stricter: fewer side-inputs are late,
    /// fewer get smoothed, so fewer paths are viable. Used by the ablation
    /// bench.
    BeforeGateInput,
}

/// The viability constraint set of a path under `rule`: the `(driving
/// gate, required noncontrolling value)` pairs of its **early**
/// side-inputs. Late side-inputs are smoothed (omitted), XOR/XNOR
/// side-inputs are unconstrained. The path is viable iff some input cube
/// satisfies every listed constraint — this is the cacheable abstraction
/// of [`ViabilityAnalysis::viability_function`].
///
/// The caller must ensure the path's source actually launches events
/// (arrival ≠ [`NEVER`]); a never-eventing source makes the path
/// trivially non-viable regardless of constraints.
///
/// # Errors
///
/// Returns [`NetlistError::NotSimple`] if a MUX lies on the path's
/// fanout.
pub fn early_side_constraints(
    net: &Network,
    sta: &Sta,
    path: &Path,
    rule: LatenessRule,
) -> Result<Vec<(GateId, bool)>, NetlistError> {
    let source_arrival = sta.arrival(path.source(net));
    debug_assert_ne!(source_arrival, NEVER, "path source never events");
    let mut out = Vec::new();
    for (i, conn) in path.side_inputs(net) {
        let gate = net.gate(conn.gate);
        let nc = match gate.kind {
            GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor => gate
                .kind
                .noncontrolling_value()
                .expect("kinds above have noncontrolling values"),
            GateKind::Xor | GateKind::Xnor => continue, // always propagate
            GateKind::Mux => {
                return Err(NetlistError::NotSimple {
                    gate: conn.gate,
                    kind: gate.kind,
                })
            }
            GateKind::Not | GateKind::Buf | GateKind::Input | GateKind::Const(_) => {
                unreachable!("no side-inputs on these kinds")
            }
        };
        let tau = match rule {
            LatenessRule::BeforeGateOutput => source_arrival + path.event_time(net, i).units(),
            LatenessRule::BeforeGateInput => {
                let before_gate = if i == 0 {
                    source_arrival
                } else {
                    source_arrival + path.event_time(net, i - 1).units()
                };
                before_gate + net.pin(path.conns()[i]).wire_delay.units()
            }
        };
        let pin = net.pin(conn);
        let settle = match sta.arrival(pin.src) {
            NEVER => NEVER, // constants settled at -∞: always early
            a => a + pin.wire_delay.units(),
        };
        let late = settle != NEVER && settle >= tau;
        if late {
            continue; // smoothed out (Section V.1)
        }
        out.push((pin.src, nc));
    }
    Ok(out)
}

/// A viability oracle over one network + arrival context.
///
/// Holds the BDD manager, per-gate global functions, and the STA pass so
/// repeated path queries share the symbolic work.
pub struct ViabilityAnalysis<'a> {
    net: &'a Network,
    sta: Sta,
    manager: BddManager,
    funcs: NodeFunctions,
    rule: LatenessRule,
}

impl<'a> ViabilityAnalysis<'a> {
    /// Prepares the oracle for `net` under the given input arrivals.
    pub fn new(net: &'a Network, arrivals: &InputArrivals) -> Self {
        let sta = Sta::run(net, arrivals);
        let mut manager = BddManager::new(net.inputs().len());
        let funcs = NodeFunctions::build(net, &mut manager);
        ViabilityAnalysis {
            net,
            sta,
            manager,
            funcs,
            rule: LatenessRule::default(),
        }
    }

    /// Selects the lateness rule (default: the paper's
    /// [`LatenessRule::BeforeGateOutput`]).
    pub fn with_rule(mut self, rule: LatenessRule) -> Self {
        self.rule = rule;
        self
    }

    /// The STA pass backing this analysis.
    pub fn sta(&self) -> &Sta {
        &self.sta
    }

    /// The characteristic function of the cubes under which `path` is
    /// viable. The path is viable iff this is not constant false.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NotSimple`] if a MUX lies on the path's
    /// fanout (decompose the network first).
    ///
    /// # Panics
    ///
    /// Panics if the path does not validate.
    pub fn viability_function(&mut self, path: &Path) -> Result<Bdd, NetlistError> {
        assert!(path.validate(self.net), "path does not validate");
        let source_arrival = self.sta.arrival(path.source(self.net));
        if source_arrival == NEVER {
            return Ok(Bdd::FALSE); // constants launch no events
        }
        let constraints = early_side_constraints(self.net, &self.sta, path, self.rule)?;
        let mut acc = Bdd::TRUE;
        for (src, nc) in constraints {
            let f = self.funcs.of(src);
            let lit = if nc { f } else { self.manager.not(f) };
            acc = self.manager.and(acc, lit);
            if acc.is_false() {
                break;
            }
        }
        Ok(acc)
    }

    /// A witness input vector under which `path` is viable, or `None` if
    /// the path is not viable.
    ///
    /// # Errors
    ///
    /// See [`ViabilityAnalysis::viability_function`].
    pub fn viability_witness(&mut self, path: &Path) -> Result<Option<Vec<bool>>, NetlistError> {
        let f = self.viability_function(path)?;
        Ok(self.manager.sat_one(f).map(|asg| {
            (0..self.net.inputs().len())
                .map(|i| asg.get(i).copied().flatten().unwrap_or(false))
                .collect()
        }))
    }

    /// `true` if some input cube makes `path` viable.
    ///
    /// # Errors
    ///
    /// See [`ViabilityAnalysis::viability_function`].
    pub fn is_viable(&mut self, path: &Path) -> Result<bool, NetlistError> {
        Ok(!self.viability_function(path)?.is_false())
    }

    /// The event time `τi` (including the source's arrival offset) used for
    /// gate `i` of the path under the paper's rule. Exposed for tests and
    /// the worked Section III example.
    pub fn event_time(&self, path: &Path, i: usize) -> Time {
        self.sta.arrival(path.source(self.net)) + path.event_time(self.net, i).units()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensitize::is_statically_sensitizable;
    use kms_netlist::{ConnRef, Delay, GateKind, Network, Path};

    /// The canonical viability-vs-static-sensitization fixture: a path
    /// that is not statically sensitizable but *is* viable because the
    /// conflicting side-input is late and gets smoothed.
    ///
    /// slow = NOT(NOT(NOT a)) (3 units); g = AND(a, slow); the path
    /// a→g (direct pin) has side-input `slow` which conflicts statically
    /// when … — we instead check the simpler property below on the
    /// carry-skip cone in the integration tests; here: smoothing widens.
    #[test]
    fn static_sensitization_implies_viability() {
        // Random-ish simple network; every statically sensitizable path
        // must be viable (Section V.1: "if a path is statically
        // sensitizable then it is viable").
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let n1 = net.add_gate(GateKind::Not, &[a], Delay::new(1));
        let g1 = net.add_gate(GateKind::And, &[n1, b], Delay::new(1));
        let g2 = net.add_gate(GateKind::Or, &[g1, c], Delay::new(1));
        let g3 = net.add_gate(GateKind::And, &[g2, a], Delay::new(1));
        net.add_output("y", g3);

        let arr = InputArrivals::zero();
        let mut va = ViabilityAnalysis::new(&net, &arr);
        let all_paths: Vec<Path> = crate::paths::PathEnumerator::new(&net, &arr)
            .map(|(p, _)| p)
            .collect();
        assert!(!all_paths.is_empty());
        for p in &all_paths {
            if is_statically_sensitizable(&net, p).unwrap() {
                assert!(va.is_viable(p).unwrap(), "stat-sens path must be viable");
            }
        }
    }

    /// Build the smoothing scenario directly: the statically impossible
    /// demand `s ∧ s̄` disappears when the `s̄` side-input is late.
    ///
    /// g = AND(a, s, n), n = NOT(s). The path a→g needs side-inputs s = 1
    /// and n = 1 — a static conflict. If the inverter is slow, n settles
    /// after τ(g) and is smoothed; the remaining constraint `s` is
    /// satisfiable and the path is viable.
    fn conflict_fixture(inv_delay: Delay, gate_delay: Delay) -> (Network, Path) {
        let mut net = Network::new("s");
        let a = net.add_input("a");
        let s = net.add_input("s");
        let n = net.add_gate(GateKind::Not, &[s], inv_delay);
        let g = net.add_gate(GateKind::And, &[a, s, n], gate_delay);
        net.add_output("y", g);
        let p = Path::new(vec![ConnRef::new(g, 0)], 0);
        (net, p)
    }

    #[test]
    fn late_conflicting_side_input_is_smoothed() {
        // Slow inverter: n settles at 5 ≥ τ(g) = 1 → smoothed → viable.
        let (net, p) = conflict_fixture(Delay::new(5), Delay::new(1));
        assert!(!is_statically_sensitizable(&net, &p).unwrap());
        let arr = InputArrivals::zero();
        let mut va = ViabilityAnalysis::new(&net, &arr);
        assert!(
            va.is_viable(&p).unwrap(),
            "late side-input must be smoothed"
        );

        // Fast inverter: n settles at 0 < 1 → early → conflict stands.
        let (net2, p2) = conflict_fixture(Delay::ZERO, Delay::new(1));
        assert!(!is_statically_sensitizable(&net2, &p2).unwrap());
        let mut va2 = ViabilityAnalysis::new(&net2, &arr);
        assert!(!va2.is_viable(&p2).unwrap());
    }

    #[test]
    fn lateness_rules_differ_on_boundary() {
        // n settles at 1, strictly between the event's gate-input time (0)
        // and gate-output time (2): early under the paper's output rule
        // (conflict stands), late under the input rule (smoothed).
        let (net, p) = conflict_fixture(Delay::new(1), Delay::new(2));
        let arr = InputArrivals::zero();
        let mut v_out = ViabilityAnalysis::new(&net, &arr);
        assert!(!v_out.is_viable(&p).unwrap());
        let mut v_in = ViabilityAnalysis::new(&net, &arr).with_rule(LatenessRule::BeforeGateInput);
        assert!(v_in.is_viable(&p).unwrap());
    }

    #[test]
    fn constant_side_inputs_always_early() {
        let mut net = Network::new("c");
        let a = net.add_input("a");
        let c0 = net.add_const(false);
        let g = net.add_gate(GateKind::And, &[a, c0], Delay::new(1));
        net.add_output("y", g);
        let p = Path::new(vec![ConnRef::new(g, 0)], 0);
        let arr = InputArrivals::zero();
        let mut va = ViabilityAnalysis::new(&net, &arr);
        assert!(!va.is_viable(&p).unwrap(), "controlling constant blocks");
    }

    #[test]
    fn witness_is_consistent() {
        let mut net = Network::new("w");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate(GateKind::And, &[a, b], Delay::new(1));
        net.add_output("y", g);
        let p = Path::new(vec![ConnRef::new(g, 0)], 0);
        let arr = InputArrivals::zero();
        let mut va = ViabilityAnalysis::new(&net, &arr);
        let w = va.viability_witness(&p).unwrap().expect("viable");
        // Side input b must be 1 in the witness (it is early).
        assert!(w[1]);
    }
}
