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

use kms_netlist::{ConnRef, GateId, NetlistError, Network, Path};

use crate::sensitize::side_demand;
use crate::sta::{Sta, NEVER};

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
/// side-inputs, in path order. Late side-inputs are smoothed (omitted),
/// XOR/XNOR side-inputs are unconstrained. The path is viable iff some
/// input cube satisfies every listed constraint, which
/// [`crate::SensitizationOracle::query`] decides.
///
/// The caller must ensure the path's source actually launches events
/// (arrival ≠ [`NEVER`]); a never-eventing source makes the path
/// trivially non-viable regardless of constraints. The path enumerators
/// yield no such path.
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
    // The event's time at the output of the gate before `gi`, summed along
    // the path as it goes, so each key costs one pass over the path.
    let mut reached = source_arrival;
    for &c in path.conns() {
        let gate = net.gate(c.gate);
        let at_input = reached + net.pin(c).wire_delay.units();
        let at_output = at_input + gate.delay.units();
        let tau = match rule {
            LatenessRule::BeforeGateOutput => at_output,
            LatenessRule::BeforeGateInput => at_input,
        };
        reached = at_output;
        for pin in (0..gate.fanin()).filter(|&pin| pin != c.pin) {
            let conn = ConnRef::new(c.gate, pin);
            let Some(nc) = side_demand(net, conn)? else {
                continue; // XOR/XNOR: always propagate
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
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::PathEnumerator;
    use crate::sensitize::{is_statically_sensitizable, SensitizationOracle};
    use crate::sta::InputArrivals;
    use kms_gen::random::{random_network, RandomNetworkSpec};
    use kms_netlist::{Delay, GateKind};
    use proptest::prelude::*;

    /// A witness cube under which `path` is viable (zero arrivals), or
    /// `None`: one oracle query over the early side-input constraints.
    fn viability_cube(net: &Network, path: &Path, rule: LatenessRule) -> Option<Vec<bool>> {
        let sta = Sta::run(net, &InputArrivals::zero());
        let constraints = early_side_constraints(net, &sta, path, rule).unwrap();
        SensitizationOracle::new(net)
            .query(net, &constraints, None)
            .ok()
    }

    fn is_viable(net: &Network, path: &Path, rule: LatenessRule) -> bool {
        viability_cube(net, path, rule).is_some()
    }

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
        let all_paths: Vec<Path> = crate::paths::PathEnumerator::new(&net, &arr)
            .map(|(p, _)| p)
            .collect();
        assert!(!all_paths.is_empty());
        for p in &all_paths {
            if is_statically_sensitizable(&net, p).unwrap() {
                assert!(
                    is_viable(&net, p, LatenessRule::default()),
                    "stat-sens path must be viable"
                );
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
        assert!(
            is_viable(&net, &p, LatenessRule::default()),
            "late side-input must be smoothed"
        );

        // Fast inverter: n settles at 0 < 1 → early → conflict stands.
        let (net2, p2) = conflict_fixture(Delay::ZERO, Delay::new(1));
        assert!(!is_statically_sensitizable(&net2, &p2).unwrap());
        assert!(!is_viable(&net2, &p2, LatenessRule::default()));
    }

    #[test]
    fn lateness_rules_differ_on_boundary() {
        // n settles at 1, strictly between the event's gate-input time (0)
        // and gate-output time (2): early under the paper's output rule
        // (conflict stands), late under the input rule (smoothed).
        let (net, p) = conflict_fixture(Delay::new(1), Delay::new(2));
        assert!(!is_viable(&net, &p, LatenessRule::BeforeGateOutput));
        assert!(is_viable(&net, &p, LatenessRule::BeforeGateInput));
    }

    #[test]
    fn constant_side_inputs_always_early() {
        let mut net = Network::new("c");
        let a = net.add_input("a");
        let c0 = net.add_const(false);
        let g = net.add_gate(GateKind::And, &[a, c0], Delay::new(1));
        net.add_output("y", g);
        let p = Path::new(vec![ConnRef::new(g, 0)], 0);
        assert!(
            !is_viable(&net, &p, LatenessRule::default()),
            "controlling constant blocks"
        );
    }

    /// The witness cube, simulated, drives every early side input of the
    /// path to its noncontrolling value.
    #[test]
    fn witness_is_consistent() {
        let (net, p) = conflict_fixture(Delay::new(5), Delay::new(1));
        let sta = Sta::run(&net, &InputArrivals::zero());
        let early = early_side_constraints(&net, &sta, &p, LatenessRule::default()).unwrap();
        assert_eq!(early.len(), 1, "the slow inverter is smoothed");
        let cube = viability_cube(&net, &p, LatenessRule::default()).expect("viable");
        assert_eq!(cube.len(), net.inputs().len());
        let words: Vec<u64> = cube.iter().map(|&b| if b { !0 } else { 0 }).collect();
        let values = net.node_words(&words);
        for (src, nc) in early {
            assert_eq!(values[src.index()] & 1 != 0, nc, "side input {src}");
        }
    }

    /// The constraints as the per-index definition gives them: each side
    /// input's event time summed from the path's source with
    /// [`Path::event_time`].
    fn early_side_constraints_by_index(
        net: &Network,
        sta: &Sta,
        path: &Path,
        rule: LatenessRule,
    ) -> Vec<(GateId, bool)> {
        let source_arrival = sta.arrival(path.source(net));
        let mut out = Vec::new();
        for (i, conn) in path.side_inputs(net) {
            let Some(nc) = side_demand(net, conn).unwrap() else {
                continue;
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
                NEVER => NEVER,
                a => a + pin.wire_delay.units(),
            };
            if settle == NEVER || settle < tau {
                out.push((pin.src, nc));
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// On random networks with gate delays 1–3, wire delays 0–2,
        /// staggered input arrivals and a constant side input, the running
        /// sum gives every path the per-index constraints under both rules.
        #[test]
        fn running_sum_matches_per_index_event_times(seed in 1u64..1_000_000) {
            let spec = RandomNetworkSpec {
                inputs: 6,
                gates: 30,
                outputs: 3,
                max_fanin: 3,
                max_delay: 3,
            };
            let mut net = random_network(seed, spec);
            let one = net.add_const(true);
            let ids: Vec<GateId> = net.gate_ids().collect();
            for (k, &id) in ids.iter().enumerate() {
                let pins = net.gate(id).pins.len();
                for (p, pin) in net.gate_mut(id).pins.iter_mut().enumerate() {
                    pin.wire_delay = Delay::new(((seed as usize + 3 * k + p) % 3) as i64);
                }
                if net.gate(id).kind == GateKind::And && pins > 1 && k % 4 == 0 {
                    net.gate_mut(id).pins[pins - 1].src = one;
                }
            }
            let mut arrivals = InputArrivals::zero();
            for (i, &input) in net.inputs().iter().enumerate() {
                arrivals.set(input, ((seed as usize + i) % 4) as i64);
            }
            let sta = Sta::run(&net, &arrivals);
            let mut paths = 0;
            for (path, _) in PathEnumerator::new(&net, &arrivals).take(40) {
                for rule in [LatenessRule::BeforeGateOutput, LatenessRule::BeforeGateInput] {
                    prop_assert_eq!(
                        early_side_constraints(&net, &sta, &path, rule).unwrap(),
                        early_side_constraints_by_index(&net, &sta, &path, rule)
                    );
                }
                paths += 1;
            }
            prop_assert!(paths > 0);
        }
    }
}
