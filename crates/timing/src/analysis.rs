//! The paper's *computed delay*: the length of the longest path satisfying
//! a chosen sensitization condition (Section V).
//!
//! Paths are enumerated longest-first; the first path passing the condition
//! fixes the delay. Static timing corresponds to
//! [`PathCondition::Topological`]; [`PathCondition::Viability`] is the
//! paper's model (tightest safe bound); static sensitization is the check
//! the implementation in Section VIII actually used, at the risk of
//! optimism on non-statically-sensitizable-but-viable paths. Both are one
//! walk with one [`SensitizationOracle`]: they differ only in the
//! constraint list a path yields, every side input for static
//! sensitization and the early ones for viability.

use kms_netlist::{GateId, NetlistError, Network, Path};

use crate::paths::ResumablePathEnumerator;
use crate::sensitize::{static_side_constraints, SensitizationOracle};
use crate::sta::{InputArrivals, Sta, Time};
use crate::viability::{early_side_constraints, LatenessRule};

/// Which paths are considered able to determine the circuit delay.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PathCondition {
    /// Every path counts: the static-timing-verifier model (Section II).
    Topological,
    /// Longest *statically sensitizable* path (Definition 4.11). May be
    /// optimistic: unsensitizable paths can still contribute to delay.
    StaticSensitization,
    /// Longest *viable* path (Section V.1) — the paper's computed delay.
    #[default]
    Viability,
}

/// The result of a computed-delay query.
#[derive(Clone, Debug)]
pub struct DelayReport {
    /// The computed delay under the requested condition.
    pub delay: Time,
    /// The path that realizes it, with a witness input vector (absent for
    /// [`PathCondition::Topological`]).
    pub witness: Option<(Path, Vec<bool>)>,
    /// The topological (static-timing) delay, always an upper bound.
    pub topological: Time,
    /// Number of paths examined before the verdict.
    pub paths_examined: usize,
    /// `true` if the effort cap stopped enumeration and `delay` fell back
    /// to the safe topological bound.
    pub truncated: bool,
}

/// Computes the circuit delay under `condition`.
///
/// `effort_cap` bounds the number of path-enumeration steps; if exhausted,
/// the report falls back to the topological delay (safe) and sets
/// [`DelayReport::truncated`].
///
/// # Errors
///
/// Returns [`NetlistError::NotSimple`] if a sensitization condition is
/// requested on a network with MUX gates (decompose first).
pub fn computed_delay(
    net: &Network,
    arrivals: &InputArrivals,
    condition: PathCondition,
    effort_cap: usize,
) -> Result<DelayReport, NetlistError> {
    match condition {
        PathCondition::Topological => {
            let topological = Sta::run(net, arrivals).delay();
            Ok(DelayReport {
                delay: topological,
                witness: None,
                topological,
                paths_examined: 0,
                truncated: false,
            })
        }
        PathCondition::StaticSensitization => {
            longest_satisfying(net, arrivals, effort_cap, |_, path| {
                static_side_constraints(net, path)
            })
        }
        PathCondition::Viability => {
            computed_delay_with_rule(net, arrivals, LatenessRule::default(), effort_cap)
        }
    }
}

/// Computes the viability-based delay with a non-default lateness rule
/// (ablation support).
///
/// # Errors
///
/// As [`computed_delay`].
pub fn computed_delay_with_rule(
    net: &Network,
    arrivals: &InputArrivals,
    rule: LatenessRule,
    effort_cap: usize,
) -> Result<DelayReport, NetlistError> {
    longest_satisfying(net, arrivals, effort_cap, |sta, path| {
        early_side_constraints(net, sta, path, rule)
    })
}

/// Walks the paths of `net` longest first and stops at the first whose
/// `constraints` one [`SensitizationOracle`] finds satisfiable. The
/// enumerator yields no path from a source that never events, so every
/// path it offers launches one.
fn longest_satisfying(
    net: &Network,
    arrivals: &InputArrivals,
    effort_cap: usize,
    constraints: impl Fn(&Sta, &Path) -> Result<Vec<(GateId, bool)>, NetlistError>,
) -> Result<DelayReport, NetlistError> {
    let sta = Sta::run(net, arrivals);
    let topological = sta.delay();
    let mut walk = ResumablePathEnumerator::new(net, &sta).with_effort_cap(effort_cap);
    let mut oracle = SensitizationOracle::new(net);
    let mut examined = 0usize;
    while let Some((path, len)) = walk.next_path(net, &sta) {
        examined += 1;
        if let Ok(cube) = oracle.query(net, &constraints(&sta, &path)?, None) {
            return Ok(DelayReport {
                delay: len,
                witness: Some((path, cube)),
                topological,
                paths_examined: examined,
                truncated: false,
            });
        }
    }
    // A truncated walk falls back to the safe static bound; a finished
    // one found no satisfying path (e.g. constant outputs): delay 0.
    let truncated = walk.truncated();
    Ok(DelayReport {
        delay: if truncated { topological } else { 0 },
        witness: None,
        topological,
        paths_examined: examined,
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kms_netlist::{Delay, GateKind, Network};

    /// g = AND(a, s, NOT s) with a slow inverter: the longest path (through
    /// the inverter) is fine, but under a *fast* inverter the longest path
    /// through `a` is statically false yet viable-or-not depends on timing.
    #[test]
    fn conditions_order_correctly() {
        // Build a circuit whose longest path is statically unsensitizable:
        // slow = 3-deep buffer chain from a; g = AND(slow, a, NOT a fast).
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let s = net.add_input("s");
        let b1 = net.add_gate(GateKind::Buf, &[s], Delay::new(1));
        let b2 = net.add_gate(GateKind::Buf, &[b1], Delay::new(1));
        let b3 = net.add_gate(GateKind::Buf, &[b2], Delay::new(1));
        let na = net.add_gate(GateKind::Not, &[a], Delay::ZERO);
        // Longest path: s→b1→b2→b3→g (length 4). Side inputs of g on that
        // path: a and NOT a, both early (settle at 0 < 4) → conflict: the
        // longest path is neither statically sensitizable nor viable.
        let g = net.add_gate(GateKind::And, &[b3, a, na], Delay::new(1));
        net.add_output("y", g);

        let arr = InputArrivals::zero();
        let topo = computed_delay(&net, &arr, PathCondition::Topological, 1 << 20).unwrap();
        assert_eq!(topo.delay, 4);
        let stat = computed_delay(&net, &arr, PathCondition::StaticSensitization, 1 << 20).unwrap();
        let via = computed_delay(&net, &arr, PathCondition::Viability, 1 << 20).unwrap();
        // The longest path is excluded by both conditions; the next paths
        // (a→g, a→na→g, length 1) have side-input b3 *late* (settles at 3
        // ≥ τ = 1): viable. Statically they demand b3=1 ∧ a-conflict…
        // a→g needs side na=1 and b3=1: a=0, s=1 — satisfiable.
        assert_eq!(via.delay, 1);
        assert_eq!(stat.delay, 1);
        assert!(via.delay <= topo.delay);
        assert!(stat.delay <= via.delay);
        let (p, cube) = via.witness.expect("witness present");
        assert!(p.validate(&net));
        assert_eq!(cube.len(), 2);
        assert!(via.paths_examined >= 2);
    }

    #[test]
    fn truncation_falls_back_to_topological() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let n = net.add_gate(GateKind::Not, &[a], Delay::new(1));
        let g = net.add_gate(GateKind::And, &[a, n], Delay::new(1));
        net.add_output("y", g);
        let r = computed_delay(&net, &InputArrivals::zero(), PathCondition::Viability, 1).unwrap();
        assert!(r.truncated);
        assert_eq!(r.delay, r.topological);
    }

    #[test]
    fn constant_network_has_zero_delay() {
        let mut net = Network::new("c");
        net.add_input("a");
        let c = net.add_const(true);
        net.add_output("y", c);
        let r =
            computed_delay(&net, &InputArrivals::zero(), PathCondition::Viability, 100).unwrap();
        assert_eq!(r.delay, 0);
        assert!(!r.truncated);
    }

    #[test]
    fn rule_variant_matches_default_on_simple_nets() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g1 = net.add_gate(GateKind::And, &[a, b], Delay::new(1));
        let g2 = net.add_gate(GateKind::Or, &[g1, a], Delay::new(1));
        net.add_output("y", g2);
        let arr = InputArrivals::zero();
        let d1 = computed_delay(&net, &arr, PathCondition::Viability, 1000).unwrap();
        let d2 = computed_delay_with_rule(&net, &arr, LatenessRule::BeforeGateInput, 1000).unwrap();
        assert_eq!(d1.delay, d2.delay);
    }
}
