//! Ranked critical-path reports: the K most critical paths of a network
//! with their sensitization/viability verdicts and, for false paths, the
//! conflicting side-inputs (an unsat core over the sensitization demands).
//!
//! This is the analysis a designer runs to answer the Section II question
//! — "is the longest path real, or is the static timing verifier being
//! pessimistic?" — with evidence attached.

use kms_netlist::{ConnRef, GateId, NetlistError, Network, Path};

use crate::paths::ResumablePathEnumerator;
use crate::sensitize::{side_demand, static_side_constraints, SensitizationOracle};
use crate::sta::{InputArrivals, Sta, Time};
use crate::viability::{early_side_constraints, LatenessRule};

/// One row of a [`CriticalPathReport`].
#[derive(Clone, Debug)]
pub struct PathVerdict {
    /// The path.
    pub path: Path,
    /// Its length, including the source's arrival offset.
    pub length: Time,
    /// Statically sensitizable? (Definition 4.11)
    pub statically_sensitizable: bool,
    /// Viable? (Section V.1, under [`LatenessRule::BeforeGateOutput`])
    pub viable: bool,
    /// For false paths: the conflicting side-input connections (a subset
    /// of the sensitization demands that is jointly unsatisfiable).
    pub conflict: Option<Vec<ConnRef>>,
    /// A sensitizing input vector, when one exists.
    pub witness: Option<Vec<bool>>,
}

/// The K-most-critical-paths analysis of a network.
#[derive(Clone, Debug)]
pub struct CriticalPathReport {
    /// Per-path verdicts, longest first.
    pub verdicts: Vec<PathVerdict>,
    /// The topological delay (length of the first row, if any).
    pub topological_delay: Time,
    /// The length of the first statically sensitizable path among the
    /// examined rows, if any surfaced within `k`.
    pub first_sensitizable: Option<Time>,
}

/// Builds the report over the `k` longest paths. One
/// [`SensitizationOracle`] answers both conditions of every row.
///
/// # Errors
///
/// Returns [`NetlistError::NotSimple`] on MUX-bearing networks (decompose
/// first).
pub fn critical_paths(
    net: &Network,
    arrivals: &InputArrivals,
    k: usize,
) -> Result<CriticalPathReport, NetlistError> {
    let sta = Sta::run(net, arrivals);
    let mut walk = ResumablePathEnumerator::new(net, &sta);
    let mut oracle = SensitizationOracle::new(net);
    let mut verdicts = Vec::new();
    let mut first_sensitizable = None;
    for (path, length) in std::iter::from_fn(|| walk.next_path(net, &sta)).take(k) {
        let (witness, conflict) =
            match oracle.query(net, &static_side_constraints(net, &path)?, None) {
                Ok(cube) => (Some(cube), None),
                Err(r) => (None, Some(conflict_conns(net, &path, &r.core)?)),
            };
        let statically_sensitizable = witness.is_some();
        if statically_sensitizable && first_sensitizable.is_none() {
            first_sensitizable = Some(length);
        }
        // Static sensitization implies viability: the early side-inputs
        // are a subset of all of them.
        let viable = statically_sensitizable
            || oracle
                .query(
                    net,
                    &early_side_constraints(net, &sta, &path, LatenessRule::default())?,
                    None,
                )
                .is_ok();
        verdicts.push(PathVerdict {
            path,
            length,
            statically_sensitizable,
            viable,
            conflict,
            witness,
        });
    }
    Ok(CriticalPathReport {
        verdicts,
        topological_delay: sta.delay(),
        first_sensitizable,
    })
}

/// The side-input connections of `path` whose demands are in `core`.
fn conflict_conns(
    net: &Network,
    path: &Path,
    core: &[(GateId, bool)],
) -> Result<Vec<ConnRef>, NetlistError> {
    let mut out = Vec::new();
    for (_, conn) in path.side_inputs(net) {
        if side_demand(net, conn)?.is_some_and(|nc| core.contains(&(net.pin(conn).src, nc))) {
            out.push(conn);
        }
    }
    Ok(out)
}

impl CriticalPathReport {
    /// Renders the report as an aligned text table.
    pub fn render(&self, net: &Network) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:>4} {:>7} {:>10} {:>7}  path",
            "#", "length", "stat.sens", "viable"
        );
        for (i, v) in self.verdicts.iter().enumerate() {
            let _ = writeln!(
                s,
                "{:>4} {:>7} {:>10} {:>7}  {}",
                i + 1,
                v.length,
                if v.statically_sensitizable {
                    "yes"
                } else {
                    "no"
                },
                if v.viable { "yes" } else { "no" },
                v.path.describe(net)
            );
            if let Some(conflict) = &v.conflict {
                let names: Vec<String> = conflict.iter().map(|c| c.to_string()).collect();
                let _ = writeln!(s, "      false because: {}", names.join(" ∧ "));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kms_netlist::{Delay, GateKind, Network};

    /// g = AND(slow-chain(s), a, NOT a): the longest path is false with a
    /// two-literal conflict (a and ā).
    fn false_path_net() -> Network {
        let mut net = Network::new("fp");
        let a = net.add_input("a");
        let s = net.add_input("s");
        let b1 = net.add_gate(GateKind::Buf, &[s], Delay::new(1));
        let b2 = net.add_gate(GateKind::Buf, &[b1], Delay::new(1));
        let na = net.add_gate(GateKind::Not, &[a], Delay::ZERO);
        let g = net.add_gate(GateKind::And, &[b2, a, na], Delay::new(1));
        net.add_output("y", g);
        net
    }

    #[test]
    fn report_ranks_and_explains() {
        let net = false_path_net();
        let r = critical_paths(&net, &InputArrivals::zero(), 8).unwrap();
        assert_eq!(r.topological_delay, 3);
        assert!(!r.verdicts.is_empty());
        // Longest path first; it is false with a nonempty conflict core.
        let top = &r.verdicts[0];
        assert_eq!(top.length, 3);
        assert!(!top.statically_sensitizable);
        assert!(!top.viable);
        let conflict = top.conflict.as_ref().expect("conflict explained");
        assert!(!conflict.is_empty() && conflict.len() <= 2);
        // Lengths are non-increasing.
        for w in r.verdicts.windows(2) {
            assert!(w[0].length >= w[1].length);
        }
        // A sensitizable path eventually appears (the short a-paths).
        assert!(r.first_sensitizable.is_some());
        // Witnesses are real sensitizing cubes (checked structurally in
        // the sensitize module; here just presence/consistency).
        for v in &r.verdicts {
            assert_eq!(v.statically_sensitizable, v.witness.is_some());
        }
        let text = r.render(&net);
        assert!(text.contains("false because"));
    }

    #[test]
    fn conflict_core_is_genuinely_unsatisfiable() {
        // The reported conflicting side-inputs alone must be contradictory:
        // re-check by demanding just those noncontrolling values.
        let net = false_path_net();
        let r = critical_paths(&net, &InputArrivals::zero(), 1).unwrap();
        let top = &r.verdicts[0];
        let conflict = top.conflict.as_ref().unwrap();
        // The conflicting demands name `a` and `NOT a` side inputs of g.
        let sources: Vec<_> = conflict.iter().map(|&c| net.pin(c).src).collect();
        let kinds: Vec<_> = sources.iter().map(|&s| net.gate(s).kind).collect();
        assert!(
            kinds.contains(&GateKind::Input) || kinds.contains(&GateKind::Not),
            "{kinds:?}"
        );
    }
}
