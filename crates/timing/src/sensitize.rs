//! One SAT oracle for both path conditions of the paper.
//!
//! Static sensitization (Definition 4.11) and viability (Section V.1,
//! after McGeer–Brayton) ask the same question of a path: can some input
//! cube make each listed side-input driver output its noncontrolling
//! value? Static sensitization lists every side-input
//! ([`static_side_constraints`]); viability lists only the *early* ones
//! and smooths the late ones away ([`crate::early_side_constraints`]).
//! [`SensitizationOracle::query`] answers either list with a witness cube
//! or a [`Refutation`] carrying the unsat core and, when certifying, the
//! digest of its checked proof.
//!
//! Side-input handling per gate kind: AND/OR/NAND/NOR side-inputs must take
//! the kind's noncontrolling value; NOT/BUF have no side-inputs; XOR/XNOR
//! side-inputs are unconstrained (every value propagates an event, possibly
//! inverted — all values are noncontrolling in the Definition 4.9 sense).
//! MUX gates must be decomposed first ([`kms_netlist::transform::decompose_to_simple`]).

use kms_netlist::{ConnRef, GateId, GateKind, NetlistError, Network, Path};
use kms_proof::{core_conclusion, Certificate, CertificationReport, Session};
use kms_sat::{Lit, NetworkCnf, SatResult, Solver, Stats};

/// The value side-input `conn` must carry for an event to pass its gate:
/// the kind's noncontrolling value, or `None` when every value passes
/// (XOR/XNOR).
///
/// # Errors
///
/// Returns [`NetlistError::NotSimple`] when the gate is a MUX.
pub(crate) fn side_demand(net: &Network, conn: ConnRef) -> Result<Option<bool>, NetlistError> {
    let kind = net.gate(conn.gate).kind;
    match kind {
        GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor => {
            Ok(kind.noncontrolling_value())
        }
        GateKind::Xor | GateKind::Xnor => Ok(None),
        GateKind::Mux => Err(NetlistError::NotSimple {
            gate: conn.gate,
            kind,
        }),
        GateKind::Not | GateKind::Buf | GateKind::Input | GateKind::Const(_) => {
            unreachable!("sources and single-input gates have no side-inputs")
        }
    }
}

/// The static-sensitization constraint set of a path as `(driving gate,
/// required value)` pairs in path order: the path is statically
/// sensitizable iff some input cube makes every listed gate output its
/// required (noncontrolling) value. Two paths with the same constraint
/// set (up to gate-function identity) have the same verdict, which is
/// what makes it cacheable.
///
/// # Errors
///
/// Returns [`NetlistError::NotSimple`] if a MUX gate appears as a fanout
/// of the path.
pub fn static_side_constraints(
    net: &Network,
    path: &Path,
) -> Result<Vec<(GateId, bool)>, NetlistError> {
    // One side input per gate for the common 2-input gates.
    let mut out = Vec::with_capacity(path.len());
    for (_, conn) in path.side_inputs(net) {
        if let Some(nc) = side_demand(net, conn)? {
            out.push((net.pin(conn).src, nc));
        }
    }
    Ok(out)
}

/// SAT-based static sensitization check. Returns a sensitizing input
/// vector (in input order) if one exists, `None` if the path is not
/// statically sensitizable. A one-query [`SensitizationOracle`].
///
/// # Errors
///
/// Returns [`NetlistError::NotSimple`] if a MUX gate appears as a fanout of
/// the path (decompose the network first).
///
/// # Panics
///
/// Panics if the path does not validate against `net`.
pub fn sensitization_cube(net: &Network, path: &Path) -> Result<Option<Vec<bool>>, NetlistError> {
    assert!(path.validate(net), "path does not validate");
    let constraints = static_side_constraints(net, path)?;
    Ok(SensitizationOracle::new(net)
        .query(net, &constraints, None)
        .ok())
}

/// `true` if the path is statically sensitizable (SAT-backed).
///
/// # Errors
///
/// See [`sensitization_cube`].
pub fn is_statically_sensitizable(net: &Network, path: &Path) -> Result<bool, NetlistError> {
    Ok(sensitization_cube(net, path)?.is_some())
}

/// A reusable path-condition oracle for a fixed network: the CNF
/// encoding and learnt clauses are shared across queries, which is the
/// inner loop of the KMS algorithm (every longest path gets checked each
/// iteration) and of the computed delay.
///
/// The encoding is lazy: the oracle starts empty, and each query adds
/// the not-yet-encoded fanin cones of the gates it constrains. That is
/// exact. The encoded gates are fanin-closed, so their variables range
/// over exactly the values some circuit evaluation gives them, and every
/// such assignment extends to the rest of the network — leaving it out
/// changes no verdict. Inputs outside every encoded cone read as 0 in
/// witness cubes.
pub struct SensitizationOracle {
    solver: Solver,
    cnf: NetworkCnf,
    /// Follows the solver's proof stream when certifying.
    session: Option<Session>,
}

impl SensitizationOracle {
    /// An oracle for `net`. It answers queries for gates of this network
    /// only; rebuild after any structural change.
    pub fn new(net: &Network) -> Self {
        Self::build(net, false)
    }

    /// As [`SensitizationOracle::new`], with proof logging enabled so
    /// that [`SensitizationOracle::query`] can certify its refutations.
    pub fn with_certification(net: &Network) -> Self {
        Self::build(net, true)
    }

    fn build(net: &Network, certify: bool) -> Self {
        let mut solver = Solver::new();
        if certify {
            solver.enable_proof();
        }
        SensitizationOracle {
            solver,
            cnf: NetworkCnf::new(net),
            session: certify.then(Session::new),
        }
    }

    /// The underlying solver's search counters.
    pub fn solver_stats(&self) -> Stats {
        self.solver.stats()
    }

    /// Is the conjunction of `constraints` — each `(gate, value)` demands
    /// that the gate output `value` — satisfiable? `Ok` carries a witness
    /// input vector (in input order); the witness is checkable by
    /// simulation, so it carries no certificate. `Err` carries the
    /// [`Refutation`]: the constraints of the solver's unsat core,
    /// already jointly unsatisfiable on their own.
    ///
    /// With `certify`, the refutation is re-derived by the independent
    /// `kms-proof` checker and recorded in the report under the given
    /// label; its certificate concludes exactly the core clause, so the
    /// digest stands for the core, not for the whole list. One checker
    /// session follows the oracle's proof stream, so each certificate is
    /// checked against only what the stream gained since the previous
    /// one. Certifying requires an oracle built with
    /// [`SensitizationOracle::with_certification`] (panics otherwise).
    ///
    /// The constraints become solver assumptions in the order given.
    pub fn query(
        &mut self,
        net: &Network,
        constraints: &[(GateId, bool)],
        certify: Option<(&mut CertificationReport, String)>,
    ) -> Result<Vec<bool>, Refutation> {
        self.cnf
            .ensure_cone(net, &mut self.solver, constraints.iter().map(|c| c.0));
        let assumptions: Vec<Lit> = constraints
            .iter()
            .map(|&(gate, value)| self.cnf.lit(gate, value))
            .collect();
        match self.solver.solve_with(&assumptions) {
            SatResult::Sat => Ok(self.cnf.model_inputs(&self.solver, net)),
            SatResult::Unsat => {
                // Two constraints sharing a literal both count, which keeps
                // the result a superset of the core and so still
                // unsatisfiable.
                let core_lits = self.solver.unsat_core();
                let core = constraints
                    .iter()
                    .zip(&assumptions)
                    .filter(|(_, a)| core_lits.contains(a))
                    .map(|(&c, _)| c)
                    .collect();
                let digest = certify.and_then(|(report, label)| {
                    let conclusion = core_conclusion(core_lits);
                    let cert = Certificate::from_solver(&self.solver, &assumptions, &conclusion)
                        .expect("oracle built with certification enabled");
                    let session = self
                        .session
                        .as_mut()
                        .expect("oracle built with certification enabled");
                    session.certify(report, &label, &cert)
                });
                Err(Refutation { core, digest })
            }
            SatResult::Aborted(r) => unreachable!("unbudgeted solve aborted: {r}"),
        }
    }
}

/// Why a constraint list is unsatisfiable, from
/// [`SensitizationOracle::query`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Refutation {
    /// The `(driving gate, required value)` constraints of the solver's
    /// unsat core: a subset of the queried list that is unsatisfiable on
    /// its own, so every constraint set that contains it is
    /// unsatisfiable too.
    pub core: Vec<(GateId, bool)>,
    /// With certification: the digest of the checked certificate whose
    /// conclusion is the core clause (`None` when certification was off
    /// or the certificate failed to check).
    pub digest: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use kms_netlist::{ConnRef, Delay, GateKind, Network, Path};

    /// The textbook false-path fixture: y = a·s + ā·s̄-flavoured
    /// reconvergence where the long path needs s and s̄ at once.
    ///
    /// s ── not ── n ──┐
    /// s ──────────────┼─ g1(and: s, a) ──┐
    /// a ──────────────┘                  ├─ g3(or) ── y
    /// b ── g2(and: n, b) ────────────────┘
    fn reconvergent() -> (Network, Path, Path) {
        let mut net = Network::new("r");
        let s = net.add_input("s");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let n = net.add_gate(GateKind::Not, &[s], Delay::new(1));
        let g1 = net.add_gate(GateKind::And, &[s, a], Delay::new(1));
        let g2 = net.add_gate(GateKind::And, &[n, b], Delay::new(1));
        let g3 = net.add_gate(GateKind::Or, &[g1, g2], Delay::new(1));
        net.add_output("y", g3);
        // Sensitizable path: s -> g1 -> g3 needs a=1 (side of g1) and
        // g2=0 (side of g3): satisfiable.
        let p_ok = Path::new(vec![ConnRef::new(g1, 0), ConnRef::new(g3, 0)], 0);
        // Both AND gates' outputs cannot be noncontrolled… build a false
        // path: s -> n -> g2 -> g3 requires b=1 (side of g2) and g1=0
        // (side of g3): satisfiable with s=0. For a genuinely false path
        // we need a conflict; see `false_path` below.
        let p2 = Path::new(
            vec![ConnRef::new(n, 0), ConnRef::new(g2, 0), ConnRef::new(g3, 1)],
            0,
        );
        (net, p_ok, p2)
    }

    #[test]
    fn sensitizable_paths_get_witnesses() {
        let (net, p1, p2) = reconvergent();
        for p in [&p1, &p2] {
            let cube = sensitization_cube(&net, p).unwrap().expect("sensitizable");
            // Verify the witness: all constrained side inputs noncontrolling.
            for (_, conn) in p.side_inputs(&net) {
                let kind = net.gate(conn.gate).kind;
                if let Some(nc) = kind.noncontrolling_value() {
                    let vals = net.node_words(
                        &cube
                            .iter()
                            .map(|&b| if b { !0 } else { 0 })
                            .collect::<Vec<_>>(),
                    );
                    let got = vals[net.pin(conn).src.index()] & 1 != 0;
                    assert_eq!(got, nc, "side input at {conn} must be noncontrolling");
                }
            }
        }
    }

    /// `a AND s AND (NOT s)`: the path through `a` needs `s` and `s̄`.
    fn false_path() -> (Network, Path) {
        let mut net = Network::new("fp");
        let s = net.add_input("s");
        let a = net.add_input("a");
        let n = net.add_gate(GateKind::Not, &[s], Delay::new(1));
        let g = net.add_gate(GateKind::And, &[a, s, n], Delay::new(1));
        net.add_output("y", g);
        (net, Path::new(vec![ConnRef::new(g, 0)], 0))
    }

    #[test]
    fn false_path_detected() {
        let (net, p) = false_path();
        // Side inputs s and NOT s must both be 1: impossible.
        assert!(!is_statically_sensitizable(&net, &p).unwrap());
        assert_eq!(sensitization_cube(&net, &p).unwrap(), None);
    }

    /// A certified refutation names the two fighting side inputs and
    /// carries the digest of a checked proof.
    #[test]
    fn refutation_core_is_certified() {
        let (net, p) = false_path();
        let constraints = static_side_constraints(&net, &p).unwrap();
        let mut report = CertificationReport::default();
        let mut oracle = SensitizationOracle::with_certification(&net);
        let r = oracle
            .query(&net, &constraints, Some((&mut report, format!("sens {p}"))))
            .expect_err("s and NOT s fight");
        assert_eq!(r.core, constraints);
        assert!(r.digest.is_some());
        assert_eq!((report.proofs_emitted, report.proofs_checked), (1, 1));
        // Without a ledger the same oracle refutes without a digest.
        let again = oracle.query(&net, &constraints, None).unwrap_err();
        assert_eq!((again.core, again.digest), (constraints, None));
    }

    #[test]
    fn oracle_matches_one_shot_queries() {
        let (net, p1, p2) = reconvergent();
        let mut oracle = SensitizationOracle::new(&net);
        for p in [&p1, &p2] {
            let one_shot = sensitization_cube(&net, p).unwrap();
            let constraints = static_side_constraints(&net, p).unwrap();
            let cached = oracle.query(&net, &constraints, None).ok();
            assert_eq!(one_shot.is_some(), cached.is_some());
            if let Some(cube) = cached {
                assert_eq!(cube.len(), net.inputs().len());
            }
        }
        // Repeated queries on the same oracle stay consistent (learnt
        // clauses must not change verdicts).
        let constraints = static_side_constraints(&net, &p1).unwrap();
        for _ in 0..3 {
            assert!(oracle.query(&net, &constraints, None).is_ok());
        }
    }

    #[test]
    fn xor_side_inputs_unconstrained() {
        let mut net = Network::new("x");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate(GateKind::Xor, &[a, b], Delay::new(2));
        net.add_output("y", g);
        let p = Path::new(vec![ConnRef::new(g, 0)], 0);
        // XOR always propagates: trivially sensitizable.
        assert!(is_statically_sensitizable(&net, &p).unwrap());
        assert!(static_side_constraints(&net, &p).unwrap().is_empty());
    }

    #[test]
    fn mux_requires_decomposition() {
        let mut net = Network::new("m");
        let s = net.add_input("s");
        let d0 = net.add_input("d0");
        let d1 = net.add_input("d1");
        let g = net.add_gate(GateKind::Mux, &[s, d0, d1], Delay::new(2));
        net.add_output("y", g);
        let p = Path::new(vec![ConnRef::new(g, 1)], 0);
        assert!(matches!(
            sensitization_cube(&net, &p),
            Err(NetlistError::NotSimple { .. })
        ));
    }

    #[test]
    fn constant_controlling_side_input_blocks() {
        let mut net = Network::new("c");
        let a = net.add_input("a");
        let c0 = net.add_const(false);
        let g = net.add_gate(GateKind::And, &[a, c0], Delay::new(1));
        net.add_output("y", g);
        let p = Path::new(vec![ConnRef::new(g, 0)], 0);
        assert!(!is_statically_sensitizable(&net, &p).unwrap());
    }
}
