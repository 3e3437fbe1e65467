//! Static sensitization of paths (Definition 4.11).
//!
//! A path is statically sensitizable if some input cube sets every
//! side-input to a noncontrolling value. Two oracles are provided: a
//! SAT-based decision procedure returning a witness cube, and a BDD-based
//! one returning the full characteristic function of sensitizing cubes.
//!
//! Side-input handling per gate kind: AND/OR/NAND/NOR side-inputs must take
//! the kind's noncontrolling value; NOT/BUF have no side-inputs; XOR/XNOR
//! side-inputs are unconstrained (every value propagates an event, possibly
//! inverted — all values are noncontrolling in the Definition 4.9 sense).
//! MUX gates must be decomposed first ([`kms_netlist::transform::decompose_to_simple`]).

use kms_bdd::{Bdd, BddManager, NodeFunctions};
use kms_netlist::{GateKind, NetlistError, Network, Path};
use kms_proof::{core_conclusion, Certificate, CertificationReport, Session};
use kms_sat::{Lit, NetworkCnf, SatResult, Solver, Stats};

/// The noncontrolling-value constraints of a path: for each constrained
/// side-input connection, the connection itself, its driving gate, and the
/// required (noncontrolling) value.
fn side_constraints(
    net: &Network,
    path: &Path,
) -> Result<Vec<(kms_netlist::ConnRef, kms_netlist::GateId, bool)>, NetlistError> {
    let mut out = Vec::new();
    for (_, conn) in path.side_inputs(net) {
        let kind = net.gate(conn.gate).kind;
        match kind {
            GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor => {
                let nc = kind
                    .noncontrolling_value()
                    .expect("and/or/nand/nor have noncontrolling values");
                out.push((conn, net.pin(conn).src, nc));
            }
            GateKind::Xor | GateKind::Xnor => {} // every value propagates
            GateKind::Not | GateKind::Buf => {
                unreachable!("single-input gates have no side-inputs")
            }
            GateKind::Mux => {
                return Err(NetlistError::NotSimple {
                    gate: conn.gate,
                    kind,
                })
            }
            GateKind::Input | GateKind::Const(_) => {
                unreachable!("sources have no pins")
            }
        }
    }
    Ok(out)
}

/// The static-sensitization constraint set of a path as `(driving gate,
/// required value)` pairs: the path is statically sensitizable iff some
/// input cube makes every listed gate output its required (noncontrolling)
/// value. This is the cacheable abstraction of [`sensitization_cube`] —
/// two paths with the same constraint set (up to gate-function identity)
/// have the same verdict.
///
/// # Errors
///
/// Returns [`NetlistError::NotSimple`] if a MUX gate appears as a fanout
/// of the path.
pub fn static_side_constraints(
    net: &Network,
    path: &Path,
) -> Result<Vec<(kms_netlist::GateId, bool)>, NetlistError> {
    Ok(side_constraints(net, path)?
        .into_iter()
        .map(|(_, src, nc)| (src, nc))
        .collect())
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
    SensitizationOracle::new(net).sensitization_cube(net, path)
}

/// `true` if the path is statically sensitizable (SAT-backed).
///
/// # Errors
///
/// See [`sensitization_cube`].
pub fn is_statically_sensitizable(net: &Network, path: &Path) -> Result<bool, NetlistError> {
    Ok(sensitization_cube(net, path)?.is_some())
}

/// A reusable static-sensitization oracle for a fixed network: the CNF
/// encoding and learnt clauses are shared across path queries, which is
/// the inner loop of the KMS algorithm (every longest path gets checked
/// each iteration).
///
/// The encoding is lazy: the oracle starts empty, and each query adds
/// the not-yet-encoded fanin cones of the side-input drivers it
/// constrains. That is exact. The encoded gates are fanin-closed, so
/// their variables range over exactly the values some circuit evaluation
/// gives them, and every such assignment extends to the rest of the
/// network — leaving it out changes no verdict. Inputs outside every
/// encoded cone read as 0 in witness cubes.
pub struct SensitizationOracle {
    solver: Solver,
    cnf: NetworkCnf,
    /// Follows the solver's proof stream when certifying.
    session: Option<Session>,
}

impl SensitizationOracle {
    /// An oracle for `net`. It answers queries for paths of this network
    /// only; rebuild after any structural change.
    pub fn new(net: &Network) -> Self {
        Self::build(net, false)
    }

    /// As [`SensitizationOracle::new`], with proof logging enabled so
    /// that unsensitizable verdicts can be certified through
    /// [`SensitizationOracle::refute`] with a certification report.
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

    /// The noncontrolling-value assumptions of `constraints`, encoding
    /// the drivers' fanin cones first.
    fn assumptions(
        &mut self,
        net: &Network,
        constraints: &[(kms_netlist::ConnRef, kms_netlist::GateId, bool)],
    ) -> Vec<Lit> {
        self.cnf
            .ensure_cone(net, &mut self.solver, constraints.iter().map(|c| c.1));
        constraints
            .iter()
            .map(|&(_, src, nc)| self.cnf.lit(src, nc))
            .collect()
    }

    /// A sensitizing input vector (in input order) for `path`, or `None`
    /// if it is not statically sensitizable.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NotSimple`] for MUX fanouts.
    pub fn sensitization_cube(
        &mut self,
        net: &Network,
        path: &Path,
    ) -> Result<Option<Vec<bool>>, NetlistError> {
        let constraints = side_constraints(net, path)?;
        let assumptions = self.assumptions(net, &constraints);
        Ok(match self.solver.solve_with(&assumptions) {
            SatResult::Sat => Some(self.cnf.model_inputs(&self.solver, net)),
            SatResult::Unsat => None,
            SatResult::Aborted(r) => unreachable!("unbudgeted solve aborted: {r}"),
        })
    }

    /// `true` if the path is statically sensitizable.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NotSimple`] for MUX fanouts.
    pub fn is_sensitizable(&mut self, net: &Network, path: &Path) -> Result<bool, NetlistError> {
        Ok(self.sensitization_cube(net, path)?.is_some())
    }

    /// Refutes `path`: `None` when it is statically sensitizable,
    /// otherwise the [`Refutation`] — the side-input constraints of the
    /// solver's unsat core, already jointly unsatisfiable on their own.
    /// With `certify`, the refutation is re-derived by the independent
    /// `kms-proof` checker and recorded in the report; its certificate
    /// concludes exactly the core clause, so the digest stands for the
    /// core, not for the whole path. One checker session follows the
    /// oracle's proof stream, so each certificate is checked against only
    /// what the stream gained since the previous one. Certifying requires
    /// an oracle built with [`SensitizationOracle::with_certification`]
    /// (panics otherwise). Sensitizable verdicts carry no certificate —
    /// the witness cube is checkable by simulation.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NotSimple`] for MUX fanouts.
    pub fn refute(
        &mut self,
        net: &Network,
        path: &Path,
        certify: Option<&mut CertificationReport>,
    ) -> Result<Option<Refutation>, NetlistError> {
        let constraints = side_constraints(net, path)?;
        let assumptions = self.assumptions(net, &constraints);
        Ok(match self.solver.solve_with(&assumptions) {
            SatResult::Sat => None,
            SatResult::Unsat => {
                let core = self
                    .core_constraints(&constraints, &assumptions)
                    .map(|&(_, src, nc)| (src, nc))
                    .collect();
                let digest = certify.and_then(|report| {
                    let conclusion = core_conclusion(self.solver.unsat_core());
                    let cert = Certificate::from_solver(&self.solver, &assumptions, &conclusion)
                        .expect("oracle built with certification enabled");
                    let session = self
                        .session
                        .as_mut()
                        .expect("oracle built with certification enabled");
                    session.certify(report, &format!("sens {path}"), &cert)
                });
                Some(Refutation { core, digest })
            }
            SatResult::Aborted(r) => unreachable!("unbudgeted solve aborted: {r}"),
        })
    }

    /// The constraints whose assumption literal is in the last unsat
    /// core. Two constraints sharing a literal both count, which keeps
    /// the result a superset of the core and so still unsatisfiable.
    fn core_constraints<'c>(
        &'c self,
        constraints: &'c [(kms_netlist::ConnRef, kms_netlist::GateId, bool)],
        assumptions: &'c [Lit],
    ) -> impl Iterator<Item = &'c (kms_netlist::ConnRef, kms_netlist::GateId, bool)> {
        let core = self.solver.unsat_core();
        constraints
            .iter()
            .zip(assumptions)
            .filter(move |(_, a)| core.contains(a))
            .map(|(c, _)| c)
    }

    /// Explains *why* a path is false: for an unsensitizable path, returns
    /// the side-input connections whose noncontrolling-value demands are
    /// jointly unsatisfiable (an unsat core over the sensitization
    /// assumptions — usually the two or three reconvergent side-inputs
    /// that fight over a shared signal). Returns `None` if the path is
    /// statically sensitizable.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NotSimple`] for MUX fanouts.
    pub fn explain_conflict(
        &mut self,
        net: &Network,
        path: &Path,
    ) -> Result<Option<Vec<kms_netlist::ConnRef>>, NetlistError> {
        let constraints = side_constraints(net, path)?;
        let assumptions = self.assumptions(net, &constraints);
        match self.solver.solve_with(&assumptions) {
            SatResult::Sat => Ok(None),
            SatResult::Unsat => Ok(Some(
                self.core_constraints(&constraints, &assumptions)
                    .map(|&(conn, _, _)| conn)
                    .collect(),
            )),
            SatResult::Aborted(r) => unreachable!("unbudgeted solve aborted: {r}"),
        }
    }
}

/// Why a path is not statically sensitizable, from
/// [`SensitizationOracle::refute`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Refutation {
    /// The `(driving gate, required value)` constraints of the solver's
    /// unsat core: a subset of the path's [`static_side_constraints`]
    /// that is unsatisfiable on its own, so every constraint set that
    /// contains it is unsatisfiable too.
    pub core: Vec<(kms_netlist::GateId, bool)>,
    /// With certification: the digest of the checked certificate whose
    /// conclusion is the core clause (`None` when certification was off
    /// or the certificate failed to check).
    pub digest: Option<u64>,
}

/// BDD-based characteristic function of all sensitizing input cubes: the
/// conjunction over side-inputs of "side-input function equals its
/// noncontrolling value". The path is statically sensitizable iff the
/// result is not constant false.
///
/// # Errors
///
/// Returns [`NetlistError::NotSimple`] for MUX fanouts, as above.
pub fn sensitization_function(
    net: &Network,
    path: &Path,
    manager: &mut BddManager,
    funcs: &NodeFunctions,
) -> Result<Bdd, NetlistError> {
    let constraints = side_constraints(net, path)?;
    let mut acc = Bdd::TRUE;
    for (_, src, nc) in constraints {
        let f = funcs.of(src);
        let lit = if nc { f } else { manager.not(f) };
        acc = manager.and(acc, lit);
        if acc.is_false() {
            break;
        }
    }
    Ok(acc)
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

    /// A genuinely false path: y = (s AND a) OR (NOT s AND a); the path
    /// through the first AND requires the second AND's output to be 0
    /// while s=…; we build the classic "needs x and x̄" conflict.
    #[test]
    fn false_path_detected() {
        let mut net = Network::new("fp");
        let s = net.add_input("s");
        let a = net.add_input("a");
        let n = net.add_gate(GateKind::Not, &[s], Delay::new(1));
        // g = a AND s AND (NOT s): statically unsensitizable through `a`.
        let g = net.add_gate(GateKind::And, &[a, s, n], Delay::new(1));
        net.add_output("y", g);
        let p = Path::new(vec![ConnRef::new(g, 0)], 0);
        // Side inputs s and NOT s must both be 1: impossible.
        assert!(!is_statically_sensitizable(&net, &p).unwrap());
        assert_eq!(sensitization_cube(&net, &p).unwrap(), None);
    }

    #[test]
    fn oracle_matches_one_shot_queries() {
        let (net, p1, p2) = reconvergent();
        let mut oracle = SensitizationOracle::new(&net);
        for p in [&p1, &p2] {
            let one_shot = sensitization_cube(&net, p).unwrap();
            let cached = oracle.sensitization_cube(&net, p).unwrap();
            assert_eq!(one_shot.is_some(), cached.is_some());
            assert_eq!(oracle.is_sensitizable(&net, p).unwrap(), one_shot.is_some());
            if let Some(cube) = cached {
                assert_eq!(cube.len(), net.inputs().len());
            }
        }
        // Repeated queries on the same oracle stay consistent (learnt
        // clauses must not change verdicts).
        for _ in 0..3 {
            assert!(oracle.is_sensitizable(&net, &p1).unwrap());
        }
    }

    #[test]
    fn bdd_and_sat_agree() {
        let (net, p1, p2) = reconvergent();
        let mut m = BddManager::new(net.inputs().len());
        let funcs = NodeFunctions::build(&net, &mut m);
        for p in [&p1, &p2] {
            let f = sensitization_function(&net, p, &mut m, &funcs).unwrap();
            let sat = is_statically_sensitizable(&net, p).unwrap();
            assert_eq!(!f.is_false(), sat);
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
        let mut m = BddManager::new(2);
        let funcs = NodeFunctions::build(&net, &mut m);
        let f = sensitization_function(&net, &p, &mut m, &funcs).unwrap();
        assert!(f.is_true());
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
