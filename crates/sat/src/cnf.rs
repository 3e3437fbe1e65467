//! Tseitin encoding of [`Network`]s into CNF.
//!
//! Every live gate receives a solver variable; the characteristic clauses of
//! each gate kind constrain it to equal its function of the fanin variables.
//! The encoding is linear in circuit size and is shared by the SAT-based
//! ATPG, the static-sensitization oracle and the equivalence-checking miter,
//! which all emit gate clauses through [`encode_gate`].

use kms_netlist::{GateId, GateKind, Network};

use crate::lit::{Lit, Var};
use crate::solver::Solver;

/// A map from gate ids to solver variables (positive literal = gate
/// output is 1), grown gate by gate: [`NetworkCnf::encode`] covers the
/// whole network at once, [`NetworkCnf::ensure_cone`] only the fanin
/// cones a query needs. Either way every encoded gate's fanin is encoded
/// too, so the encoded gates' variables take exactly the values of some
/// circuit evaluation and the rest of the network never constrains them.
#[derive(Clone, Debug)]
pub struct NetworkCnf {
    vars: Vec<Option<Var>>,
    /// Gates mid-expansion in [`NetworkCnf::ensure_cone`]; all-false
    /// between calls.
    visit: Vec<bool>,
}

impl NetworkCnf {
    /// An empty encoding of `net`: nothing is in the solver yet.
    pub fn new(net: &Network) -> NetworkCnf {
        NetworkCnf {
            vars: vec![None; net.num_gate_slots()],
            visit: vec![false; net.num_gate_slots()],
        }
    }

    /// Encodes every live gate of `net` as fresh variables and clauses in
    /// `solver`.
    ///
    /// ```
    /// use kms_netlist::{Network, GateKind, Delay};
    /// use kms_sat::{Solver, NetworkCnf, SatResult};
    ///
    /// let mut net = Network::new("t");
    /// let a = net.add_input("a");
    /// let b = net.add_input("b");
    /// let g = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
    /// net.add_output("y", g);
    ///
    /// let mut solver = Solver::new();
    /// let cnf = NetworkCnf::encode(&net, &mut solver);
    /// // AND output forced to 1 forces both inputs to 1.
    /// assert_eq!(solver.solve_with(&[cnf.lit(g, true)]), SatResult::Sat);
    /// assert_eq!(solver.model_value(cnf.lit(a, true)), Some(true));
    /// ```
    pub fn encode(net: &Network, solver: &mut Solver) -> NetworkCnf {
        let mut cnf = NetworkCnf::new(net);
        for id in net.topo_order() {
            cnf.encode_one(net, solver, id);
        }
        cnf
    }

    /// Encodes the not-yet-encoded transitive fanin of `roots`, so that
    /// every root has a variable afterwards. Gates encoded by earlier
    /// calls are reused, so a sequence of calls encodes each gate at most
    /// once. The walk is a depth-first post-order over the roots in the
    /// order given — a topological order, fanins first — found without
    /// any whole-network pass. Roots given in topological order, each
    /// with its fanin encoded before it, are emitted in exactly that
    /// order.
    ///
    /// ```
    /// use kms_netlist::{Network, GateKind, Delay};
    /// use kms_sat::{Solver, NetworkCnf, SatResult};
    ///
    /// let mut net = Network::new("t");
    /// let a = net.add_input("a");
    /// let b = net.add_input("b");
    /// let g = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
    /// let h = net.add_gate(GateKind::Not, &[b], Delay::UNIT);
    /// net.add_output("y", g);
    /// net.add_output("z", h);
    ///
    /// let mut solver = Solver::new();
    /// let mut cnf = NetworkCnf::new(&net);
    /// cnf.ensure_cone(&net, &mut solver, [h]);
    /// assert!(cnf.try_var(g).is_none() && cnf.try_var(a).is_none());
    /// assert_eq!(solver.solve_with(&[cnf.lit(h, true), cnf.lit(b, true)]), SatResult::Unsat);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if a root or one of its fanins is dead.
    pub fn ensure_cone(
        &mut self,
        net: &Network,
        solver: &mut Solver,
        roots: impl IntoIterator<Item = GateId>,
    ) {
        // `(gate, expanded)`: expanding a gate re-pushes it, marked, under
        // its fanins, so it pops once they are all encoded. In a DAG no
        // fanin of a gate can be mid-expansion (`visit`) below it.
        let mut stack: Vec<(GateId, bool)> = roots.into_iter().map(|r| (r, false)).collect();
        stack.reverse();
        while let Some((id, expanded)) = stack.pop() {
            let i = id.index();
            if expanded {
                self.visit[i] = false;
                self.encode_one(net, solver, id);
            } else if !self.visit[i] && self.vars[i].is_none() {
                self.visit[i] = true;
                stack.push((id, true));
                stack.extend(net.gate(id).pins.iter().rev().map(|p| (p.src, false)));
            }
        }
    }

    /// Encodes gate `id`, whose fanins must already be encoded.
    fn encode_one(&mut self, net: &Network, solver: &mut Solver, id: GateId) {
        let g = net.gate(id);
        assert!(!g.is_dead(), "gate {id} is dead");
        let out = solver.new_var().positive();
        let pins: Vec<Lit> = g
            .pins
            .iter()
            .map(|p| {
                self.vars[p.src.index()]
                    .expect("fanin encoded before fanout (topological order)")
                    .positive()
            })
            .collect();
        encode_gate(solver, g.kind, out, &pins, None);
        self.vars[id.index()] = Some(out.var());
    }

    /// The solver variable of gate `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` has not been encoded.
    pub fn var(&self, id: GateId) -> Var {
        self.vars[id.index()].expect("gate was not encoded (dead at encode time)")
    }

    /// The literal asserting that gate `id`'s output is `value`.
    pub fn lit(&self, id: GateId, value: bool) -> Lit {
        self.var(id).lit(value)
    }

    /// The solver variable of gate `id`, or `None` when the gate was dead
    /// or has not been encoded (yet).
    pub fn try_var(&self, id: GateId) -> Option<Var> {
        self.vars.get(id.index()).copied().flatten()
    }

    /// Extracts the primary-input assignment of the current model as a
    /// Boolean vector in input order (inputs without a variable, or
    /// unconstrained, default to `false`).
    pub fn model_inputs(&self, solver: &Solver, net: &Network) -> Vec<bool> {
        net.inputs()
            .iter()
            .map(|&i| {
                self.try_var(i)
                    .and_then(|v| solver.model_value(v.positive()))
                    .unwrap_or(false)
            })
            .collect()
    }
}

/// Emits the Tseitin clauses tying `out` to the function `kind` of
/// `pins`: the one gate encoder behind [`NetworkCnf`], the shared ATPG
/// CNF and the per-fault miter. A source gate (`Input`) gets no clause, a
/// constant a unit. When `guard` is `Some(g)` every clause is prefixed
/// with `¬g`, so the gate's constraints hold only while `g` is assumed
/// true — the activation-literal scheme of incremental fault encodings.
/// Multi-input XOR/XNOR gates allocate one fresh variable per inner link
/// of their chain.
pub fn encode_gate(
    solver: &mut Solver,
    kind: GateKind,
    out: Lit,
    pins: &[Lit],
    guard: Option<Lit>,
) {
    let emit = |solver: &mut Solver, lits: &[Lit]| match guard {
        None => {
            solver.add_clause(lits);
        }
        Some(g) => {
            let mut v = Vec::with_capacity(lits.len() + 1);
            v.push(!g);
            v.extend_from_slice(lits);
            solver.add_clause(&v);
        }
    };
    match kind {
        GateKind::Input => {}
        GateKind::Const(b) => emit(solver, &[if b { out } else { !out }]),
        GateKind::Buf => {
            emit(solver, &[!out, pins[0]]);
            emit(solver, &[out, !pins[0]]);
        }
        GateKind::Not => {
            emit(solver, &[!out, !pins[0]]);
            emit(solver, &[out, pins[0]]);
        }
        GateKind::And | GateKind::Nand => {
            let o = if kind == GateKind::And { out } else { !out };
            // o -> each input; (all inputs) -> o.
            let mut big = vec![o];
            for &a in pins {
                emit(solver, &[!o, a]);
                big.push(!a);
            }
            emit(solver, &big);
        }
        GateKind::Or | GateKind::Nor => {
            let o = if kind == GateKind::Or { out } else { !out };
            let mut big = vec![!o];
            for &a in pins {
                emit(solver, &[o, !a]);
                big.push(a);
            }
            emit(solver, &big);
        }
        GateKind::Xor | GateKind::Xnor => {
            // Chain: acc_k = acc_{k-1} XOR pin_k with fresh intermediates;
            // final equality (or inequality) to out.
            let mut acc = pins[0];
            for (p, &b) in pins.iter().enumerate().skip(1) {
                let last = p == pins.len() - 1;
                let t = if last && kind == GateKind::Xor {
                    out
                } else if last {
                    !out
                } else {
                    solver.new_var().positive()
                };
                // t <-> acc XOR b
                emit(solver, &[!t, acc, b]);
                emit(solver, &[!t, !acc, !b]);
                emit(solver, &[t, !acc, b]);
                emit(solver, &[t, acc, !b]);
                acc = t;
            }
            if pins.len() == 1 {
                // Degenerate single-input XOR is identity (XNOR is
                // negation).
                let o = if kind == GateKind::Xor { out } else { !out };
                emit(solver, &[!o, pins[0]]);
                emit(solver, &[o, !pins[0]]);
            }
        }
        GateKind::Mux => {
            let (s, d0, d1) = (pins[0], pins[1], pins[2]);
            // s=0: out <-> d0 ; s=1: out <-> d1.
            emit(solver, &[s, !out, d0]);
            emit(solver, &[s, out, !d0]);
            emit(solver, &[!s, !out, d1]);
            emit(solver, &[!s, out, !d1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SatResult;
    use kms_netlist::{Delay, GateKind, Network};

    /// Exhaustively checks that the CNF encoding of a single gate agrees
    /// with the simulator on all input minterms.
    fn check_gate(kind: GateKind, nins: usize) {
        let mut net = Network::new("g");
        let ins: Vec<_> = (0..nins).map(|i| net.add_input(format!("i{i}"))).collect();
        let g = net.add_gate(kind, &ins, Delay::UNIT);
        net.add_output("y", g);

        for m in 0..(1u32 << nins) {
            let bits: Vec<bool> = (0..nins).map(|i| (m >> i) & 1 == 1).collect();
            let expect = net.eval_bool(&bits)[0];
            let mut solver = Solver::new();
            let cnf = NetworkCnf::encode(&net, &mut solver);
            let mut assumptions: Vec<Lit> = ins
                .iter()
                .zip(&bits)
                .map(|(&i, &b)| cnf.lit(i, b))
                .collect();
            assumptions.push(cnf.lit(g, expect));
            assert_eq!(
                solver.solve_with(&assumptions),
                SatResult::Sat,
                "{kind} minterm {m} should allow the simulated value"
            );
            assumptions.pop();
            assumptions.push(cnf.lit(g, !expect));
            assert_eq!(
                solver.solve_with(&assumptions),
                SatResult::Unsat,
                "{kind} minterm {m} must forbid the complement"
            );
        }
    }

    #[test]
    fn all_gate_encodings_match_simulation() {
        check_gate(GateKind::Buf, 1);
        check_gate(GateKind::Not, 1);
        for k in [
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            check_gate(k, 2);
            check_gate(k, 3);
            check_gate(k, 4);
        }
        check_gate(GateKind::Mux, 3);
    }

    #[test]
    fn constants_are_pinned() {
        let mut net = Network::new("c");
        let c1 = net.add_const(true);
        let c0 = net.add_const(false);
        let g = net.add_gate(GateKind::And, &[c1, c0], Delay::UNIT);
        net.add_output("y", g);
        let mut solver = Solver::new();
        let cnf = NetworkCnf::encode(&net, &mut solver);
        assert_eq!(solver.solve_with(&[cnf.lit(g, true)]), SatResult::Unsat);
        assert_eq!(solver.solve_with(&[cnf.lit(g, false)]), SatResult::Sat);
    }

    /// Cones encoded one query at a time agree with the whole-network
    /// encoding on every gate value, and roots handed over in topological
    /// order get exactly the whole encoding's variable numbering.
    #[test]
    fn cone_encoding_matches_whole_encoding() {
        let mut net = Network::new("cones");
        let ins: Vec<_> = (0..4).map(|i| net.add_input(format!("i{i}"))).collect();
        let x = net.add_gate(GateKind::Xor, &[ins[0], ins[1], ins[2]], Delay::UNIT);
        let n = net.add_gate(GateKind::Not, &[ins[3]], Delay::UNIT);
        let c = net.add_const(true);
        let a = net.add_gate(GateKind::Nand, &[x, n, c], Delay::UNIT);
        let o = net.add_gate(GateKind::Or, &[a, ins[1]], Delay::UNIT);
        let y = net.add_gate(GateKind::And, &[o, x], Delay::UNIT);
        net.add_output("y", y);
        net.add_output("n", n);

        let mut whole_solver = Solver::new();
        let whole = NetworkCnf::encode(&net, &mut whole_solver);
        let mut lazy_solver = Solver::new();
        let mut lazy = NetworkCnf::new(&net);
        for g in [n, a, y, x] {
            lazy.ensure_cone(&net, &mut lazy_solver, [g]);
            for v in [false, true] {
                assert_eq!(
                    lazy_solver.solve_with(&[lazy.lit(g, v)]),
                    whole_solver.solve_with(&[whole.lit(g, v)]),
                    "{g} = {v}"
                );
            }
        }
        assert!(lazy.try_var(c).is_some() && lazy.try_var(o).is_some());

        let mut ordered_solver = Solver::new();
        let mut ordered = NetworkCnf::new(&net);
        ordered.ensure_cone(&net, &mut ordered_solver, net.topo_order());
        for id in net.topo_order() {
            assert_eq!(ordered.var(id), whole.var(id));
        }
        assert_eq!(ordered_solver.num_vars(), whole_solver.num_vars());
    }

    #[test]
    fn model_inputs_roundtrip() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        net.add_output("y", g);
        let mut solver = Solver::new();
        let cnf = NetworkCnf::encode(&net, &mut solver);
        assert_eq!(solver.solve_with(&[cnf.lit(g, true)]), SatResult::Sat);
        let bits = cnf.model_inputs(&solver, &net);
        assert_eq!(net.eval_bool(&bits), vec![true]);
    }
}
