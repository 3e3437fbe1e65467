//! Building BDDs for the node functions of a [`Network`].
//!
//! Each primary input is mapped to the BDD variable with the same position,
//! so cubes over the inputs (Definition 4.5) and characteristic functions
//! compose directly. Used by the tests that check the SAT path-condition
//! oracle of `kms-timing` and by exact equivalence checks.

use kms_netlist::{GateId, GateKind, Network};

use crate::manager::{Bdd, BddManager};

/// The global function (over the primary inputs) of every live gate.
#[derive(Clone, Debug)]
pub struct NodeFunctions {
    funcs: Vec<Option<Bdd>>,
}

impl NodeFunctions {
    /// Computes the function of every live gate of `net` in `manager`.
    /// The manager's variable order is extended to cover all inputs;
    /// input `i` (positionally) becomes BDD variable `i`.
    ///
    /// ```
    /// use kms_netlist::{Network, GateKind, Delay};
    /// use kms_bdd::{BddManager, NodeFunctions};
    ///
    /// let mut net = Network::new("t");
    /// let a = net.add_input("a");
    /// let b = net.add_input("b");
    /// let g = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
    /// net.add_output("y", g);
    ///
    /// let mut m = BddManager::new(0);
    /// let funcs = NodeFunctions::build(&net, &mut m);
    /// let expect = {
    ///     let va = m.var(0);
    ///     let vb = m.var(1);
    ///     m.and(va, vb)
    /// };
    /// assert_eq!(funcs.of(g), expect);
    /// ```
    pub fn build(net: &Network, manager: &mut BddManager) -> NodeFunctions {
        manager.ensure_vars(net.inputs().len());
        let mut funcs: Vec<Option<Bdd>> = vec![None; net.num_gate_slots()];
        for (i, &id) in net.inputs().iter().enumerate() {
            funcs[id.index()] = Some(manager.var(i));
        }
        for id in net.topo_order() {
            let g = net.gate(id);
            if g.kind == GateKind::Input {
                continue;
            }
            let pin =
                |p: usize| -> Bdd { funcs[g.pins[p].src.index()].expect("fanin computed first") };
            let f = match g.kind {
                GateKind::Input => unreachable!(),
                GateKind::Const(b) => manager.constant(b),
                GateKind::Buf => pin(0),
                GateKind::Not => {
                    let a = pin(0);
                    manager.not(a)
                }
                GateKind::And | GateKind::Nand => {
                    let mut acc = Bdd::TRUE;
                    for p in 0..g.pins.len() {
                        let x = pin(p);
                        acc = manager.and(acc, x);
                    }
                    if g.kind == GateKind::Nand {
                        manager.not(acc)
                    } else {
                        acc
                    }
                }
                GateKind::Or | GateKind::Nor => {
                    let mut acc = Bdd::FALSE;
                    for p in 0..g.pins.len() {
                        let x = pin(p);
                        acc = manager.or(acc, x);
                    }
                    if g.kind == GateKind::Nor {
                        manager.not(acc)
                    } else {
                        acc
                    }
                }
                GateKind::Xor | GateKind::Xnor => {
                    let mut acc = Bdd::FALSE;
                    for p in 0..g.pins.len() {
                        let x = pin(p);
                        acc = manager.xor(acc, x);
                    }
                    if g.kind == GateKind::Xnor {
                        manager.not(acc)
                    } else {
                        acc
                    }
                }
                GateKind::Mux => {
                    let s = pin(0);
                    let d0 = pin(1);
                    let d1 = pin(2);
                    manager.ite(s, d1, d0)
                }
            };
            funcs[id.index()] = Some(f);
        }
        NodeFunctions { funcs }
    }

    /// The global function of gate `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was dead when the functions were built.
    pub fn of(&self, id: GateId) -> Bdd {
        self.funcs[id.index()].expect("gate was dead when functions were built")
    }

    /// The function of gate `id`, or `None` if it was dead.
    pub fn get(&self, id: GateId) -> Option<Bdd> {
        self.funcs.get(id.index()).copied().flatten()
    }
}

/// Exact equivalence of two networks by comparing output BDDs in a shared
/// manager (inputs matched positionally).
///
/// # Panics
///
/// Panics if input or output counts differ.
pub fn bdd_equivalent(a: &Network, b: &Network) -> bool {
    assert_eq!(a.inputs().len(), b.inputs().len(), "input count mismatch");
    assert_eq!(
        a.outputs().len(),
        b.outputs().len(),
        "output count mismatch"
    );
    let mut m = BddManager::new(a.inputs().len());
    let fa = NodeFunctions::build(a, &mut m);
    let fb = NodeFunctions::build(b, &mut m);
    a.outputs()
        .iter()
        .zip(b.outputs())
        .all(|(oa, ob)| fa.of(oa.src) == fb.of(ob.src))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kms_netlist::{Delay, Network};

    #[test]
    fn functions_match_simulation() {
        // A random-ish mixed network, cross-checked on all minterms.
        let mut net = Network::new("mix");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let d = net.add_input("d");
        let g1 = net.add_gate(GateKind::Xor, &[a, b], Delay::UNIT);
        let g2 = net.add_gate(GateKind::Nand, &[c, d], Delay::UNIT);
        let g3 = net.add_gate(GateKind::Mux, &[g1, g2, c], Delay::UNIT);
        let g4 = net.add_gate(GateKind::Nor, &[g3, a], Delay::UNIT);
        net.add_output("y", g4);

        let mut m = BddManager::new(4);
        let funcs = NodeFunctions::build(&net, &mut m);
        let f = funcs.of(g4);
        for v in 0..16u32 {
            let bits: Vec<bool> = (0..4).map(|i| (v >> i) & 1 == 1).collect();
            assert_eq!(m.eval(f, &bits), net.eval_bool(&bits)[0], "minterm {v}");
        }
    }

    #[test]
    fn equivalence_via_bdds() {
        let mut n1 = Network::new("xor");
        let a = n1.add_input("a");
        let b = n1.add_input("b");
        let g = n1.add_gate(GateKind::Xor, &[a, b], Delay::UNIT);
        n1.add_output("y", g);

        let mut n2 = Network::new("sop");
        let a = n2.add_input("a");
        let b = n2.add_input("b");
        let na = n2.add_gate(GateKind::Not, &[a], Delay::UNIT);
        let nb = n2.add_gate(GateKind::Not, &[b], Delay::UNIT);
        let t1 = n2.add_gate(GateKind::And, &[a, nb], Delay::UNIT);
        let t2 = n2.add_gate(GateKind::And, &[na, b], Delay::UNIT);
        let o = n2.add_gate(GateKind::Or, &[t1, t2], Delay::UNIT);
        n2.add_output("y", o);

        assert!(bdd_equivalent(&n1, &n2));

        let mut n3 = Network::new("xnor");
        let a = n3.add_input("a");
        let b = n3.add_input("b");
        let g = n3.add_gate(GateKind::Xnor, &[a, b], Delay::UNIT);
        n3.add_output("y", g);
        assert!(!bdd_equivalent(&n1, &n3));
    }

    #[test]
    fn constants_and_buffers() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let c = net.add_const(true);
        let bf = net.add_gate(GateKind::Buf, &[a], Delay::ZERO);
        let g = net.add_gate(GateKind::And, &[bf, c], Delay::UNIT);
        net.add_output("y", g);
        let mut m = BddManager::new(1);
        let funcs = NodeFunctions::build(&net, &mut m);
        assert_eq!(funcs.of(g), m.var(0));
        assert_eq!(funcs.of(c), Bdd::TRUE);
    }
}
