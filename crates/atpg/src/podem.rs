//! PODEM (path-oriented decision making) test generation.
//!
//! The five-valued D-calculus is represented as a pair of three-valued
//! simulations (good, faulty): `D = (1,0)`, `D̄ = (0,1)`. Decisions are
//! made only on primary inputs, with objective/backtrace heuristics and
//! exhaustive backtracking, so the procedure is complete: exhausting the
//! decision tree proves the fault redundant. Three-valued simulation is
//! monotone in the unknowns, which is what makes the activation,
//! D-frontier, and X-path prunes sound.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use kms_netlist::{eval_gate3, ConnRef, GateId, GateKind, Network, Topology, Value};

use crate::fault::{Fault, FaultSite};

/// The outcome of a PODEM run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PodemResult {
    /// A detecting input cube (one [`Value`] per primary input; `X` means
    /// either value works).
    Test(Vec<Value>),
    /// The decision tree was exhausted: the fault is untestable
    /// (redundant).
    Redundant,
    /// The backtrack limit was hit before a verdict.
    Aborted,
}

impl PodemResult {
    /// The test as Booleans with `X` filled as 0, if a test was found.
    pub fn test_vector(&self) -> Option<Vec<bool>> {
        match self {
            PodemResult::Test(cube) => {
                Some(cube.iter().map(|v| v.to_bool().unwrap_or(false)).collect())
            }
            _ => None,
        }
    }
}

/// A good/faulty value pair (the five-valued calculus: 0, 1, X, D, D̄ plus
/// the mixed partially-known states).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Pair {
    good: Value,
    faulty: Value,
}

impl Pair {
    const X: Pair = Pair {
        good: Value::X,
        faulty: Value::X,
    };

    fn is_d_or_dbar(self) -> bool {
        matches!(
            (self.good, self.faulty),
            (Value::One, Value::Zero) | (Value::Zero, Value::One)
        )
    }

    fn has_unknown(self) -> bool {
        self.good == Value::X || self.faulty == Value::X
    }
}

/// Marks a gate slot that is not a primary input in [`Podem::input_pos`].
const NOT_INPUT: u32 = u32::MAX;

/// The PODEM engine for one (network, fault) pair.
///
/// Implication is **event-driven**: the good/faulty pairs persist across
/// decisions, and a primary-input change re-evaluates only the gates it
/// reaches, in topological order, stopping wherever a gate's pair comes
/// out unchanged. Every pair is a pure function of the current input
/// assignment, so the search — and therefore every [`PodemResult`] — is
/// exactly what a full re-simulation per decision would give.
pub struct Podem<'a> {
    net: &'a Network,
    topo: &'a Topology,
    fault: Fault,
    /// The signal whose good value must differ from the stuck value.
    exc_source: GateId,
    /// Good/faulty pair per gate slot, consistent with `pi_values` after
    /// every [`Podem::imply`].
    pairs: Vec<Pair>,
    pi_values: Vec<Value>,
    /// Slot → index in [`Network::inputs`], or [`NOT_INPUT`].
    input_pos: Vec<u32>,
    /// Slot → drives some primary output.
    po_driver: Vec<bool>,
    /// The fault's transitive fanout in topological order: the only gates
    /// that can carry D/D̄, hence the only D-frontier candidates.
    tfo: Vec<GateId>,
    /// Topo positions of the gates awaiting re-evaluation (a min-heap, so
    /// every gate is evaluated after all of its changed fanins), with a
    /// per-slot flag against double queueing.
    queue: BinaryHeap<Reverse<u32>>,
    queued: Vec<bool>,
    /// Generation-stamped visit marks for the TFO and X-path walks.
    seen: Vec<u32>,
    generation: u32,
    stack: Vec<GateId>,
    /// The D-frontier of the current decision, in topological order.
    frontier: Vec<GateId>,
    good_buf: Vec<Value>,
    faulty_buf: Vec<Value>,
    backtrack_limit: u64,
    backtracks: u64,
}

impl<'a> Podem<'a> {
    /// Prepares a PODEM run against the caller's [`Topology`] of `net`.
    /// `backtrack_limit` bounds the search; for the circuit sizes of the
    /// paper a limit in the thousands is effectively complete.
    pub fn new(net: &'a Network, topo: &'a Topology, fault: Fault, backtrack_limit: u64) -> Self {
        let slots = net.num_gate_slots();
        let mut input_pos = vec![NOT_INPUT; slots];
        for (i, &id) in net.inputs().iter().enumerate() {
            input_pos[id.index()] = i as u32;
        }
        let mut po_driver = vec![false; slots];
        for o in net.outputs() {
            po_driver[o.src.index()] = true;
        }
        let mut podem = Podem {
            net,
            topo,
            fault,
            exc_source: fault.excitation_source(net),
            pairs: vec![Pair::X; slots],
            pi_values: vec![Value::X; net.inputs().len()],
            input_pos,
            po_driver,
            tfo: Vec::new(),
            queue: BinaryHeap::new(),
            queued: vec![false; slots],
            seen: vec![0; slots],
            generation: 0,
            stack: Vec::new(),
            frontier: Vec::new(),
            good_buf: Vec::new(),
            faulty_buf: Vec::new(),
            backtrack_limit,
            backtracks: 0,
        };
        let gen = podem.next_generation();
        podem.stack.push(fault.observing_gate());
        while let Some(id) = podem.stack.pop() {
            if podem.seen[id.index()] == gen {
                continue;
            }
            podem.seen[id.index()] = gen;
            podem.tfo.push(id);
            podem.stack.extend(topo.fanouts(id).iter().map(|c| c.gate));
        }
        podem.tfo.sort_unstable_by_key(|&id| topo.pos(id));
        // With every input at X, a gate whose fanins are all X evaluates
        // to X — the initial pair. Only the faulted gate and fanin-less
        // logic (constants) can differ, so they seed the first implication.
        podem.enqueue(fault.observing_gate());
        for &id in topo.order() {
            let g = net.gate(id);
            if g.pins.is_empty() && g.kind != GateKind::Input {
                podem.enqueue(id);
            }
        }
        podem
    }

    /// A fresh stamp for [`Podem::seen`].
    fn next_generation(&mut self) -> u32 {
        if self.generation == u32::MAX {
            self.seen.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.generation
    }

    fn enqueue(&mut self, id: GateId) {
        if !self.queued[id.index()] {
            self.queued[id.index()] = true;
            self.queue.push(Reverse(self.topo.pos(id) as u32));
        }
    }

    /// Assigns primary input `pi`, scheduling its gate for implication.
    fn set_pi(&mut self, pi: usize, v: Value) {
        if self.pi_values[pi] != v {
            self.pi_values[pi] = v;
            self.enqueue(self.net.inputs()[pi]);
        }
    }

    /// The five-valued pair of `id` under its fanins' current pairs.
    fn eval_pair(&mut self, id: GateId) -> Pair {
        let g = self.net.gate(id);
        let mut pair = match g.kind {
            GateKind::Input => {
                let v = self.pi_values[self.input_pos[id.index()] as usize];
                Pair { good: v, faulty: v }
            }
            _ => {
                self.good_buf.clear();
                self.faulty_buf.clear();
                for (pin_idx, p) in g.pins.iter().enumerate() {
                    let mut pv = self.pairs[p.src.index()];
                    if self.fault.site == FaultSite::Conn(ConnRef::new(id, pin_idx)) {
                        pv.faulty = Value::known(self.fault.stuck);
                    }
                    self.good_buf.push(pv.good);
                    self.faulty_buf.push(pv.faulty);
                }
                Pair {
                    good: eval_gate3(g.kind, &self.good_buf),
                    faulty: eval_gate3(g.kind, &self.faulty_buf),
                }
            }
        };
        if self.fault.site == FaultSite::GateOutput(id) {
            pair.faulty = Value::known(self.fault.stuck);
        }
        pair
    }

    /// Event-driven implication: re-evaluates the queued gates in
    /// topological order, queueing a gate's fanouts only when its pair
    /// changed.
    fn imply(&mut self) {
        while let Some(Reverse(pos)) = self.queue.pop() {
            let id = self.topo.order()[pos as usize];
            self.queued[id.index()] = false;
            let pair = self.eval_pair(id);
            if pair != self.pairs[id.index()] {
                self.pairs[id.index()] = pair;
                for c in self.topo.fanouts(id) {
                    self.enqueue(c.gate);
                }
            }
        }
    }

    /// `true` if some primary output currently observes the fault.
    fn detected(&self) -> bool {
        self.net.outputs().iter().any(|o| {
            let mut p = self.pairs[o.src.index()];
            if self.fault.site == FaultSite::GateOutput(o.src) {
                p.faulty = Value::known(self.fault.stuck);
            }
            p.is_d_or_dbar()
        })
    }

    /// The good value at the excitation source.
    fn excitation_value(&self) -> Value {
        self.pairs[self.exc_source.index()].good
    }

    /// Whether `id` is on the D-frontier: its output is still (partly)
    /// unknown but some input carries D/D̄.
    fn on_frontier(&self, id: GateId) -> bool {
        let g = self.net.gate(id);
        if g.kind.is_source() || !self.pairs[id.index()].has_unknown() {
            return false;
        }
        g.pins.iter().enumerate().any(|(pin_idx, p)| {
            let mut pv = self.pairs[p.src.index()];
            if self.fault.site == FaultSite::Conn(ConnRef::new(id, pin_idx)) {
                pv.faulty = Value::known(self.fault.stuck);
            }
            pv.is_d_or_dbar()
        })
    }

    /// Fills [`Podem::frontier`] with the classic D-frontier, in
    /// topological order. Only the fault's transitive fanout is scanned:
    /// outside it the good and faulty values agree, so no other gate can
    /// see a D/D̄.
    fn d_frontier(&mut self) {
        let mut frontier = std::mem::take(&mut self.frontier);
        frontier.clear();
        frontier.extend(self.tfo.iter().copied().filter(|&id| self.on_frontier(id)));
        self.frontier = frontier;
    }

    /// `true` if some D-frontier gate reaches a primary output through
    /// gates with unknown values (the X-path check).
    fn x_path_exists(&mut self) -> bool {
        let gen = self.next_generation();
        self.stack.clear();
        self.stack.extend_from_slice(&self.frontier);
        while let Some(id) = self.stack.pop() {
            if self.seen[id.index()] == gen {
                continue;
            }
            self.seen[id.index()] = gen;
            if !self.pairs[id.index()].has_unknown() {
                continue;
            }
            if self.po_driver[id.index()] {
                return true;
            }
            self.stack
                .extend(self.topo.fanouts(id).iter().map(|c| c.gate));
        }
        false
    }

    /// The next objective `(gate, value)`: excite the fault, then drive it
    /// through the first D-frontier gate (the frontier must be current).
    fn objective(&self) -> Option<(GateId, bool)> {
        let exc = self.excitation_value();
        if exc == Value::X {
            return Some((self.exc_source, !self.fault.stuck));
        }
        let g = *self.frontier.first()?;
        let gate = self.net.gate(g);
        // Set an unknown input to the gate's noncontrolling value (or an
        // arbitrary value for parity-style gates).
        for (pin_idx, p) in gate.pins.iter().enumerate() {
            let pv = self.pairs[p.src.index()];
            if pv.good == Value::X {
                let v = match gate.kind {
                    GateKind::Mux if pin_idx == 0 => {
                        // Select the data pin carrying the D, if any.

                        self.pairs[gate.pins[2].src.index()].is_d_or_dbar()
                    }
                    _ => gate.kind.noncontrolling_value().unwrap_or(false),
                };
                return Some((p.src, v));
            }
        }
        None
    }

    /// Backtraces an objective to an unassigned primary input.
    fn backtrace(&self, mut gate: GateId, mut value: bool) -> Option<(usize, bool)> {
        loop {
            let g = self.net.gate(gate);
            match g.kind {
                GateKind::Input => {
                    let pos = self.input_pos[gate.index()] as usize;
                    return if self.pi_values[pos] == Value::X {
                        Some((pos, value))
                    } else {
                        None
                    };
                }
                GateKind::Const(_) => return None,
                GateKind::Buf => gate = g.pins[0].src,
                GateKind::Not => {
                    value = !value;
                    gate = g.pins[0].src;
                }
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    if g.kind.is_inverting() {
                        value = !value;
                    }
                    // Pick the first input with an unknown good value.
                    let next = g
                        .pins
                        .iter()
                        .find(|p| self.pairs[p.src.index()].good == Value::X)?;
                    gate = next.src;
                    // For AND a 0 objective needs one 0 input; a 1 needs
                    // all 1 — either way the chosen input takes `value`.
                }
                GateKind::Xor | GateKind::Xnor => {
                    // Parity of the known inputs, folded into the target.
                    let mut v = value ^ (g.kind == GateKind::Xnor);
                    let mut next = None;
                    for p in &g.pins {
                        match self.pairs[p.src.index()].good {
                            Value::One => v = !v,
                            Value::Zero => {}
                            Value::X => {
                                if next.is_none() {
                                    next = Some(p.src);
                                }
                            }
                        }
                    }
                    gate = next?;
                    value = v;
                }
                GateKind::Mux => {
                    let sel = self.pairs[g.pins[0].src.index()].good;
                    match sel {
                        Value::Zero => gate = g.pins[1].src,
                        Value::One => gate = g.pins[2].src,
                        Value::X => {
                            // Drive the select first (to 0, arbitrarily).
                            gate = g.pins[0].src;
                            value = false;
                        }
                    }
                }
            }
        }
    }

    /// Runs the search.
    pub fn run(&mut self) -> PodemResult {
        self.search(Self::imply, Self::d_frontier)
    }

    /// The decision loop, over the given implication and D-frontier steps
    /// (the tests swap in full re-simulation to cross-check the
    /// event-driven ones).
    fn search(&mut self, imply: fn(&mut Self), d_frontier: fn(&mut Self)) -> PodemResult {
        // Decision stack: (pi index, current value, flipped already?).
        let mut stack: Vec<(usize, bool, bool)> = Vec::new();
        loop {
            imply(self);
            if self.detected() {
                return PodemResult::Test(self.pi_values.clone());
            }
            let exc = self.excitation_value();
            let mut failed = exc == Value::known(self.fault.stuck);
            if !failed && exc != Value::X {
                d_frontier(self);
                failed = self.frontier.is_empty() || !self.x_path_exists();
            }
            if !failed {
                match self.objective().and_then(|(g, v)| self.backtrace(g, v)) {
                    Some((pi, v)) => {
                        self.set_pi(pi, Value::known(v));
                        stack.push((pi, v, false));
                        continue;
                    }
                    None => failed = true,
                }
            }
            debug_assert!(failed);
            // Backtrack.
            loop {
                match stack.pop() {
                    None => return PodemResult::Redundant,
                    Some((pi, v, flipped)) => {
                        if flipped {
                            self.set_pi(pi, Value::X);
                            continue;
                        }
                        self.backtracks += 1;
                        if self.backtracks > self.backtrack_limit {
                            return PodemResult::Aborted;
                        }
                        self.set_pi(pi, Value::known(!v));
                        stack.push((pi, !v, true));
                        break;
                    }
                }
            }
        }
    }

    /// The reference implication: full five-valued re-simulation of every
    /// gate under the current input assignment.
    #[cfg(test)]
    fn imply_reference(&mut self) {
        self.queue.clear();
        self.queued.fill(false);
        self.pairs.fill(Pair::X);
        for id in self.net.topo_order() {
            self.pairs[id.index()] = self.eval_pair(id);
        }
    }

    /// The reference D-frontier: every gate, in topological order.
    #[cfg(test)]
    fn d_frontier_reference(&mut self) {
        let mut frontier = std::mem::take(&mut self.frontier);
        frontier.clear();
        frontier.extend(
            self.net
                .topo_order()
                .into_iter()
                .filter(|&id| self.on_frontier(id)),
        );
        self.frontier = frontier;
    }

    /// The search over the reference steps.
    #[cfg(test)]
    fn run_reference(&mut self) -> PodemResult {
        self.search(Self::imply_reference, Self::d_frontier_reference)
    }

    /// Event-driven implication, then a check that every pair equals the
    /// full re-simulation's.
    #[cfg(test)]
    fn imply_checked(&mut self) {
        self.imply();
        let event_driven = self.pairs.clone();
        self.imply_reference();
        assert_eq!(event_driven, self.pairs, "implication diverged");
    }

    /// The production search with every implication checked.
    #[cfg(test)]
    fn run_checked(&mut self) -> PodemResult {
        self.search(Self::imply_checked, Self::d_frontier)
    }
}

/// Convenience wrapper: run PODEM on `(net, fault)` with a topology built
/// for this call.
pub fn podem(net: &Network, fault: Fault, backtrack_limit: u64) -> PodemResult {
    let topo = Topology::build(net);
    Podem::new(net, &topo, fault, backtrack_limit).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{all_faults, collapsed_faults};
    use crate::inject::faulty_copy;
    use kms_gen::adders::carry_skip_adder;
    use kms_gen::random::{random_network, RandomNetworkSpec};
    use kms_netlist::{Delay, DelayModel};
    use proptest::prelude::*;

    fn verify_test(net: &Network, fault: Fault, cube: &[Value]) {
        let bits: Vec<bool> = cube.iter().map(|v| v.to_bool().unwrap_or(false)).collect();
        let faulty = faulty_copy(net, fault);
        assert_ne!(
            net.eval_bool(&bits),
            faulty.eval_bool(&bits),
            "vector must distinguish good and faulty circuits for {fault}"
        );
    }

    #[test]
    fn and_gate_all_faults_testable() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        net.add_output("y", g);
        for f in all_faults(&net) {
            match podem(&net, f, 1000) {
                PodemResult::Test(cube) => verify_test(&net, f, &cube),
                other => panic!("{f} should be testable, got {other:?}"),
            }
        }
    }

    #[test]
    fn classic_redundancy_detected() {
        // y = (a AND b) OR (a AND NOT b) OR b  — actually use the classic:
        // y = a·b + a·b̄ = a; realize non-minimally: t1 = a·b, t2 = a·b̄,
        // y = t1 + t2 + a — the `+ a` makes t1/t2 connection faults
        // redundant? Use the textbook case: y = a + a·b: the connection
        // b (and the AND gate) is redundant for s-a-…
        let mut net = Network::new("r");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let t = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        let y = net.add_gate(GateKind::Or, &[a, t], Delay::UNIT);
        net.add_output("y", y);
        // t s-a-0 is undetectable: y = a + a·b = a either way.
        let f = Fault::output(t, false);
        assert_eq!(podem(&net, f, 10_000), PodemResult::Redundant);
        // But t s-a-1 is testable (y becomes 1 when a=0).
        let f1 = Fault::output(t, true);
        match podem(&net, f1, 10_000) {
            PodemResult::Test(cube) => verify_test(&net, f1, &cube),
            other => panic!("expected test, got {other:?}"),
        }
    }

    #[test]
    fn connection_fault_distinct_from_stem() {
        // a fans out to both pins of an OR: a→or(a,a). The connection
        // faults s-a-0 are redundant (other branch still carries a), the
        // stem fault is testable.
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let g = net.add_gate(GateKind::Or, &[a, a], Delay::UNIT);
        net.add_output("y", g);
        assert!(matches!(
            podem(&net, Fault::conn(ConnRef::new(g, 0), false), 1000),
            PodemResult::Redundant
        ));
        assert!(matches!(
            podem(&net, Fault::output(a, false), 1000),
            PodemResult::Test(_)
        ));
    }

    #[test]
    fn xor_cone_faults() {
        let mut net = Network::new("x");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let g1 = net.add_gate(GateKind::Xor, &[a, b], Delay::UNIT);
        let g2 = net.add_gate(GateKind::Xor, &[g1, c], Delay::UNIT);
        net.add_output("y", g2);
        // XOR trees are fully testable.
        for f in all_faults(&net) {
            match podem(&net, f, 10_000) {
                PodemResult::Test(cube) => verify_test(&net, f, &cube),
                other => panic!("{f} in XOR tree must be testable, got {other:?}"),
            }
        }
    }

    #[test]
    fn abort_on_tiny_limit() {
        // A 6-input parity tree with limit 0 must abort (or find a test
        // with zero backtracks — parity usually needs none, so use a
        // redundancy which requires exhausting the tree).
        let mut net = Network::new("r");
        let ins: Vec<_> = (0..6).map(|i| net.add_input(format!("i{i}"))).collect();
        let t = net.add_gate(GateKind::And, &ins[..2], Delay::UNIT);
        let y = net.add_gate(GateKind::Or, &[ins[0], t], Delay::UNIT);
        let z = net.add_gate(
            GateKind::Xor,
            &[y, ins[2], ins[3], ins[4], ins[5]],
            Delay::UNIT,
        );
        net.add_output("y", z);
        let f = Fault::output(t, false);
        assert_eq!(podem(&net, f, 0), PodemResult::Aborted);
        assert_eq!(podem(&net, f, 1_000_000), PodemResult::Redundant);
    }

    #[test]
    fn test_vector_helper() {
        let r = PodemResult::Test(vec![Value::One, Value::X]);
        assert_eq!(r.test_vector(), Some(vec![true, false]));
        assert_eq!(PodemResult::Redundant.test_vector(), None);
    }

    /// The event-driven search must return exactly what the
    /// full-resimulation reference returns — verdict and cube — for every
    /// collapsed fault, with every implication equal to a full
    /// re-simulation, at a limit that aborts often, the shared engine's
    /// budget, and one that decides everything. Returns how many runs
    /// ended `Redundant`, so callers can check the search was exercised.
    fn assert_matches_reference(net: &Network) -> usize {
        let topo = Topology::build(net);
        let mut redundant = 0;
        for f in collapsed_faults(net) {
            for limit in [1, 128, 200_000] {
                let fast = Podem::new(net, &topo, f, limit).run();
                let reference = Podem::new(net, &topo, f, limit).run_reference();
                assert_eq!(fast, reference, "{f} at backtrack limit {limit}");
                let checked = Podem::new(net, &topo, f, limit).run_checked();
                assert_eq!(fast, checked, "{f} at backtrack limit {limit}");
                redundant += usize::from(fast == PodemResult::Redundant);
            }
        }
        redundant
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn event_driven_matches_reference_on_random_networks(seed in 1u64..1_000_000) {
            let spec = RandomNetworkSpec {
                inputs: 8,
                gates: 40,
                outputs: 3,
                max_fanin: 3,
                max_delay: 1,
            };
            assert_matches_reference(&random_network(seed, spec));
        }

        #[test]
        fn event_driven_matches_reference_on_carry_skip_adders(
            bits in 4usize..8,
            block in 2usize..4,
        ) {
            let net = carry_skip_adder(bits, block, DelayModel::Unit);
            // Every carry-skip adder with a skip block has a redundancy.
            prop_assert!(assert_matches_reference(&net) > 0);
        }
    }
}
