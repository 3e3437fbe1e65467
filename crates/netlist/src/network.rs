use std::collections::HashMap;
use std::fmt;

use crate::delay::Delay;
use crate::error::NetlistError;
use crate::gate::{ConnRef, GateId, GateKind, Pin};
use crate::topo::{self, Fanouts};

/// A gate (node) of a [`Network`]: its logic function, input connections,
/// intrinsic delay, and optional name.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Gate {
    /// The logic function of the gate.
    pub kind: GateKind,
    /// Input connections, ordered; see [`GateKind`] for per-kind pin roles.
    pub pins: Vec<Pin>,
    /// Intrinsic delay `d(g)` of the gate (Definition 4.1).
    pub delay: Delay,
    /// Optional name (always present on primary inputs).
    pub name: Option<String>,
    pub(crate) dead: bool,
}

impl Gate {
    /// `true` if this gate has been deleted by a transform; dead gates are
    /// tombstones until [`Network::compact`] runs.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// The number of input pins.
    pub fn fanin(&self) -> usize {
        self.pins.len()
    }
}

/// A primary output: a named reference to the gate that drives it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Output {
    /// The output's name.
    pub name: String,
    /// The driving gate.
    pub src: GateId,
}

/// A combinational circuit: a DAG of gates and connections, each carrying a
/// delay (Definition 4.1 of the paper).
///
/// Networks are built with [`Network::add_input`], [`Network::add_gate`] and
/// [`Network::add_output`], and transformed by the functions in
/// [`crate::transform`]. Gate ids are stable under transforms; deleted gates
/// leave tombstones that [`Network::compact`] removes.
///
/// ```
/// use kms_netlist::{Network, GateKind, Delay};
/// let mut net = Network::new("xor2");
/// let a = net.add_input("a");
/// let b = net.add_input("b");
/// let x = net.add_gate(GateKind::Xor, &[a, b], Delay::new(2));
/// net.add_output("x", x);
/// assert_eq!(net.eval_bool(&[true, true]), vec![false]);
/// ```
#[derive(Clone, Debug)]
pub struct Network {
    pub(crate) name: String,
    pub(crate) gates: Vec<Gate>,
    pub(crate) inputs: Vec<GateId>,
    pub(crate) outputs: Vec<Output>,
    pub(crate) const_cache: [Option<GateId>; 2],
}

impl Network {
    /// Creates an empty network with the given model name.
    pub fn new(name: impl Into<String>) -> Self {
        Network {
            name: name.into(),
            gates: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            const_cache: [None, None],
        }
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the network.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    fn push_gate(&mut self, gate: Gate) -> GateId {
        let id = GateId::from_index(self.gates.len());
        self.gates.push(gate);
        id
    }

    /// Adds a primary input named `name`.
    ///
    /// # Panics
    ///
    /// Panics if an input with the same name already exists; use
    /// [`Network::try_add_input`] for a fallible version.
    pub fn add_input(&mut self, name: impl Into<String>) -> GateId {
        match self.try_add_input(name) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Adds a primary input named `name`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateInput`] if an input with the same
    /// name already exists.
    pub fn try_add_input(&mut self, name: impl Into<String>) -> Result<GateId, NetlistError> {
        let name = name.into();
        if self.input_by_name(&name).is_some() {
            return Err(NetlistError::DuplicateInput { name });
        }
        let id = self.push_gate(Gate {
            kind: GateKind::Input,
            pins: Vec::new(),
            delay: Delay::ZERO,
            name: Some(name),
            dead: false,
        });
        self.inputs.push(id);
        Ok(id)
    }

    /// Returns the shared constant gate for `value`, creating it on first
    /// use.
    pub fn add_const(&mut self, value: bool) -> GateId {
        let slot = usize::from(value);
        if let Some(id) = self.const_cache[slot] {
            if !self.gates[id.index()].dead {
                return id;
            }
        }
        let id = self.push_gate(Gate {
            kind: GateKind::Const(value),
            pins: Vec::new(),
            delay: Delay::ZERO,
            name: None,
            dead: false,
        });
        self.const_cache[slot] = Some(id);
        id
    }

    /// Adds a gate of `kind` with zero-wire-delay connections from `srcs`
    /// and intrinsic delay `delay`.
    ///
    /// # Panics
    ///
    /// Panics if the pin count is invalid for `kind` (see
    /// [`Network::add_gate_pins`]).
    pub fn add_gate(&mut self, kind: GateKind, srcs: &[GateId], delay: Delay) -> GateId {
        self.add_gate_pins(kind, srcs.iter().map(|&s| Pin::new(s)).collect(), delay)
    }

    /// Fallible [`Network::add_gate`].
    ///
    /// # Errors
    ///
    /// See [`Network::try_add_gate_pins`].
    pub fn try_add_gate(
        &mut self,
        kind: GateKind,
        srcs: &[GateId],
        delay: Delay,
    ) -> Result<GateId, NetlistError> {
        self.try_add_gate_pins(kind, srcs.iter().map(|&s| Pin::new(s)).collect(), delay)
    }

    /// Adds a gate with explicit [`Pin`]s (allowing per-connection wire
    /// delays).
    ///
    /// # Panics
    ///
    /// Panics if the pin count is invalid for `kind`: NOT/BUF take exactly
    /// one pin, MUX exactly three, the n-ary gates at least one, and
    /// sources none; or if any source id is out of range or dead. Use
    /// [`Network::try_add_gate_pins`] for a fallible version.
    pub fn add_gate_pins(&mut self, kind: GateKind, pins: Vec<Pin>, delay: Delay) -> GateId {
        match self.try_add_gate_pins(kind, pins, delay) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Network::add_gate_pins`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadArity`] if the pin count is invalid for
    /// `kind`, or [`NetlistError::BadSource`] if any source id is out of
    /// range or dead. The error carries the id the gate *would* have
    /// received ([`NetlistError::BadArity::gate`]); nothing is added on
    /// failure.
    pub fn try_add_gate_pins(
        &mut self,
        kind: GateKind,
        pins: Vec<Pin>,
        delay: Delay,
    ) -> Result<GateId, NetlistError> {
        if !arity_ok(kind, pins.len()) {
            return Err(NetlistError::BadArity {
                gate: GateId::from_index(self.gates.len()),
                kind,
                pins: pins.len(),
            });
        }
        for p in &pins {
            if p.src.index() >= self.gates.len() || self.gates[p.src.index()].dead {
                return Err(NetlistError::BadSource { src: p.src });
            }
        }
        Ok(self.push_gate(Gate {
            kind,
            pins,
            delay,
            name: None,
            dead: false,
        }))
    }

    /// Declares `src` as a primary output named `name`.
    pub fn add_output(&mut self, name: impl Into<String>, src: GateId) {
        self.outputs.push(Output {
            name: name.into(),
            src,
        });
    }

    /// The gate with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Mutable access to the gate with id `id`.
    pub fn gate_mut(&mut self, id: GateId) -> &mut Gate {
        &mut self.gates[id.index()]
    }

    /// The pin behind a [`ConnRef`].
    pub fn pin(&self, conn: ConnRef) -> Pin {
        self.gates[conn.gate.index()].pins[conn.pin]
    }

    /// The primary inputs, in declaration order.
    pub fn inputs(&self) -> &[GateId] {
        &self.inputs
    }

    /// The primary outputs, in declaration order.
    pub fn outputs(&self) -> &[Output] {
        &self.outputs
    }

    /// Replaces the driver of output `idx`.
    pub fn set_output_src(&mut self, idx: usize, src: GateId) {
        self.outputs[idx].src = src;
    }

    /// Looks up a primary input by name.
    pub fn input_by_name(&self, name: &str) -> Option<GateId> {
        self.inputs
            .iter()
            .copied()
            .find(|&id| self.gates[id.index()].name.as_deref() == Some(name))
    }

    /// Looks up a primary output index by name.
    pub fn output_by_name(&self, name: &str) -> Option<usize> {
        self.outputs.iter().position(|o| o.name == name)
    }

    /// Total number of gate slots (including tombstones).
    pub fn num_gate_slots(&self) -> usize {
        self.gates.len()
    }

    /// Iterates over the ids of all live gates.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> + '_ {
        self.gates
            .iter()
            .enumerate()
            .filter(|(_, g)| !g.dead)
            .map(|(i, _)| GateId::from_index(i))
    }

    /// Number of live logic gates, the paper's circuit-size metric
    /// ("circuit size is measured by counting the number of simple gates",
    /// Section VIII). Sources are excluded, as are the zero-delay buffers
    /// that stand in for wires after constant propagation.
    pub fn simple_gate_count(&self) -> usize {
        self.gate_ids()
            .filter(|&id| {
                let g = self.gate(id);
                g.kind.is_logic() && !(g.kind == GateKind::Buf && g.delay.is_zero())
            })
            .count()
    }

    /// Number of live logic gates of any kind (buffers included).
    pub fn logic_gate_count(&self) -> usize {
        self.gate_ids()
            .filter(|&id| self.gate(id).kind.is_logic())
            .count()
    }

    /// `true` if every live logic gate is a simple gate (AND/OR/NOT/BUF).
    /// The KMS algorithm requires this (Section VI: "the circuit on which
    /// the algorithm is performed must be composed of only simple gates").
    pub fn is_simple(&self) -> bool {
        self.gate_ids()
            .all(|id| self.gate(id).kind.is_source() || self.gate(id).kind.is_simple())
    }

    /// Applies `model` to set every live logic gate's intrinsic delay.
    pub fn apply_delay_model(&mut self, model: crate::DelayModel) {
        for i in 0..self.gates.len() {
            if !self.gates[i].dead {
                self.gates[i].delay = model.gate_delay(self.gates[i].kind);
            }
        }
    }

    /// Computes, for every gate slot, the list of connections it drives:
    /// one flat [`Fanouts`] table indexed by gate arena index, each list
    /// in (sink gate, pin) order. Entries for dead gates are empty. Output
    /// pins of the network itself are not included (the paper treats
    /// primary-output connections as delay-free path terminators); see
    /// [`Network::output_counts`].
    pub fn fanouts(&self) -> Fanouts {
        Fanouts::build(self)
    }

    /// Per-slot count of the primary outputs each gate drives, built in
    /// one pass over the output list.
    pub fn output_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.gates.len()];
        for o in &self.outputs {
            counts[o.src.index()] += 1;
        }
        counts
    }

    /// A topological order of the live gates (sources first).
    ///
    /// # Panics
    ///
    /// Panics if the network contains a cycle; use
    /// [`Network::try_topo_order`] for a fallible version.
    pub fn topo_order(&self) -> Vec<GateId> {
        self.try_topo_order().expect("network contains a cycle")
    }

    /// Fallible [`Network::topo_order`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Cyclic`] if the live gates contain a cycle.
    pub fn try_topo_order(&self) -> Result<Vec<GateId>, NetlistError> {
        topo::kahn(self, &self.fanouts())
    }

    /// The depth of the network: the maximum number of logic gates along
    /// any input-to-output path (Definition 4.12).
    ///
    /// # Panics
    ///
    /// Panics if the network contains a cycle; use [`Network::try_depth`]
    /// for a fallible version.
    pub fn depth(&self) -> usize {
        self.try_depth().expect("network contains a cycle")
    }

    /// Fallible [`Network::depth`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Cyclic`] if the live gates contain a cycle.
    pub fn try_depth(&self) -> Result<usize, NetlistError> {
        let order = self.try_topo_order()?;
        let mut d = vec![0usize; self.gates.len()];
        for id in order {
            let g = self.gate(id);
            if g.kind.is_source() {
                continue;
            }
            d[id.index()] = 1 + g.pins.iter().map(|p| d[p.src.index()]).max().unwrap_or(0);
        }
        Ok(self
            .outputs
            .iter()
            .map(|o| d[o.src.index()])
            .max()
            .unwrap_or(0))
    }

    /// Checks the structural invariants: pin arities, liveness of all
    /// referenced gates, and acyclicity.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (i, g) in self.gates.iter().enumerate() {
            if g.dead {
                continue;
            }
            let id = GateId::from_index(i);
            if !arity_ok(g.kind, g.pins.len()) {
                return Err(NetlistError::BadArity {
                    gate: id,
                    kind: g.kind,
                    pins: g.pins.len(),
                });
            }
            for p in &g.pins {
                if p.src.index() >= self.gates.len() || self.gates[p.src.index()].dead {
                    return Err(NetlistError::DanglingPin { gate: id });
                }
            }
        }
        for o in &self.outputs {
            if o.src.index() >= self.gates.len() || self.gates[o.src.index()].dead {
                return Err(NetlistError::DanglingOutput {
                    name: o.name.clone(),
                });
            }
        }
        self.try_topo_order().map(|_| ())
    }

    /// Marks `id` dead. Callers must ensure nothing references it (or fix
    /// references afterwards); [`Network::validate`] will catch mistakes.
    pub(crate) fn kill(&mut self, id: GateId) {
        self.gates[id.index()].dead = true;
        self.gates[id.index()].pins.clear();
    }

    /// Garbage-collects tombstones, renumbering gates densely. Returns the
    /// mapping from old to new ids (dead gates map to `None`).
    ///
    /// # Panics
    ///
    /// Panics if a live gate, input or output still references a killed
    /// gate; use [`Network::try_compact`] for a fallible version.
    pub fn compact(&mut self) -> Vec<Option<GateId>> {
        match self.try_compact() {
            Ok(map) => map,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Network::compact`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DanglingPin`] / [`NetlistError::DanglingOutput`]
    /// if a live gate or output still references a killed gate, and
    /// [`NetlistError::BadSource`] if a primary input was itself killed.
    /// The network is unchanged on failure.
    pub fn try_compact(&mut self) -> Result<Vec<Option<GateId>>, NetlistError> {
        let mut map = vec![None; self.gates.len()];
        let mut new_gates = Vec::with_capacity(self.gates.len());
        for (i, g) in self.gates.iter().enumerate() {
            if !g.dead {
                map[i] = Some(GateId::from_index(new_gates.len()));
                new_gates.push(g.clone());
            }
        }
        for (i, g) in self.gates.iter().enumerate() {
            if g.dead {
                continue;
            }
            let dangling = |id: GateId| id.index() >= map.len() || map[id.index()].is_none();
            if g.pins.iter().any(|p| dangling(p.src)) {
                return Err(NetlistError::DanglingPin {
                    gate: GateId::from_index(i),
                });
            }
        }
        for &i in &self.inputs {
            if i.index() >= map.len() || map[i.index()].is_none() {
                return Err(NetlistError::BadSource { src: i });
            }
        }
        for o in &self.outputs {
            if o.src.index() >= map.len() || map[o.src.index()].is_none() {
                return Err(NetlistError::DanglingOutput {
                    name: o.name.clone(),
                });
            }
        }
        for g in &mut new_gates {
            for p in &mut g.pins {
                p.src = map[p.src.index()].expect("checked above");
            }
        }
        self.gates = new_gates;
        for i in &mut self.inputs {
            *i = map[i.index()].expect("checked above");
        }
        for o in &mut self.outputs {
            o.src = map[o.src.index()].expect("checked above");
        }
        for slot in &mut self.const_cache {
            *slot = slot.and_then(|id| map[id.index()]);
        }
        Ok(map)
    }

    /// A human-readable dump, one gate per line in topological order.
    pub fn dump(&self) -> String {
        let mut s = String::new();
        use fmt::Write;
        let _ = writeln!(s, ".model {}", self.name);
        for id in self.topo_order() {
            let g = self.gate(id);
            let pins: Vec<String> = g.pins.iter().map(|p| p.src.to_string()).collect();
            let name = g.name.as_deref().unwrap_or("");
            let _ = writeln!(
                s,
                "  {id} = {}({}) d={} {name}",
                g.kind,
                pins.join(", "),
                g.delay
            );
        }
        for o in &self.outputs {
            let _ = writeln!(s, "  output {} = {}", o.name, o.src);
        }
        s
    }

    /// Names of all primary inputs, in order.
    pub fn input_names(&self) -> Vec<&str> {
        self.inputs
            .iter()
            .map(|&i| self.gate(i).name.as_deref().unwrap_or(""))
            .collect()
    }

    /// Renames gates so that debugging dumps are stable: assigns `name` to
    /// gate `id`.
    pub fn set_gate_name(&mut self, id: GateId, name: impl Into<String>) {
        self.gate_mut(id).name = Some(name.into());
    }

    /// Finds a live gate by name (inputs included).
    pub fn gate_by_name(&self, name: &str) -> Option<GateId> {
        self.gate_ids()
            .find(|&id| self.gate(id).name.as_deref() == Some(name))
    }

    /// A map from gate name to id for all named live gates.
    pub fn name_map(&self) -> HashMap<String, GateId> {
        self.gate_ids()
            .filter_map(|id| self.gate(id).name.clone().map(|n| (n, id)))
            .collect()
    }
}

/// The arity rule shared by gate construction and [`Network::validate`]:
/// sources take no pins, NOT/BUF exactly one, MUX exactly three, the n-ary
/// gates at least one.
fn arity_ok(kind: GateKind, pins: usize) -> bool {
    match kind {
        GateKind::Input | GateKind::Const(_) => pins == 0,
        GateKind::Not | GateKind::Buf => pins == 1,
        GateKind::Mux => pins == 3,
        _ => pins > 0,
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} inputs, {} outputs, {} gates, depth {}",
            self.name,
            self.inputs.len(),
            self.outputs.len(),
            self.simple_gate_count(),
            self.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DelayModel;

    fn and_or_net() -> (Network, GateId, GateId) {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let g1 = net.add_gate(GateKind::And, &[a, b], Delay::new(1));
        let g2 = net.add_gate(GateKind::Or, &[g1, c], Delay::new(1));
        net.add_output("y", g2);
        (net, g1, g2)
    }

    #[test]
    fn build_and_count() {
        let (net, _, _) = and_or_net();
        assert_eq!(net.simple_gate_count(), 2);
        assert_eq!(net.inputs().len(), 3);
        assert_eq!(net.depth(), 2);
        net.validate().unwrap();
    }

    #[test]
    fn zero_delay_buf_not_counted() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b0 = net.add_gate(GateKind::Buf, &[a], Delay::ZERO);
        let b1 = net.add_gate(GateKind::Buf, &[b0], Delay::new(1));
        net.add_output("y", b1);
        assert_eq!(net.simple_gate_count(), 1);
        assert_eq!(net.logic_gate_count(), 2);
    }

    #[test]
    fn topo_order_is_topological() {
        let (net, _, _) = and_or_net();
        let order = net.topo_order();
        let pos: HashMap<GateId, usize> = order.iter().enumerate().map(|(i, &g)| (g, i)).collect();
        for id in net.gate_ids() {
            for p in &net.gate(id).pins {
                assert!(pos[&p.src] < pos[&id]);
            }
        }
    }

    #[test]
    fn fanouts_inverse_of_pins() {
        let (net, g1, g2) = and_or_net();
        let fo = net.fanouts();
        assert_eq!(fo[g1.index()], vec![ConnRef::new(g2, 0)]);
        let a = net.input_by_name("a").unwrap();
        assert_eq!(fo[a.index()], vec![ConnRef::new(g1, 0)]);
    }

    #[test]
    fn const_cache_shared() {
        let mut net = Network::new("t");
        let c1 = net.add_const(true);
        let c2 = net.add_const(true);
        let c3 = net.add_const(false);
        assert_eq!(c1, c2);
        assert_ne!(c1, c3);
    }

    #[test]
    fn compact_remaps() {
        let (mut net, g1, g2) = and_or_net();
        // Kill g1 by bypassing it: rewire g2's pin 0 to input a.
        let a = net.input_by_name("a").unwrap();
        net.gate_mut(g2).pins[0] = Pin::new(a);
        net.kill(g1);
        net.validate().unwrap();
        let map = net.compact();
        assert!(map[g1.index()].is_none());
        net.validate().unwrap();
        assert_eq!(net.simple_gate_count(), 1);
    }

    #[test]
    fn validate_catches_bad_arity() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let g = net.add_gate(GateKind::And, &[a, a], Delay::UNIT);
        net.add_output("y", g);
        net.gate_mut(g).kind = GateKind::Mux; // now 2 pins on a mux
        assert!(matches!(net.validate(), Err(NetlistError::BadArity { .. })));
    }

    #[test]
    fn apply_delay_model() {
        let (mut net, g1, _) = and_or_net();
        net.apply_delay_model(DelayModel::Unit);
        assert_eq!(net.gate(g1).delay, Delay::UNIT);
        let a = net.input_by_name("a").unwrap();
        assert_eq!(net.gate(a).delay, Delay::ZERO);
    }

    #[test]
    fn lookup_by_name() {
        let (net, _, _) = and_or_net();
        assert!(net.input_by_name("b").is_some());
        assert!(net.input_by_name("zz").is_none());
        assert_eq!(net.output_by_name("y"), Some(0));
        assert_eq!(net.input_names(), vec!["a", "b", "c"]);
    }

    #[test]
    #[should_panic(expected = "duplicate input name")]
    fn duplicate_input_panics() {
        let mut net = Network::new("t");
        net.add_input("a");
        net.add_input("a");
    }

    #[test]
    fn try_constructors_return_typed_errors() {
        let mut net = Network::new("t");
        let a = net.try_add_input("a").unwrap();
        assert!(matches!(
            net.try_add_input("a"),
            Err(NetlistError::DuplicateInput { name }) if name == "a"
        ));
        assert!(matches!(
            net.try_add_gate(GateKind::Not, &[a, a], Delay::UNIT),
            Err(NetlistError::BadArity {
                kind: GateKind::Not,
                pins: 2,
                ..
            })
        ));
        let bogus = GateId::from_index(99);
        assert!(matches!(
            net.try_add_gate(GateKind::Buf, &[bogus], Delay::UNIT),
            Err(NetlistError::BadSource { src }) if src == bogus
        ));
        // Nothing was added by the failed attempts.
        assert_eq!(net.num_gate_slots(), 1);
        let g = net.try_add_gate(GateKind::Not, &[a], Delay::UNIT).unwrap();
        net.add_output("y", g);
        net.validate().unwrap();
    }

    #[test]
    fn try_depth_and_topo_report_cycles() {
        let (mut net, g1, g2) = and_or_net();
        assert_eq!(net.try_depth().unwrap(), 2);
        net.gate_mut(g1).pins[1] = Pin::new(g2);
        assert_eq!(net.try_topo_order(), Err(NetlistError::Cyclic));
        assert_eq!(net.try_depth(), Err(NetlistError::Cyclic));
    }

    #[test]
    fn try_compact_rejects_dangling_references() {
        let (mut net, g1, g2) = and_or_net();
        net.kill(g1); // g2 still reads g1
        assert!(matches!(
            net.try_compact(),
            Err(NetlistError::DanglingPin { gate }) if gate == g2
        ));
        // The failed compact left the arena untouched (tombstone included).
        assert_eq!(net.num_gate_slots(), 5);
    }

    #[test]
    fn dump_contains_gates() {
        let (net, _, _) = and_or_net();
        let d = net.dump();
        assert!(d.contains("and"));
        assert!(d.contains("or"));
        assert!(d.contains("output y"));
    }
}
