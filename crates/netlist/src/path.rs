use std::fmt;

use crate::delay::Delay;
use crate::gate::{ConnRef, GateId, GateKind};
use crate::network::Network;

/// A path through a network (Definition 4.2): an alternating sequence of
/// connections and gates `{c0, g0, c1, g1, …, cn, gn, c(n+1)}`.
///
/// The representation stores the connections `c0…cn` as [`ConnRef`]s — the
/// gates along the path are the sinks of those connections — plus the index
/// of the primary output the final connection `c(n+1)` reaches. Defining
/// paths over *connections* rather than gates keeps two parallel connections
/// between the same pair of gates distinct, exactly as the paper requires.
///
/// An *IO-path* (Section VII) starts at a primary input and ends at a
/// primary output; [`Path::validate`] checks the chaining and
/// [`Path::is_io_path`] the endpoints.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Path {
    conns: Vec<ConnRef>,
    po: usize,
}

impl Path {
    /// Creates a path from its connections and terminating primary-output
    /// index.
    ///
    /// # Panics
    ///
    /// Panics if `conns` is empty. Use [`Path::validate`] to check chaining
    /// against a network.
    pub fn new(conns: Vec<ConnRef>, po: usize) -> Self {
        assert!(!conns.is_empty(), "a path has at least one connection");
        Path { conns, po }
    }

    /// The connections `c0…cn` along the path.
    pub fn conns(&self) -> &[ConnRef] {
        &self.conns
    }

    /// The first connection `c0` — the edge whose stuck-at faults the KMS
    /// algorithm targets ("the first edge of P", Section VI).
    pub fn first_conn(&self) -> ConnRef {
        self.conns[0]
    }

    /// The index of the primary output this path terminates at.
    pub fn output_index(&self) -> usize {
        self.po
    }

    /// The gates `g0…gn` along the path, in order.
    pub fn gates(&self) -> impl Iterator<Item = GateId> + '_ {
        self.conns.iter().map(|c| c.gate)
    }

    /// The last gate `gn` on the path.
    pub fn last_gate(&self) -> GateId {
        self.conns.last().expect("paths are nonempty").gate
    }

    /// The gate driving `c0` (a primary input for IO-paths).
    pub fn source(&self, net: &Network) -> GateId {
        net.pin(self.conns[0]).src
    }

    /// The number of gates along the path.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// `false`; paths are never empty (kept for clippy symmetry).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The length `d(P) = Σ d(gi) + Σ d(ci)` of the path (Definition 4.6).
    ///
    /// The final connection to the primary output is treated as delay-free.
    pub fn length(&self, net: &Network) -> Delay {
        self.conns
            .iter()
            .map(|&c| net.pin(c).wire_delay + net.gate(c.gate).delay)
            .sum()
    }

    /// The event time `τi` at which the propagating event reaches the output
    /// of gate `gi` (the i-th gate along the path), counted from the path's
    /// source. Used by viability analysis (Section V.1).
    pub fn event_time(&self, net: &Network, i: usize) -> Delay {
        self.conns[..=i]
            .iter()
            .map(|&c| net.pin(c).wire_delay + net.gate(c.gate).delay)
            .sum()
    }

    /// The side-inputs to the path (Definition 4.10): for every gate `gi`
    /// along the path, the input connections of `gi` other than `ci`.
    ///
    /// Yielded as `(i, conn)` pairs where `i` is the position of the gate
    /// along the path, in path and pin order.
    pub fn side_inputs<'a>(
        &'a self,
        net: &'a Network,
    ) -> impl Iterator<Item = (usize, ConnRef)> + 'a {
        self.conns.iter().enumerate().flat_map(move |(i, &c)| {
            (0..net.gate(c.gate).fanin())
                .filter(move |&pin| pin != c.pin)
                .map(move |pin| (i, ConnRef::new(c.gate, pin)))
        })
    }

    /// Checks that consecutive connections chain (`ci+1`'s source is `gi`),
    /// that every referenced gate is live, and that the terminating output
    /// index exists and is driven by the last gate.
    pub fn validate(&self, net: &Network) -> bool {
        for w in self.conns.windows(2) {
            let (prev, next) = (w[0], w[1]);
            if next.gate.index() >= net.num_gate_slots()
                || net.gate(next.gate).is_dead()
                || next.pin >= net.gate(next.gate).fanin()
                || net.pin(next).src != prev.gate
            {
                return false;
            }
        }
        let first = self.conns[0];
        if first.gate.index() >= net.num_gate_slots()
            || net.gate(first.gate).is_dead()
            || first.pin >= net.gate(first.gate).fanin()
        {
            return false;
        }
        self.po < net.outputs().len() && net.outputs()[self.po].src == self.last_gate()
    }

    /// `true` if the path starts at a primary input (and, by construction,
    /// ends at a primary output): an IO-path in the sense of Section VII.
    pub fn is_io_path(&self, net: &Network) -> bool {
        net.gate(self.source(net)).kind == GateKind::Input && self.validate(net)
    }

    /// A stable, human-readable rendering: `pi -> g3.0 -> g7.1 -> po[k]`.
    pub fn describe(&self, net: &Network) -> String {
        let mut s = String::new();
        let src = self.source(net);
        let src_name = net
            .gate(src)
            .name
            .clone()
            .unwrap_or_else(|| src.to_string());
        s.push_str(&src_name);
        for c in &self.conns {
            s.push_str(" -> ");
            s.push_str(&c.to_string());
        }
        s.push_str(&format!(" -> po[{}]", self.po));
        s
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.conns.iter().enumerate() {
            if i > 0 {
                f.write_str(" -> ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, " -> po[{}]", self.po)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Delay, GateKind, Network};

    /// a ──┬─ g1(and) ── g2(or) ── y
    /// b ──┘             │
    /// c ────────────────┘
    fn chain() -> (Network, Path) {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let g1 = net.add_gate(GateKind::And, &[a, b], Delay::new(2));
        let g2 = net.add_gate(GateKind::Or, &[g1, c], Delay::new(3));
        net.add_output("y", g2);
        let path = Path::new(vec![ConnRef::new(g1, 0), ConnRef::new(g2, 0)], 0);
        (net, path)
    }

    #[test]
    fn validate_and_endpoints() {
        let (net, path) = chain();
        assert!(path.validate(&net));
        assert!(path.is_io_path(&net));
        assert_eq!(path.source(&net), net.input_by_name("a").unwrap());
        assert_eq!(path.len(), 2);
    }

    #[test]
    fn length_sums_gate_and_wire_delays() {
        let (net, path) = chain();
        assert_eq!(path.length(&net), Delay::new(5));
        assert_eq!(path.event_time(&net, 0), Delay::new(2));
        assert_eq!(path.event_time(&net, 1), Delay::new(5));
    }

    #[test]
    fn side_inputs_enumerated() {
        let (net, path) = chain();
        let sides: Vec<_> = path.side_inputs(&net).collect();
        assert_eq!(sides.len(), 2);
        // Side input of g1 is pin 1 (input b); of g2 is pin 1 (input c).
        assert_eq!(sides[0].0, 0);
        assert_eq!(sides[0].1.pin, 1);
        assert_eq!(sides[1].0, 1);
        assert_eq!(sides[1].1.pin, 1);
    }

    #[test]
    fn broken_chain_rejected() {
        let (net, path) = chain();
        let bad = Path::new(vec![path.conns()[1], path.conns()[0]], 0);
        assert!(!bad.validate(&net));
    }

    #[test]
    fn wrong_output_rejected() {
        let (net, path) = chain();
        let bad = Path::new(path.conns()[..1].to_vec(), 0);
        // Ends at g1, which does not drive output 0.
        assert!(!bad.validate(&net));
    }

    #[test]
    fn describe_mentions_source_name() {
        let (net, path) = chain();
        let d = path.describe(&net);
        assert!(d.starts_with('a'), "{d}");
        assert!(d.contains("po[0]"));
        assert!(!path.is_empty());
        assert!(path.to_string().contains("->"));
    }
}
