//! Network statistics: the summary numbers the experiment harness and CLI
//! report (gate histograms, fanout distribution, depth, path counts).

use std::collections::BTreeMap;
use std::fmt;

use crate::gate::GateKind;
use crate::network::Network;
use crate::transform::count_io_paths;

/// A structural summary of a network.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NetworkStats {
    /// Live logic gates per kind (mnemonic → count).
    pub gates_by_kind: BTreeMap<&'static str, usize>,
    /// The paper's simple-gate count (zero-delay buffers excluded).
    pub simple_gates: usize,
    /// Primary input / output counts.
    pub inputs: usize,
    /// See [`NetworkStats::inputs`].
    pub outputs: usize,
    /// Maximum gate depth (Definition 4.12).
    pub depth: usize,
    /// Largest fanout of any gate (connections + primary outputs).
    pub max_fanout: usize,
    /// Mean fanout over live logic gates and inputs (×1000, integer).
    pub mean_fanout_milli: usize,
    /// Total IO-path count over all outputs (saturating).
    pub io_paths: u64,
}

impl NetworkStats {
    /// Computes the summary for `net`.
    pub fn of(net: &Network) -> NetworkStats {
        let mut gates_by_kind: BTreeMap<&'static str, usize> = BTreeMap::new();
        let fo = net.fanouts();
        let oc = net.output_counts();
        let mut max_fanout = 0usize;
        let mut fanout_sum = 0usize;
        let mut fanout_n = 0usize;
        for id in net.gate_ids() {
            let g = net.gate(id);
            if g.kind.is_logic() {
                *gates_by_kind.entry(g.kind.mnemonic()).or_insert(0) += 1;
            }
            if matches!(g.kind, GateKind::Const(_)) {
                continue;
            }
            let f = fo[id.index()].len() + oc[id.index()];
            max_fanout = max_fanout.max(f);
            fanout_sum += f;
            fanout_n += 1;
        }
        let io_paths = count_io_paths(net)
            .into_iter()
            .fold(0u64, u64::saturating_add);
        NetworkStats {
            gates_by_kind,
            simple_gates: net.simple_gate_count(),
            inputs: net.inputs().len(),
            outputs: net.outputs().len(),
            depth: net.depth(),
            max_fanout,
            mean_fanout_milli: (fanout_sum * 1000).checked_div(fanout_n).unwrap_or(0),
            io_paths,
        }
    }
}

impl fmt::Display for NetworkStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} inputs, {} outputs, {} simple gates, depth {}, \
             max fanout {}, mean fanout {}.{:03}, {} io-paths",
            self.inputs,
            self.outputs,
            self.simple_gates,
            self.depth,
            self.max_fanout,
            self.mean_fanout_milli / 1000,
            self.mean_fanout_milli % 1000,
            self.io_paths
        )?;
        for (kind, n) in &self.gates_by_kind {
            writeln!(f, "  {kind:>6}: {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Delay, Network};

    #[test]
    fn stats_of_small_net() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g1 = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        let g2 = net.add_gate(GateKind::Not, &[g1], Delay::UNIT);
        net.add_output("y", g2);
        net.add_output("z", g1);
        let s = NetworkStats::of(&net);
        assert_eq!(s.inputs, 2);
        assert_eq!(s.outputs, 2);
        assert_eq!(s.simple_gates, 2);
        assert_eq!(s.depth, 2);
        assert_eq!(s.gates_by_kind["and"], 1);
        assert_eq!(s.gates_by_kind["not"], 1);
        // g1 drives g2 and the PO z: fanout 2.
        assert_eq!(s.max_fanout, 2);
        // Paths: a→g1→g2, b→g1→g2, a→g1(z), b→g1(z) = 4.
        assert_eq!(s.io_paths, 4);
        let text = s.to_string();
        assert!(text.contains("2 simple gates"));
        assert!(text.contains("and: 1"));
    }

    #[test]
    fn empty_network() {
        let net = Network::new("e");
        let s = NetworkStats::of(&net);
        assert_eq!(s.simple_gates, 0);
        assert_eq!(s.io_paths, 0);
        assert_eq!(s.mean_fanout_milli, 0);
    }
}
