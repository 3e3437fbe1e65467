use std::fmt;

use kms_netlist::{ConnRef, Fanouts, GateId, GateKind, Network};

/// Where a stuck-at fault lives: on a gate's output stem, or on one input
/// connection (a branch). Connection faults are the ones the KMS algorithm
/// manipulates — "a stuck-at-0 fault and a stuck-at-1 fault on the first
/// edge of P" (Section VI).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FaultSite {
    /// The output of a gate (or a primary input).
    GateOutput(GateId),
    /// A specific input connection of a gate.
    Conn(ConnRef),
}

/// A single stuck-at fault.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Fault {
    /// The fault site.
    pub site: FaultSite,
    /// The stuck value: `false` = stuck-at-0, `true` = stuck-at-1.
    pub stuck: bool,
}

impl Fault {
    /// Stuck-at fault on a gate output.
    pub fn output(gate: GateId, stuck: bool) -> Fault {
        Fault {
            site: FaultSite::GateOutput(gate),
            stuck,
        }
    }

    /// Stuck-at fault on an input connection.
    pub fn conn(conn: ConnRef, stuck: bool) -> Fault {
        Fault {
            site: FaultSite::Conn(conn),
            stuck,
        }
    }

    /// The gate whose evaluation the fault perturbs: the faulty gate
    /// itself for output faults, the sink gate for connection faults.
    pub fn observing_gate(&self) -> GateId {
        match self.site {
            FaultSite::GateOutput(g) => g,
            FaultSite::Conn(c) => c.gate,
        }
    }

    /// The signal source whose good value must differ from the stuck value
    /// for the fault to be excited.
    pub fn excitation_source(&self, net: &Network) -> GateId {
        match self.site {
            FaultSite::GateOutput(g) => g,
            FaultSite::Conn(c) => net.pin(c).src,
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = u8::from(self.stuck);
        match self.site {
            FaultSite::GateOutput(g) => write!(f, "{g} s-a-{v}"),
            FaultSite::Conn(c) => write!(f, "{c} s-a-{v}"),
        }
    }
}

/// The complete single-stuck-at fault universe of a network: both
/// polarities on every live gate output (including primary inputs that
/// feed logic) and on every input connection of every logic gate.
pub fn all_faults(net: &Network) -> Vec<Fault> {
    let mut out = Vec::new();
    for_each_fault(net, &net.fanouts(), &net.output_counts(), |f| out.push(f));
    out
}

/// Calls `emit` on every fault of [`all_faults`], in its order, over the
/// caller's fanout and output-count tables.
fn for_each_fault(
    net: &Network,
    fanouts: &Fanouts,
    output_counts: &[usize],
    mut emit: impl FnMut(Fault),
) {
    for id in net.gate_ids() {
        let g = net.gate(id);
        if matches!(g.kind, GateKind::Const(_)) {
            continue; // constants are already stuck by definition
        }
        let drives_logic = !fanouts[id.index()].is_empty() || output_counts[id.index()] > 0;
        if drives_logic {
            emit(Fault::output(id, false));
            emit(Fault::output(id, true));
        }
        for pin in 0..g.pins.len() {
            let src_kind = net.gate(g.pins[pin].src).kind;
            if matches!(src_kind, GateKind::Const(_)) {
                continue;
            }
            emit(Fault::conn(ConnRef::new(id, pin), false));
            emit(Fault::conn(ConnRef::new(id, pin), true));
        }
    }
}

/// Structurally collapses the fault universe by classic equivalence rules:
///
/// * On a fanout-free connection, the branch fault is equivalent to the
///   stem (gate-output) fault of its driver — keep the stem.
/// * An input stuck at a gate's controlling value is equivalent to the
///   output stuck at the controlled output value — keep the output fault.
/// * NOT/BUF input faults are equivalent to their output faults.
///
/// Collapsing only drops provably equivalent faults; testability verdicts
/// over the collapsed set equal those over the full set. The universe is
/// filtered as it is enumerated, so the full list is never built.
pub fn collapsed_faults(net: &Network) -> Vec<Fault> {
    collapsed_faults_with(net, &net.fanouts())
}

/// [`collapsed_faults`] over `net`'s fanout table `fanouts` (a caller that
/// holds a [`kms_netlist::Topology`] passes its table).
pub(crate) fn collapsed_faults_with(net: &Network, fanouts: &Fanouts) -> Vec<Fault> {
    let output_counts = net.output_counts();
    let mut out = Vec::new();
    for_each_fault(net, fanouts, &output_counts, |f| match f.site {
        FaultSite::GateOutput(_) => out.push(f),
        FaultSite::Conn(c) => {
            let sink = net.gate(c.gate);
            let src = net.pin(c).src;
            let src_fanout = fanouts[src.index()].len() + output_counts[src.index()];
            if src_fanout == 1 {
                // Fanout-free: equivalent to the stem fault.
                return;
            }
            match sink.kind {
                GateKind::Not | GateKind::Buf => {} // ≡ output fault
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    // An input at the controlling value ≡ output stuck at
                    // the controlled value.
                    if Some(f.stuck) != sink.kind.controlling_value() {
                        out.push(f);
                    }
                }
                _ => out.push(f),
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kms_netlist::{Delay, GateKind, Network};

    fn simple() -> Network {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g1 = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        let g2 = net.add_gate(GateKind::Not, &[g1], Delay::UNIT);
        net.add_output("y", g2);
        net
    }

    #[test]
    fn universe_size() {
        let net = simple();
        let faults = all_faults(&net);
        // Outputs: a, b, g1, g2 → 8; conns: g1 has 2 pins, g2 has 1 → 6.
        assert_eq!(faults.len(), 14);
    }

    #[test]
    fn constants_excluded() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let c = net.add_const(true);
        let g = net.add_gate(GateKind::And, &[a, c], Delay::UNIT);
        net.add_output("y", g);
        let faults = all_faults(&net);
        assert!(faults.iter().all(|f| {
            f.excitation_source(&net) != c && !matches!(f.site, FaultSite::GateOutput(x) if x == c)
        }));
    }

    #[test]
    fn collapsing_shrinks_but_keeps_outputs() {
        let net = simple();
        let full = all_faults(&net);
        let collapsed = collapsed_faults(&net);
        assert!(collapsed.len() < full.len());
        // All fanout-free branch faults dropped: only stem faults remain.
        assert!(collapsed
            .iter()
            .all(|f| matches!(f.site, FaultSite::GateOutput(_))));
    }

    #[test]
    fn fanout_branches_kept() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let g1 = net.add_gate(GateKind::And, &[a, a], Delay::UNIT);
        net.add_output("y", g1);
        let collapsed = collapsed_faults(&net);
        // `a` fans out twice: noncontrolling (s-a-1) branch faults kept.
        let branch_faults: Vec<_> = collapsed
            .iter()
            .filter(|f| matches!(f.site, FaultSite::Conn(_)))
            .collect();
        assert_eq!(branch_faults.len(), 2);
        assert!(branch_faults.iter().all(|f| f.stuck));
    }

    #[test]
    fn display_and_accessors() {
        let net = simple();
        let g1 = net.gate_ids().nth(2).unwrap();
        let f = Fault::conn(ConnRef::new(g1, 1), true);
        assert!(f.to_string().contains("s-a-1"));
        assert_eq!(f.observing_gate(), g1);
        assert_eq!(f.excitation_source(&net), net.input_by_name("b").unwrap());
    }
}
