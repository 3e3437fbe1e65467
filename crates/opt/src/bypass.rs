//! The **bypass (skip) transform**: the redundancy-introducing performance
//! optimization of the paper's premise.
//!
//! Section III explains the carry-skip adder: when every propagate bit of
//! a block is high, the block's carry chain is *transparent* and an extra
//! AND + MUX lets the late carry skip it. This module generalizes that
//! construction to any chain of simple gates on the critical path:
//!
//! 1. find the longest path and its longest suffix that is a chain of
//!    2-input AND/OR (plus NOT/BUF) gates;
//! 2. build the *transparency condition* — the AND of all chain
//!    side-inputs at their noncontrolling values;
//! 3. add a MUX that selects the chain's (parity-corrected) input directly
//!    when the condition holds.
//!
//! The transform preserves function, reduces the *computed* (viable) delay
//! when the chain input is late, **increases** the topological delay, and
//! introduces stuck-at redundancies — the exact pathology the KMS
//! algorithm repairs. Applied to a ripple-carry adder with a late carry-in
//! it literally reconstructs the carry-skip adder.

use kms_netlist::{ConnRef, DelayModel, GateId, GateKind, Network, Path};
use kms_timing::{InputArrivals, PathEnumerator};

/// Options for [`bypass_transform`].
#[derive(Clone, Copy, Debug)]
pub struct BypassOptions {
    /// Minimum number of AND/OR gates in the bypassed chain (shorter
    /// chains are not worth a MUX).
    pub min_chain_gates: usize,
    /// Delay model used for the new condition/MUX gates.
    pub model: DelayModel,
}

impl Default for BypassOptions {
    fn default() -> Self {
        BypassOptions {
            min_chain_gates: 3,
            model: DelayModel::Unit,
        }
    }
}

/// What a bypass application did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BypassReport {
    /// `true` if a chain was found and bypassed.
    pub applied: bool,
    /// Number of AND/OR gates in the bypassed chain.
    pub chain_gates: usize,
    /// The MUX gate added, when applied.
    pub mux: Option<GateId>,
}

/// `true` for gate kinds a bypass chain may traverse.
fn chain_kind(kind: GateKind, fanin: usize) -> bool {
    match kind {
        GateKind::And | GateKind::Or => fanin == 2,
        GateKind::Not | GateKind::Buf => true,
        _ => false,
    }
}

/// Finds the longest bypassable suffix of `path`: returns the start index
/// into `path.conns()` (the suffix runs to the end of the path).
fn bypass_suffix(net: &Network, path: &Path) -> Option<usize> {
    let conns = path.conns();
    let mut start = None;
    for i in (0..conns.len()).rev() {
        let g = net.gate(conns[i].gate);
        if chain_kind(g.kind, g.pins.len()) {
            start = Some(i);
        } else {
            break;
        }
    }
    start
}

/// Applies one bypass transform to the current critical path of `net`.
///
/// Returns a report; the network is unchanged when no suitable chain
/// exists. The chain's output consumers (including primary outputs) are
/// rewired to the new MUX.
pub fn bypass_transform(
    net: &mut Network,
    arrivals: &InputArrivals,
    options: BypassOptions,
) -> BypassReport {
    let not_applied = BypassReport {
        applied: false,
        chain_gates: 0,
        mux: None,
    };
    let Some((path, _len)) = PathEnumerator::new(net, arrivals).next() else {
        return not_applied;
    };
    let Some(start) = bypass_suffix(net, &path) else {
        return not_applied;
    };
    let conns = &path.conns()[start..];
    let chain_gates = conns
        .iter()
        .filter(|c| matches!(net.gate(c.gate).kind, GateKind::And | GateKind::Or))
        .count();
    // At least one AND/OR gate is required to build the condition.
    if chain_gates < options.min_chain_gates.max(1) {
        return not_applied;
    }
    let model = options.model;
    let d_not = model.gate_delay(GateKind::Not);
    let d_and = model.gate_delay(GateKind::And);
    let d_mux = model.gate_delay(GateKind::Mux);

    // Record the chain output's consumers before adding new gates.
    let chain_out = conns.last().expect("chain nonempty").gate;
    let consumers: Vec<ConnRef> = net.fanouts()[chain_out.index()].to_vec();
    let po_idxs: Vec<usize> = net
        .outputs()
        .iter()
        .enumerate()
        .filter(|(_, o)| o.src == chain_out)
        .map(|(i, _)| i)
        .collect();

    // Transparency condition: all side inputs noncontrolling.
    let mut cond_terms: Vec<GateId> = Vec::new();
    let mut parity = false;
    for &c in conns {
        let g = net.gate(c.gate);
        match g.kind {
            GateKind::And | GateKind::Or => {
                let nc = g
                    .kind
                    .noncontrolling_value()
                    .expect("and/or have noncontrolling values");
                let side_pin = 1 - c.pin;
                let side_src = g.pins[side_pin].src;
                let term = if nc {
                    side_src
                } else {
                    net.add_gate(GateKind::Not, &[side_src], d_not)
                };
                cond_terms.push(term);
            }
            GateKind::Not => parity = !parity,
            GateKind::Buf => {}
            _ => unreachable!("chain_kind filtered other kinds"),
        }
    }
    let cond = if cond_terms.len() == 1 {
        cond_terms[0]
    } else {
        net.add_gate(GateKind::And, &cond_terms, d_and)
    };

    // The bypassed value: the chain's input, parity-corrected.
    let first = conns[0];
    let chain_in = net.pin(first).src;
    let bypass = if parity {
        net.add_gate(GateKind::Not, &[chain_in], d_not)
    } else {
        chain_in
    };

    // out' = cond ? bypass : chain_out.
    let mux = net.add_gate(GateKind::Mux, &[cond, chain_out, bypass], d_mux);
    for c in consumers {
        net.gate_mut(c.gate).pins[c.pin].src = mux;
    }
    for i in po_idxs {
        net.set_output_src(i, mux);
    }
    debug_assert!(net.validate().is_ok());
    BypassReport {
        applied: true,
        chain_gates,
        mux: Some(mux),
    }
}

/// Applies the bypass transform up to `rounds` times (each round targets
/// the then-current critical path). Returns the reports of the applied
/// rounds.
pub fn bypass_repeatedly(
    net: &mut Network,
    arrivals: &InputArrivals,
    options: BypassOptions,
    rounds: usize,
) -> Vec<BypassReport> {
    let mut out = Vec::new();
    for _ in 0..rounds {
        let r = bypass_transform(net, arrivals, options);
        if !r.applied {
            break;
        }
        out.push(r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kms_gen::adders::ripple_carry_adder;
    use kms_netlist::transform;
    use kms_timing::{computed_delay, PathCondition, Sta};

    fn late_cin_arrivals(net: &Network, t: i64) -> InputArrivals {
        let cin = net.input_by_name("cin").expect("adders expose cin");
        InputArrivals::zero().with(cin, t)
    }

    #[test]
    fn reconstructs_carry_skip_on_ripple_adder() {
        let mut net = ripple_carry_adder(4, DelayModel::Unit);
        let orig = net.clone();
        let arr = late_cin_arrivals(&net, 8);
        let before = Sta::run(&net, &arr).delay();
        let r = bypass_transform(&mut net, &arr, BypassOptions::default());
        assert!(r.applied);
        assert!(r.chain_gates >= 3);
        // Function preserved.
        orig.exhaustive_equiv(&net).unwrap();
        // Topological delay grew (the chain now also traverses the MUX)…
        let topo_after = Sta::run(&net, &arr).delay();
        assert!(topo_after > before);
        // …but the computed (viable) delay shrank: the late cin skips.
        let mut simple = net.clone();
        transform::decompose_to_simple(&mut simple);
        let via = computed_delay(&simple, &arr, PathCondition::Viability, 1 << 22).unwrap();
        assert!(
            via.delay < before,
            "viable delay {} must beat the ripple delay {}",
            via.delay,
            before
        );
    }

    #[test]
    fn bypass_introduces_redundancy() {
        let mut net = ripple_carry_adder(4, DelayModel::Unit);
        let arr = late_cin_arrivals(&net, 8);
        bypass_transform(&mut net, &arr, BypassOptions::default());
        let mut simple = net;
        transform::decompose_to_simple(&mut simple);
        let n = kms_atpg::redundancy_count(&simple, kms_atpg::Engine::Sat);
        assert!(n > 0, "the skip structure must be redundant");
    }

    #[test]
    fn no_chain_no_change() {
        // A single XOR has no bypassable suffix.
        let mut net = Network::new("x");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate(GateKind::Xor, &[a, b], kms_netlist::Delay::new(2));
        net.add_output("y", g);
        let before = net.num_gate_slots();
        let r = bypass_transform(&mut net, &InputArrivals::zero(), BypassOptions::default());
        assert!(!r.applied);
        assert_eq!(net.num_gate_slots(), before);
    }

    #[test]
    fn short_chains_rejected() {
        let mut net = Network::new("s");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g1 = net.add_gate(GateKind::And, &[a, b], kms_netlist::Delay::UNIT);
        let g2 = net.add_gate(GateKind::Or, &[g1, b], kms_netlist::Delay::UNIT);
        net.add_output("y", g2);
        let r = bypass_transform(&mut net, &InputArrivals::zero(), BypassOptions::default());
        assert!(!r.applied, "2-gate chain is below the default threshold");
        let r = bypass_transform(
            &mut net,
            &InputArrivals::zero(),
            BypassOptions {
                min_chain_gates: 2,
                ..Default::default()
            },
        );
        assert!(r.applied);
    }

    #[test]
    fn parity_corrected_through_inverters() {
        // Chain with a NOT inside: bypass must re-invert.
        let mut net = Network::new("p");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let d = net.add_input("d");
        let g1 = net.add_gate(GateKind::And, &[a, b], kms_netlist::Delay::UNIT);
        let n1 = net.add_gate(GateKind::Not, &[g1], kms_netlist::Delay::UNIT);
        let g2 = net.add_gate(GateKind::Or, &[n1, c], kms_netlist::Delay::UNIT);
        let g3 = net.add_gate(GateKind::And, &[g2, d], kms_netlist::Delay::UNIT);
        net.add_output("y", g3);
        let orig = net.clone();
        let arr = InputArrivals::zero().with(a, 10);
        let r = bypass_transform(
            &mut net,
            &arr,
            BypassOptions {
                min_chain_gates: 2,
                ..Default::default()
            },
        );
        assert!(r.applied);
        orig.exhaustive_equiv(&net).unwrap();
    }

    #[test]
    fn repeated_rounds_stop() {
        let mut net = ripple_carry_adder(8, DelayModel::Unit);
        let orig = net.clone();
        let arr = late_cin_arrivals(&net, 16);
        let reports = bypass_repeatedly(&mut net, &arr, BypassOptions::default(), 8);
        assert!(!reports.is_empty());
        assert!(reports.len() <= 8);
        orig.exhaustive_equiv(&net).unwrap();
    }
}
