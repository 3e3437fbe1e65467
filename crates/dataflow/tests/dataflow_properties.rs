//! Property-based validation of the dataflow engine on random networks:
//! every untestability proof must be confirmed by the ATPG oracle, and
//! every constant claim must agree with exhaustive
//! simulation over all input vectors.

use proptest::prelude::*;

use kms_analysis::{AnalysisOptions, FaultRef, StaticAnalysis};
use kms_atpg::{analyze, Engine, FaultSite, ParallelOptions};
use kms_dataflow::{DataflowAnalysis, DataflowOptions};
use kms_gen::random::{random_network, RandomNetworkSpec};
use kms_netlist::Network;

fn built(net: &Network) -> (StaticAnalysis<'_>, DataflowAnalysis<'_>) {
    let base = StaticAnalysis::build(net, &AnalysisOptions::default());
    let df = DataflowAnalysis::build(net, &base, &DataflowOptions::default());
    (base, df)
}

/// The shared-CNF ATPG oracle, which never consults the passes under
/// test.
fn oracle_engine() -> Engine {
    Engine::SharedSat(ParallelOptions {
        jobs: 1,
        ..Default::default()
    })
}

/// Simulates all `2^n` input vectors and returns, per gate slot, the
/// constant value the gate held across every vector (`None` when it
/// toggled). Dead gates report constant `false`; callers must filter.
fn exhaustive_constants(net: &Network) -> Vec<Option<bool>> {
    let n = net.inputs().len();
    assert!(n <= 12, "exhaustive simulation capped at 12 inputs");
    let vectors = 1u64 << n;
    let chunks = vectors.div_ceil(64).max(1);
    let mut all_ones = vec![true; net.num_gate_slots()];
    let mut all_zeros = vec![true; net.num_gate_slots()];
    // Low 6 inputs cycle within a word; the rest select the chunk.
    let patterns = [
        0xAAAA_AAAA_AAAA_AAAAu64,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    let mask = if vectors >= 64 {
        !0u64
    } else {
        (1u64 << vectors) - 1
    };
    for chunk in 0..chunks {
        let words: Vec<u64> = (0..n)
            .map(|i| {
                if i < 6 {
                    patterns[i]
                } else if chunk >> (i - 6) & 1 == 1 {
                    !0
                } else {
                    0
                }
            })
            .collect();
        let vals = net.node_words(&words);
        for (slot, &w) in vals.iter().enumerate() {
            if w & mask != mask {
                all_ones[slot] = false;
            }
            if w & mask != 0 {
                all_zeros[slot] = false;
            }
        }
    }
    all_ones
        .into_iter()
        .zip(all_zeros)
        .map(|(one, zero)| match (one, zero) {
            (true, false) => Some(true),
            (false, true) => Some(false),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Soundness: a fault the dataflow tier proves untestable is
    /// classified redundant by the full ATPG oracle, whose verdict is
    /// independent of the pass under test.
    #[test]
    fn dataflow_proofs_confirmed_by_oracle(
        seed in any::<u64>(),
        inputs in 3usize..8,
        gates in 5usize..28,
    ) {
        let net = random_network(seed, RandomNetworkSpec {
            inputs,
            gates,
            outputs: 2,
            max_fanin: 3,
            max_delay: 2,
        });
        let (base, df) = built(&net);
        let report = analyze(&net, oracle_engine());
        for (f, v) in report.faults.iter().zip(&report.verdicts) {
            let site = match f.site {
                FaultSite::GateOutput(g) => FaultRef::Output(g),
                FaultSite::Conn(c) => FaultRef::Conn(c),
            };
            if let Some(w) = df.prove_untestable(&base, site, f.stuck) {
                prop_assert!(
                    v.is_redundant(),
                    "dataflow proved {site} stuck-at-{} via {} but the oracle \
                     found it testable",
                    f.stuck as u8,
                    w.kind(),
                );
            }
        }
    }

    /// Soundness of every constant claim (seeded, ternary, cofactor,
    /// learned): the node must hold that value on all `2^n` vectors.
    #[test]
    fn constants_agree_with_exhaustive_simulation(
        seed in any::<u64>(),
        inputs in 2usize..9,
        gates in 4usize..32,
    ) {
        let net = random_network(seed, RandomNetworkSpec {
            inputs,
            gates,
            outputs: 3,
            max_fanin: 3,
            max_delay: 2,
        });
        let (_, df) = built(&net);
        let truth = exhaustive_constants(&net);
        for g in net.gate_ids() {
            if net.gate(g).is_dead() {
                continue;
            }
            if let Some(v) = df.node_constant(g) {
                prop_assert_eq!(
                    truth[g.index()], Some(v),
                    "dataflow claims {} constant {} but simulation disagrees",
                    g, v as u8
                );
            }
        }
    }
}

#[test]
fn exhaustive_constants_finds_tautology() {
    use kms_netlist::{Delay, GateKind};
    let mut net = Network::new("t");
    let a = net.add_input("a");
    let na = net.add_gate(GateKind::Not, &[a], Delay::UNIT);
    let taut = net.add_gate(GateKind::Or, &[a, na], Delay::UNIT);
    net.add_output("y", taut);
    let truth = exhaustive_constants(&net);
    assert_eq!(truth[taut.index()], Some(true));
    assert_eq!(truth[a.index()], None);
}
