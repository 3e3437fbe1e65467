//! The Table I benchmark flow: PLA → area optimization → multi-level
//! decomposition → timing optimization (bypass).
//!
//! This reproduces the preparation the paper applies to the MCNC rows:
//! "circuits from the MCNC benchmark set that have been optimized for
//! delay using the timing optimization commands in MIS-II on circuits that
//! had been initially optimized for area" (Section VIII).

use kms_blif::PlaFile;
use kms_netlist::{DelayModel, Network};
use kms_timing::InputArrivals;
use kms_twolevel::{espresso, synth, Cover, EspressoOptions};

use crate::balance::balance_fanin;
use crate::bypass::{bypass_repeatedly, BypassOptions, BypassReport};

/// Options for the full benchmark preparation flow.
#[derive(Clone, Copy, Debug)]
pub struct FlowOptions {
    /// Two-level minimization is applied per output only up to this input
    /// count (complement-based EXPAND is exponential in the worst case);
    /// wider functions get containment-based cleanup only.
    pub max_espresso_inputs: usize,
    /// Fanin bound for the balanced multi-level decomposition.
    pub max_fanin: usize,
    /// Delay model applied to the final network.
    pub model: DelayModel,
    /// Bypass rounds for the timing-optimization step.
    pub bypass_rounds: usize,
    /// Minimum chain length for a bypass.
    pub min_chain_gates: usize,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            max_espresso_inputs: 12,
            max_fanin: 2,
            model: DelayModel::Unit,
            bypass_rounds: 4,
            min_chain_gates: 3,
        }
    }
}

/// Area-optimizes a PLA into a multi-level network: per-output two-level
/// minimization (espresso), shared-inverter SOP synthesis, and balanced
/// tree decomposition, with the delay model applied.
pub fn area_optimize(pla: &PlaFile, name: &str, options: FlowOptions) -> Network {
    let covers: Vec<(String, Cover)> = (0..pla.num_outputs)
        .map(|o| {
            let (on, dc) = synth::pla_output_covers(pla, o);
            let minimized = if pla.num_inputs <= options.max_espresso_inputs {
                espresso(&on, &dc, EspressoOptions::default())
            } else {
                let mut c = on.clone();
                c.remove_contained();
                c
            };
            (pla.output_labels[o].clone(), minimized)
        })
        .collect();
    let mut net = synth::covers_to_network(name, &pla.input_labels, &covers);
    balance_fanin(&mut net, options.max_fanin);
    net.apply_delay_model(options.model);
    net
}

/// Timing-optimizes `net` in place with repeated bypass transforms and
/// re-applies the delay model to the new gates. Returns the applied
/// bypasses.
pub fn timing_optimize(
    net: &mut Network,
    arrivals: &InputArrivals,
    options: FlowOptions,
) -> Vec<BypassReport> {
    bypass_repeatedly(
        net,
        arrivals,
        BypassOptions {
            min_chain_gates: options.min_chain_gates,
            model: options.model,
        },
        options.bypass_rounds,
    )
}

/// The full Table I preparation: area-optimize, then timing-optimize, then
/// lower to simple gates (the KMS precondition).
pub fn prepare_benchmark(
    pla: &PlaFile,
    name: &str,
    arrivals_for: impl Fn(&Network) -> InputArrivals,
    options: FlowOptions,
) -> (Network, Vec<BypassReport>) {
    let mut net = area_optimize(pla, name, options);
    let arr = arrivals_for(&net);
    let reports = timing_optimize(&mut net, &arr, options);
    kms_netlist::transform::decompose_to_simple(&mut net);
    net.validate().expect("flow output validates");
    (net, reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kms_gen::mcnc;

    #[test]
    fn area_optimize_preserves_function() {
        let pla = mcnc::rd73();
        let flat = pla.to_network("rd73_flat");
        let opt = area_optimize(&pla, "rd73_opt", FlowOptions::default());
        flat.exhaustive_equiv(&opt).unwrap();
        assert!(opt.is_simple());
    }

    #[test]
    fn area_optimize_merges_cubes() {
        // A PLA whose single output is a·b given as two adjacent
        // minterm rows: minimization must merge them into one cube.
        let mut pla = kms_blif::PlaFile::new(3, 1);
        pla.add_cube("110", "1");
        pla.add_cube("111", "1");
        let flat = pla.to_network("adj_flat");
        let opt = area_optimize(&pla, "adj_opt", FlowOptions::default());
        flat.exhaustive_equiv(&opt).unwrap();
        assert!(
            opt.simple_gate_count() < flat.simple_gate_count(),
            "adjacent minterms must merge"
        );
    }

    #[test]
    fn wide_functions_skip_espresso() {
        let pla = mcnc::random_control_pla(3, 20, 4, 12);
        let opt = area_optimize(&pla, "wide", FlowOptions::default());
        opt.validate().unwrap();
        assert_eq!(opt.inputs().len(), 20);
    }

    #[test]
    fn full_flow_runs_and_stays_equivalent() {
        let pla = mcnc::z4ml();
        let flat = pla.to_network("z4ml_flat");
        let (net, _reports) = prepare_benchmark(
            &pla,
            "z4ml_prep",
            |_| InputArrivals::zero(),
            FlowOptions::default(),
        );
        assert!(net.is_simple());
        flat.exhaustive_equiv(&net).unwrap();
    }
}
