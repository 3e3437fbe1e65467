//! One circuit through exactly what `kms <in.blif>` does (`src/bin/kms.rs`
//! `run`): parse the BLIF, lower to simple gates, apply the unit delay
//! model, run `kms_with_control` with the command line's options, and
//! write the result back as BLIF.

use kms::atpg::{Engine, ParallelOptions};
use kms::blif::{parse_blif, write_blif};
use kms::core::{kms_with_control, Condition, KmsOptions, KmsReport, RunControl};
use kms::netlist::{transform, DelayModel, Network};
use kms::timing::InputArrivals;

use crate::workload::{Flags, Input};

/// The options `kms` builds from its defaults plus `-j`/`--certify`:
/// static sensitization, the shared classification engine, no prescreens,
/// incremental timing on.
pub fn cli_options(flags: Flags) -> KmsOptions {
    KmsOptions {
        condition: Condition::StaticSensitization,
        engine: Engine::SharedSat(ParallelOptions {
            jobs: flags.jobs,
            ..Default::default()
        }),
        certify: flags.certify,
        ..Default::default()
    }
}

/// The network `kms` hands to the algorithm: parsed, decomposed, with unit
/// delays, and its `-a` arrivals.
pub fn read_input(input: &Input) -> Result<(Network, InputArrivals), String> {
    let circuit = parse_blif(&input.blif).map_err(|e| format!("{}: {e}", input.name))?;
    let mut net = circuit.network;
    transform::decompose_to_simple(&mut net);
    net.apply_delay_model(DelayModel::Unit);
    let arrivals = arrivals_of(&net, input)?;
    Ok((net, arrivals))
}

/// Resolves `input.arrivals` against `net`'s input names, as `kms -a` does.
pub fn arrivals_of(net: &Network, input: &Input) -> Result<InputArrivals, String> {
    let mut arrivals = InputArrivals::zero();
    for (name, t) in &input.arrivals {
        let id = net
            .input_by_name(name)
            .ok_or_else(|| format!("{}: no such input {name:?}", input.name))?;
        arrivals.set(id, *t);
    }
    Ok(arrivals)
}

/// What one run of the pipeline produced.
pub struct Output {
    /// The result BLIF, byte for byte what `kms` would print.
    pub blif: String,
    /// The network the BLIF was written from.
    pub net: Network,
    /// The program's own report.
    pub report: KmsReport,
}

/// Runs the whole pipeline on one input. An `Err` is a failed run.
pub fn run(input: &Input, flags: Flags) -> Result<Output, String> {
    let (mut net, arrivals) = read_input(input)?;
    let report = kms_with_control(
        &mut net,
        &arrivals,
        cli_options(flags),
        RunControl::default(),
    )
    .map_err(|e| format!("{}: {e}", input.name))?
    .ok_or_else(|| format!("{}: run without stop_after did not complete", input.name))?;
    Ok(Output {
        blif: write_blif(&net),
        net,
        report,
    })
}
