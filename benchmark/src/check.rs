//! Independent checks of one `kms` output: the paper's three guarantees,
//! decided without the engine under test.
//!
//! * Equivalence of the written BLIF to the input: exhaustive simulation
//!   up to [`EXHAUSTIVE_INPUTS`] inputs, a SAT miter above that.
//! * Full single-stuck-at testability, with the per-fault `Engine::Sat`
//!   (the pipeline runs the shared engine, so the two share no search).
//! * No delay increase under the Table I rule: viability up to
//!   [`EXHAUSTIVE_INPUTS`] inputs, static sensitization above.

use kms::atpg::{analyze, Engine};
use kms::blif::parse_blif;
use kms::netlist::{transform, Network};
use kms::sat::check_equivalence;
use kms::timing::{computed_delay, InputArrivals, PathCondition, Time};

use crate::pipeline::{read_input, Output};
use crate::workload::Input;

/// Widest circuit checked by exhaustive simulation and timed with the
/// BDD-backed viability condition.
const EXHAUSTIVE_INPUTS: usize = 16;

/// The computed delay of `net` under the Table I rule. The BDD viability
/// oracle is exponential in the input count, so wide circuits use static
/// sensitization with a bounded path-enumeration effort, as `table1` does.
fn table1_delay(net: &Network, arrivals: &InputArrivals) -> Result<Time, String> {
    let (condition, cap) = if net.inputs().len() <= EXHAUSTIVE_INPUTS {
        (PathCondition::Viability, 1 << 22)
    } else {
        (PathCondition::StaticSensitization, 200_000)
    };
    computed_delay(net, arrivals, condition, cap)
        .map(|r| r.delay)
        .map_err(|e| e.to_string())
}

/// Sizes and delays of a circuit that passed the checks.
pub struct Checked {
    /// Input simple-gate count.
    pub gates_in: usize,
    /// Input computed delay.
    pub delay_in: Time,
    /// Output simple-gate count.
    pub gates_out: usize,
    /// Output computed delay.
    pub delay_out: Time,
}

/// Checks the output `kms` produced from `input`: the network it wrote
/// from and the bytes it wrote.
pub fn check(input: &Input, out: &Output) -> Result<Checked, String> {
    let (before, arrivals) = read_input(input)?;
    let delay_in = table1_delay(&before, &arrivals)?;
    let mut written = parse_blif(&out.blif)
        .map_err(|e| format!("output BLIF does not parse: {e}"))?
        .network;
    transform::decompose_to_simple(&mut written);
    if written.inputs().len() != before.inputs().len()
        || written.outputs().len() != before.outputs().len()
    {
        return Err("output interface differs from the input's".into());
    }
    let equivalent = if before.inputs().len() <= EXHAUSTIVE_INPUTS {
        before.exhaustive_equiv(&written).is_ok()
    } else {
        check_equivalence(&before, &written).is_equivalent()
    };
    if !equivalent {
        return Err("output is not equivalent to the input".into());
    }
    if !analyze(&out.net, Engine::Sat).fully_testable() {
        return Err("output is not fully testable".into());
    }
    let delay_out = table1_delay(&out.net, &arrivals)?;
    if delay_out > delay_in {
        return Err(format!(
            "computed delay grew from {delay_in} to {delay_out}"
        ));
    }
    Ok(Checked {
        gates_in: before.simple_gate_count(),
        delay_in,
        gates_out: out.net.simple_gate_count(),
        delay_out,
    })
}

/// Why a finished run does not count as a success, if it does not: a
/// degraded result or a rejected certificate. `kms` exits nonzero on both.
pub fn run_problem(out: &Output) -> Option<String> {
    if out.report.unknown > 0 {
        return Some(format!("{} faults left undecided", out.report.unknown));
    }
    match &out.report.certification {
        Some(c) if !c.all_verified() => Some(format!(
            "{} of {} proofs rejected",
            c.proofs_failed, c.proofs_emitted
        )),
        _ => None,
    }
}
