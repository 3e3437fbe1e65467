//! `kms` — command-line front end: read a BLIF design, run the KMS
//! delay-preserving redundancy removal, and write the irredundant result.
//!
//! ```text
//! kms [OPTIONS] <input.blif>
//!   -o, --output <file>     write the result as BLIF (default: stdout)
//!   -m, --model <unit|section3>
//!                           delay model applied to the simple-gate network
//!   -c, --condition <static|viability>
//!                           while-loop condition (default: static)
//!   -a, --arrival <input>=<time>
//!                           per-input arrival offset (repeatable)
//!       --certify           log a DRAT proof for every UNSAT verdict the
//!                           run depends on and re-check each with the
//!                           independent proof checker
//!       --fault-budget <spec>
//!                           per-fault solver budget for the removal phase:
//!                           a bare number caps conflicts; or comma-separated
//!                           conflicts=N,props=N,ms=N. A fault whose query
//!                           exhausts the budget is reported Unknown and
//!                           the run completes degraded (exit 3)
//!       --max-iterations <n>
//!                           cap the delay-reduction loop at n iterations
//!                           (default 10000); a capped run completes
//!                           degraded (exit 3) and reports the computed
//!                           viability delay of the input and the output,
//!                           marked unproved when the effort cap cut
//!                           either measurement short
//!       --checkpoint <file> write a digest-guarded checkpoint after each
//!                           loop iteration; a completed run removes it
//!       --resume <file>     resume a previous run from its checkpoint
//!                           (the input, arrivals, and semantic options
//!                           must match — guarded by a fingerprint)
//!   -f, --format <text|json>
//!                           report format on stderr (default: text); json
//!                           includes per-phase solver counters and the
//!                           certification ledger
//!   -q, --quiet             suppress the report
//! ```
//!
//! Exit status: 0 on success, 1 when a `--certify` proof fails to check,
//! 2 on usage errors or when the input fails to read or parse, 3 when the
//! run completed but degraded — some faults stayed Unknown under
//! `--fault-budget` (or after an isolated classification panic), so full
//! testability of the result was not proved; or the loop hit its
//! iteration cap, so the result may be slower than the input.

use std::error::Error;
use std::io::Read as _;

use kms::atpg::{Engine, FaultBudget, ParallelOptions};
use kms::blif::{parse_blif, write_blif};
use kms::core::{kms_with_control, Checkpoint, Condition, KmsOptions, RunControl};
use kms::netlist::json::Json;
use kms::netlist::{err, errln, out};
use kms::netlist::{transform, DelayModel, Network};
use kms::timing::{computed_delay, InputArrivals, PathCondition};

struct Args {
    input: String,
    output: Option<String>,
    model: DelayModel,
    condition: Condition,
    arrivals: Vec<(String, i64)>,
    certify: bool,
    fault_budget: Option<FaultBudget>,
    max_iterations: usize,
    checkpoint: Option<String>,
    resume: Option<String>,
    json: bool,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        input: String::new(),
        output: None,
        model: DelayModel::Unit,
        condition: Condition::StaticSensitization,
        arrivals: Vec::new(),
        certify: false,
        fault_budget: None,
        max_iterations: KmsOptions::default().max_iterations,
        checkpoint: None,
        resume: None,
        json: false,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" | "--output" => args.output = Some(it.next().ok_or("missing value for --output")?),
            "-m" | "--model" => {
                args.model = match it.next().as_deref() {
                    Some("unit") => DelayModel::Unit,
                    Some("section3") => DelayModel::section3(),
                    other => return Err(format!("unknown model {other:?}")),
                }
            }
            "-c" | "--condition" => {
                args.condition = match it.next().as_deref() {
                    Some("static") => Condition::StaticSensitization,
                    Some("viability") => Condition::Viability,
                    other => return Err(format!("unknown condition {other:?}")),
                }
            }
            "-a" | "--arrival" => {
                let spec = it.next().ok_or("missing value for --arrival")?;
                let (name, t) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("expected <input>=<time>, got {spec:?}"))?;
                let t: i64 = t.parse().map_err(|_| format!("bad time in {spec:?}"))?;
                args.arrivals.push((name.to_string(), t));
            }
            "--certify" => args.certify = true,
            "--fault-budget" => {
                let spec = it.next().ok_or("missing value for --fault-budget")?;
                args.fault_budget = Some(FaultBudget::parse(&spec)?);
            }
            "--max-iterations" => {
                let n = it.next().ok_or("missing value for --max-iterations")?;
                args.max_iterations = n
                    .parse()
                    .map_err(|_| format!("bad iteration count {n:?}"))?;
            }
            "--checkpoint" => {
                args.checkpoint = Some(it.next().ok_or("missing value for --checkpoint")?)
            }
            "--resume" => args.resume = Some(it.next().ok_or("missing value for --resume")?),
            "-f" | "--format" => {
                args.json = match it.next().as_deref() {
                    Some("text") => false,
                    Some("json") => true,
                    other => return Err(format!("unknown format {other:?}")),
                }
            }
            "-q" | "--quiet" => args.quiet = true,
            "-h" | "--help" => {
                errln!("usage: kms [-o out.blif] [-m unit|section3] [-c static|viability] [-a input=time]... [--certify] [--fault-budget SPEC] [--max-iterations N] [--checkpoint FILE] [--resume FILE] [-f text|json] <input.blif | ->");
                std::process::exit(0);
            }
            other if args.input.is_empty() => args.input = other.to_string(),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if args.input.is_empty() {
        return Err("missing input file (use '-' for stdin)".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            errln!("error: {e}\nrun with --help for usage");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            errln!("error: {e}");
            std::process::exit(2);
        }
    }
}

fn run(args: &Args) -> Result<i32, Box<dyn Error>> {
    let text = if args.input == "-" {
        let mut s = String::new();
        std::io::stdin().read_to_string(&mut s)?;
        s
    } else {
        std::fs::read_to_string(&args.input)?
    };
    let circuit = parse_blif(&text)?;
    let mut net = circuit.network;
    transform::decompose_to_simple(&mut net);
    net.apply_delay_model(args.model);

    let mut arrivals = InputArrivals::zero();
    for (name, t) in &args.arrivals {
        let id = net
            .input_by_name(name)
            .ok_or_else(|| format!("no such input {name:?}"))?;
        arrivals.set(id, *t);
    }

    let options = KmsOptions {
        condition: args.condition,
        engine: Engine::SharedSat(ParallelOptions {
            fault_budget: args.fault_budget,
            ..Default::default()
        }),
        certify: args.certify,
        max_iterations: args.max_iterations,
        ..Default::default()
    };
    let control = RunControl {
        checkpoint: args.checkpoint.as_ref().map(std::path::PathBuf::from),
        resume: match &args.resume {
            Some(path) => Some(
                Checkpoint::load(std::path::Path::new(path))
                    .map_err(|e| format!("cannot resume from {path}: {e}"))?,
            ),
            None => None,
        },
        stop_after: None,
    };
    let input = net.clone();
    let report = kms_with_control(&mut net, &arrivals, options, control)?
        .expect("a run without stop_after always completes");
    // A capped loop voids Theorem 7.2, so measure what it promised: the
    // viability delay of the input against that of the output. A
    // measurement the effort cap truncated is the topological bound, not
    // a proved viability delay.
    let viability = if report.capped {
        let delay = |n: &Network| {
            computed_delay(n, &arrivals, PathCondition::Viability, options.effort_cap)
        };
        let (before, after) = (delay(&input)?, delay(&net)?);
        Some((
            before.delay,
            after.delay,
            !before.truncated && !after.truncated,
        ))
    } else {
        None
    };

    if !args.quiet && args.json {
        let mut json = report.to_json();
        if let (Json::Object(members), Some((before, after, proved))) = (&mut json, viability) {
            members.push(("viability_delay_before", before.into()));
            members.push(("viability_delay_after", after.into()));
            members.push(("viability_delay_proved", proved.into()));
        }
        errln!("{}", json.compact());
    }
    if !args.quiet && !args.json {
        err!("{}", kms::netlist::NetworkStats::of(&net));
        errln!(
            "{}: gates {} -> {}, loop iterations {}, duplicated {}, \
             redundancies removed {}, topological delay {} -> {}{}",
            net.name(),
            report.gates_before,
            report.gates_after,
            report.iterations.len(),
            report.duplicated_gates,
            report.removed_redundancies.len(),
            report.topological_before,
            report.topological_after,
            if circuit.latches.is_empty() {
                String::new()
            } else {
                format!(" ({} latches cut)", circuit.latches.len())
            }
        );
        let t = &report.timings;
        errln!(
            "phases: engine {:.3?}, path_enum {:.3?}, oracle {:.3?}, transform {:.3?}, atpg {:.3?}",
            t.engine,
            t.path_enum,
            t.oracle,
            t.transform,
            t.atpg
        );
        for (phase, s) in [
            ("oracle", &report.oracle_solver),
            ("atpg", &report.atpg_solver),
        ] {
            errln!(
                "solver[{phase}]: conflicts {}, decisions {}, propagations {}, \
                 restarts {}, learned {}, deleted {}, minimized lits {}, \
                 mean lbd {:.2}, arena gc {}, blocker hits {}",
                s.conflicts,
                s.decisions,
                s.propagations,
                s.restarts,
                s.learned_total,
                s.deleted_total,
                s.minimized_lits,
                if s.learned_total > 0 {
                    s.lbd_sum as f64 / s.learned_total as f64
                } else {
                    0.0
                },
                s.arena_gc,
                s.blocker_hits
            );
        }
    }

    let mut check_failed = false;
    if let Some(certification) = &report.certification {
        if !args.quiet && !args.json {
            err!("{}", certification.render_text());
        }
        if !certification.all_verified() {
            check_failed = true;
            errln!("error: certification failed — some solver verdict has no checkable proof");
        }
    }

    let out = write_blif(&net);
    match &args.output {
        Some(path) => std::fs::write(path, out)?,
        None => out!("{out}"),
    }
    // Degraded (3) outranks a failed certification check (1): with
    // undecided faults the output is not proved fully testable, and a
    // capped loop voids the no-slower guarantee; the caller must learn
    // either before trusting any other verdict.
    if report.unknown > 0 {
        errln!(
            "warning: {} fault(s) left undecided by the removal phase \
             (budget exhausted or classification panicked); the output may still \
             hold redundancies among them",
            report.unknown
        );
    }
    if let Some((before, after, proved)) = viability {
        errln!(
            "warning: the delay-reduction loop hit its cap of {} iterations before \
             a longest path satisfied the condition; the no-slower guarantee does \
             not hold, and the output may be slower than the input \
             (viability delay {before} -> {after}){}",
            options.max_iterations,
            if proved {
                ""
            } else {
                " (unproved: effort cap reached)"
            }
        );
    }
    if report.unknown > 0 || report.capped {
        return Ok(3);
    }
    Ok(i32::from(check_failed))
}
