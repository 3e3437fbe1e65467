//! `kms-sweep` — static semantic sweep of BLIF/ISCAS netlists.
//!
//! Runs the `kms-analysis` pass (structural hashing, SAT sweeping, static
//! implication learning) over each input network and prints the
//! [`StaticRedundancyReport`]: every stuck-at fault of the collapsed fault
//! set that the pass proves untestable without ATPG, each with a
//! machine-checkable witness, plus the node-merge/constant statistics.
//!
//! ```text
//! kms-sweep [OPTIONS] <file.blif | -> [more files...]
//!   -f, --format <text|json>  output format (default: text)
//!       --iscas               parse inputs as ISCAS-85 instead of BLIF
//!       --no-sat-sweep        skip SAT sweeping (strash + implications only)
//!       --no-learning         skip static implication learning
//!       --seed <N>            simulation seed for the sweep signatures
//!       --certify             re-derive every sweep claim as an UNSAT query,
//!                             log a DRAT proof, and re-check it with the
//!                             independent checker; print the merged ledger
//!   -j, --jobs <N>            sweep N input files concurrently (default 0 =
//!                             available parallelism, capped; 1 forces fully
//!                             in-line execution); reports and the exit code
//!                             are identical at any N — output stays in
//!                             input order
//!   -q, --quiet               suppress output; just set the exit code
//! ```
//!
//! Exit status: 0 when no file has findings, 1 when any file has statically
//! proved redundancies or a `--certify` proof fails to check, 2 on usage
//! errors or when any file fails to read or parse, 3 when the sweep
//! completed but degraded — a worker panicked on some file, so that file's
//! verdict is unknown and the remaining reports still printed.
//!
//! [`StaticRedundancyReport`]: kms::analysis::StaticRedundancyReport

use std::io::Read as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use kms::analysis::{AnalysisOptions, FaultRef, StaticAnalysis};
use kms::atpg::{collapsed_faults, FaultSite};
use kms::blif::{parse_blif, parse_iscas};
use kms::proof::CertificationReport;

struct Args {
    inputs: Vec<String>,
    json: bool,
    iscas: bool,
    opts: AnalysisOptions,
    jobs: usize,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        inputs: Vec::new(),
        json: false,
        iscas: false,
        opts: AnalysisOptions::default(),
        jobs: 0,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "-f" | "--format" => {
                args.json = match it.next().as_deref() {
                    Some("text") => false,
                    Some("json") => true,
                    other => return Err(format!("unknown format {other:?}")),
                }
            }
            "--iscas" => args.iscas = true,
            "--no-sat-sweep" => args.opts.sat_sweep = false,
            "--no-learning" => args.opts.static_learning = false,
            "--certify" => args.opts.certify = true,
            "--seed" => {
                args.opts.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a number")?;
            }
            "-j" | "--jobs" => {
                let n = it.next().ok_or("missing value for --jobs")?;
                args.jobs = n.parse().map_err(|_| format!("bad job count {n:?}"))?;
            }
            "-q" | "--quiet" => args.quiet = true,
            "-h" | "--help" => {
                eprintln!(
                    "usage: kms-sweep [-f text|json] [--iscas] [--no-sat-sweep] \
                     [--no-learning] [--seed N] [--certify] [-j N] \
                     [-q] <file.blif | ->..."
                );
                std::process::exit(0);
            }
            other if other.starts_with('-') && other != "-" => {
                return Err(format!("unexpected argument {other:?}"));
            }
            other => args.inputs.push(other.to_string()),
        }
    }
    if args.inputs.is_empty() {
        return Err("missing input file (use '-' for stdin)".into());
    }
    Ok(args)
}

fn read_input(path: &str) -> std::io::Result<String> {
    if path == "-" {
        let mut s = String::new();
        std::io::stdin().read_to_string(&mut s)?;
        Ok(s)
    } else {
        std::fs::read_to_string(path)
    }
}

/// Sweeps one file; returns the rendered report, the number of statically
/// proved redundant faults, and the certification ledger when `--certify`.
fn sweep_file(
    path: &str,
    args: &Args,
) -> Result<(String, usize, Option<CertificationReport>), String> {
    let text = read_input(path).map_err(|e| format!("{path}: {e}"))?;
    let net = if args.iscas {
        parse_iscas(&text).map_err(|e| format!("{path}: {e}"))?
    } else {
        parse_blif(&text)
            .map(|c| c.network)
            .map_err(|e| format!("{path}: {e}"))?
    };
    let faults: Vec<(FaultRef, bool)> = collapsed_faults(&net)
        .into_iter()
        .map(|f| {
            let site = match f.site {
                FaultSite::GateOutput(g) => FaultRef::Output(g),
                FaultSite::Conn(c) => FaultRef::Conn(c),
            };
            (site, f.stuck)
        })
        .collect();
    let analysis = StaticAnalysis::build(&net, &args.opts);
    let report = analysis.report(&faults);
    let rendered = if args.json {
        report.to_json().rows()
    } else {
        report.render_text()
    };
    Ok((
        rendered,
        report.proved_count(),
        analysis.certification().cloned(),
    ))
}

/// What one file's sweep produced. `Unknown` is the panic-isolated
/// outcome: the worker unwound mid-sweep, so nothing can be said about
/// the file — the run degrades (exit 3) instead of aborting the whole
/// batch.
enum Outcome {
    Done(String, usize, Option<CertificationReport>),
    Error(String),
    Unknown(String),
}

/// Sweeps one file with the worker shielded by `catch_unwind`: a panic
/// (a parser or solver bug on one pathological netlist) is converted
/// into [`Outcome::Unknown`] so the other files still sweep and print.
fn sweep_guarded(path: &str, args: &Args) -> Outcome {
    match catch_unwind(AssertUnwindSafe(|| sweep_file(path, args))) {
        Ok(Ok((rendered, proved, cert))) => Outcome::Done(rendered, proved, cert),
        Ok(Err(msg)) => Outcome::Error(msg),
        Err(payload) => {
            let what = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Outcome::Unknown(format!("{path}: sweep worker panicked: {what}"))
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nrun with --help for usage");
            std::process::exit(2);
        }
    };
    let jobs = match args.jobs {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8),
        n => n,
    }
    .min(args.inputs.len());
    // Sweep files concurrently, but aggregate and print strictly in input
    // order: results land in per-file slots, so the output and the exit
    // code are identical at any job count. Slots use poisoning-aware
    // locking: a panic inside `sweep_guarded` is already caught, so a
    // poisoned slot can only mean a panic in the store itself — the
    // value was fully written or not written at all, and either way the
    // data is safe to read.
    let mut results: Vec<Option<Outcome>> = (0..args.inputs.len()).map(|_| None).collect();
    if jobs <= 1 {
        for (path, slot) in args.inputs.iter().zip(results.iter_mut()) {
            *slot = Some(sweep_guarded(path, &args));
        }
    } else {
        let next = std::sync::atomic::AtomicUsize::new(0);
        let slots: Vec<std::sync::Mutex<Option<Outcome>>> = results
            .iter()
            .map(|_| std::sync::Mutex::new(None))
            .collect();
        std::thread::scope(|s| {
            for _ in 0..jobs {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(path) = args.inputs.get(i) else {
                        break;
                    };
                    *kms::sat::lock_unpoisoned(&slots[i]) = Some(sweep_guarded(path, &args));
                });
            }
        });
        for (slot, out) in slots.into_iter().zip(results.iter_mut()) {
            *out = slot
                .into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
    let mut io_failed = false;
    let mut unknown_files = 0usize;
    let mut findings = 0usize;
    let mut ledger = args.opts.certify.then(CertificationReport::default);
    for result in results {
        match result.expect("every input swept") {
            Outcome::Done(rendered, proved, certification) => {
                findings += proved;
                if let (Some(total), Some(cert)) = (ledger.as_mut(), certification.as_ref()) {
                    total.merge(cert);
                }
                if !args.quiet {
                    print!("{rendered}");
                }
            }
            Outcome::Error(msg) => {
                io_failed = true;
                if !args.quiet {
                    eprintln!("error: {msg}");
                }
            }
            Outcome::Unknown(msg) => {
                unknown_files += 1;
                eprintln!("warning: {msg}; verdict for this file is unknown");
            }
        }
    }
    let mut check_failed = false;
    if let Some(ledger) = &ledger {
        if !args.quiet {
            if args.json {
                println!("{}", ledger.to_json().compact());
            } else {
                print!("{}", ledger.render_text());
            }
        }
        if !ledger.all_verified() {
            check_failed = true;
            eprintln!("error: certification failed — some sweep claim has no checkable proof");
        }
    }
    // Precedence: hard failure (2) over degraded-but-complete (3) over
    // findings (1) — a degraded sweep cannot certify its finding count,
    // so the caller must see the degradation first.
    let code = if io_failed {
        2
    } else if unknown_files > 0 {
        3
    } else {
        i32::from(findings > 0 || check_failed)
    };
    std::process::exit(code);
}
