//! End-to-end benchmark of the `kms` pipeline (BLIF in, KMS, BLIF out)
//! on four workloads, each stressing a different layer, with independent
//! output checks and a traced per-layer split. See `README.md`.
//!
//! ```text
//! kms-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|FILE]
//! kms-benchmark compare --base FILE... --new FILE...
//! ```
//!
//! With `--workload`, one workload runs in this process. Without it, each
//! workload runs in a fresh child process, one after another. Standard
//! output ends with one JSON result line; the line before each result is
//! the workload's record, which `compare` reads. Exit status: 0 when every
//! output checked out, 1 when any run or check failed, 2 on a usage error.

mod alloc;
mod check;
mod compare;
mod json;
mod measure;
mod pipeline;
mod probe;
mod replay;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Value;
use measure::{Metric, RunResult};
use workload::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Seconds each run measures when `--seconds` is not given; the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Where traces go when `--trace 1` names no file.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

enum Trace {
    Off,
    To(PathBuf),
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Trace,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: Trace::Off,
    };
    let mut trace: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("missing value for {a}"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                parsed.workload =
                    Some(Workload::from_name(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                parsed.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                parsed.seconds = match v.parse::<f64>() {
                    Ok(s) if s.is_finite() && s >= 0.0 => s,
                    _ => return Err(format!("bad seconds {v:?}")),
                };
            }
            "--trace" => trace = Some(value()?.clone()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    parsed.trace = match trace.as_deref() {
        None | Some("0") => Trace::Off,
        Some("1") => Trace::To(Path::new(OUT_DIR).join(match parsed.workload {
            Some(w) => format!("trace-{}.json", w.name()),
            None => "trace.json".to_string(),
        })),
        Some(file) => Trace::To(PathBuf::from(file)),
    };
    Ok(parsed)
}

const USAGE: &str =
    "usage: kms-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|FILE]\n       \
                     kms-benchmark compare --base FILE... --new FILE...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        run_compare(&args[1..])
    } else {
        parse_args(&args).and_then(|a| match a.workload {
            Some(w) => Ok(run_one(w, &a)),
            None => run_all(&a),
        })
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut v = BTreeMap::new();
                v.insert("value".to_string(), Value::Num(m.value));
                v.insert("unit".to_string(), Value::Str(m.unit.to_string()));
                (m.name.to_string(), Value::Obj(v))
            })
            .collect(),
    )
}

/// The last line of standard output, with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    let mut v = BTreeMap::new();
    v.insert("correct".to_string(), Value::Bool(correct));
    v.insert("attempted".to_string(), Value::Num(attempted as f64));
    v.insert("failed".to_string(), Value::Num(failed as f64));
    v.insert("metrics".to_string(), metrics);
    Value::Obj(v).render()
}

/// Runs one workload in this process and prints its record and result.
fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let result: RunResult = match &args.trace {
        Trace::Off => measure::run(workload, args.seed, args.seconds),
        Trace::To(path) => replay::run(workload, args.seed, path),
    };
    for m in &result.metrics {
        eprintln!(
            "{:<16} {:<28} {:>14.6} {}",
            workload.name(),
            m.name,
            m.value,
            m.unit
        );
    }
    for p in &result.problems {
        eprintln!("error: {}: {p}", workload.name());
    }
    let metrics = metrics_json(&result.metrics);
    let mut record = result.record.clone();
    record.insert("workload".into(), Value::Str(workload.name().into()));
    record.insert("seed".into(), Value::Num(args.seed as f64));
    record.insert(
        "available_parallelism".into(),
        Value::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
    );
    record.insert("metrics".into(), metrics.clone());
    let record = Value::Obj(record);
    for c in record
        .get("circuits")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
    {
        if let Some(f) = c.get("failures") {
            eprintln!("error: {}: {}", workload.name(), f.render());
        }
    }
    println!("{}", record.render());
    println!(
        "{}",
        result_line(result.correct(), result.attempted, result.failed, metrics)
    );
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a fresh child process, and prints one
/// combined result line with metrics named `<workload>.<metric>`.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = BTreeMap::new();
    let mut parts = Vec::new();
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()]);
        match &args.trace {
            Trace::Off => cmd.args(["--trace", "0"]),
            Trace::To(path) => {
                let part = PathBuf::from(format!("{}.{}", path.display(), w.name()));
                cmd.arg("--trace").arg(&part);
                parts.push(part);
                &mut cmd
            }
        };
        let out = cmd
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or("");
        let Ok(v) = json::parse(last) else {
            eprintln!("error: {} printed no result ({})", w.name(), out.status);
            correct = false;
            continue;
        };
        correct &= out.status.success() && v.get("correct") == Some(&Value::Bool(true));
        attempted += v.get("attempted").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        failed += v.get("failed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        if let Some(Value::Obj(m)) = v.get("metrics") {
            for (name, value) in m {
                metrics.insert(format!("{}.{name}", w.name()), value.clone());
            }
        }
    }
    if let Trace::To(path) = &args.trace {
        let texts: Result<Vec<String>, String> = parts
            .iter()
            .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display())))
            .collect();
        match texts {
            Ok(t) => {
                std::fs::write(path, trace::join(&t))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                for p in &parts {
                    let _ = std::fs::remove_file(p);
                }
                eprintln!("trace written to {}", path.display());
            }
            Err(e) => {
                eprintln!("error: cannot join traces: {e}");
                correct = false;
            }
        }
    }
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, Value::Obj(metrics))
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The bounds `compare` applies.
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

fn run_compare(args: &[String]) -> Result<ExitCode, String> {
    let (mut base, mut new) = (Vec::new(), Vec::new());
    let mut side: Option<&mut Vec<String>> = None;
    for a in args {
        match a.as_str() {
            "--base" => side = Some(&mut base),
            "--new" => side = Some(&mut new),
            file => {
                let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
                side.as_mut()
                    .ok_or("name --base or --new before the files")?
                    .push(text);
            }
        }
    }
    if base.is_empty() || new.is_empty() {
        return Err("compare needs files after both --base and --new".into());
    }
    let bench_text =
        std::fs::read_to_string(BENCHMARK_JSON).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
    let (table, regressed) = compare::compare(&bench_text, &base, &new)?;
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &Value) -> Vec<(String, String)> {
        list.as_arr()
            .expect("a list")
            .iter()
            .map(|e| {
                let field = |k| e.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_what_the_runs_print() {
        let text =
            std::fs::read_to_string(BENCHMARK_JSON).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("valid JSON");
        let listed = |m: &[Metric]| -> Vec<(String, String)> {
            m.iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        assert_eq!(
            names(doc.get("end_to_end").unwrap()),
            listed(&measure::end_to_end(1.0, 1.0, 1.0, 1, 1))
        );
        let totals = replay::Totals::default();
        assert_eq!(
            names(doc.get("per_layer").unwrap()),
            listed(&replay::layer_metrics(
                &trace::Tracer::default(),
                &totals,
                1.0,
                0.0
            ))
        );
        let workloads: Vec<String> = names(doc.get("workloads").unwrap())
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }
}
