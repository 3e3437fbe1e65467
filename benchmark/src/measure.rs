//! One untraced run of a workload: build the inputs, time passes of the
//! pipeline for the requested seconds, check every output, and report the
//! end-to-end metrics. Times are scaled to the reference host speed by
//! the probes around them (see [`probe`](crate::probe)).

use std::collections::BTreeMap;
use std::time::Instant;

use kms::timing::Time;

use crate::alloc;
use crate::check::{check, run_problem};
use crate::json::Value;
use crate::pipeline::{self, Output};
use crate::probe::{Clock, Sample};
use crate::stats::{median, quartiles};
use crate::workload::{build_inputs, Flags, Input, Workload};

/// Set-up repetitions after each timed pass; `setup_s` is the median of
/// all of them. One set-up takes only milliseconds, and the host's speed
/// drifts: 25 repetitions in one burst at the start of a run read 10 ms in
/// one run and 5.4 ms in the next. Spread over the run, and each scaled by
/// the probes beside it, they see the same host as the passes.
const SETUP_REPS_PER_PASS: usize = 5;

/// Fewest passes a run makes, however long they take, so that a median
/// and quartiles exist.
const MIN_PASSES: usize = 3;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// The name `BENCHMARK.json` lists.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What a run reports: the result line's fields plus a record of how the
/// numbers came about.
pub struct RunResult {
    /// Circuit runs attempted.
    pub attempted: u64,
    /// Circuit runs that failed.
    pub failed: u64,
    /// Failures found outside any one circuit run (set-up, trace guards).
    pub problems: Vec<String>,
    /// The metrics, in the order `BENCHMARK.json` lists them.
    pub metrics: Vec<Metric>,
    /// Extra fields of the record line: pass count, quartiles, and so on.
    pub record: BTreeMap<String, Value>,
}

impl RunResult {
    /// `true` when every output was correct and nothing else failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Builds the inputs [`SETUP_REPS_PER_PASS`] times on `clock`, adding
/// each build's time to `times`. Fails if a build differs from `first`.
fn time_setup(
    workload: Workload,
    seed: u64,
    first: &[Input],
    clock: &mut Clock,
    times: &mut Vec<Sample>,
) -> Result<(), String> {
    for _ in 0..SETUP_REPS_PER_PASS {
        let (inputs, t) = clock.measure(|| std::hint::black_box(build_inputs(workload, seed)));
        times.push(t);
        if inputs != first {
            return Err("set-up is not deterministic".into());
        }
    }
    Ok(())
}

/// The peak resident set of this process (`VmHWM`), in MiB. Recorded for
/// reference only: it moves with allocator arenas and thread timing.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// What is wrong with one run, judged against the warm-up pass's output
/// of the same circuit when there is one.
fn differs(result: &Result<Output, String>, warm: Option<&Output>) -> Option<String> {
    match (result, warm) {
        (Err(e), _) => Some(e.clone()),
        (Ok(out), Some(w)) if out.blif != w.blif => {
            Some("output differs from the warm-up pass".to_string())
        }
        (Ok(out), _) => run_problem(out),
    }
}

/// Runs `workload` untraced: set-up, an untimed warm-up pass that measures
/// the heap, timed passes for at least `seconds` and [`MIN_PASSES`], each
/// followed by timed set-ups, then the checks.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> RunResult {
    let flags = workload.flags();
    let mut problems = Vec::new();
    let inputs = build_inputs(workload, seed);
    let n = inputs.len();
    let mut fails: Vec<Vec<String>> = vec![Vec::new(); n];
    let mut failed_runs = vec![0usize; n];

    // An untimed warm-up pass counts the heap. It runs with one
    // classification worker: on one thread the peak repeats exactly, while
    // speculating workers move it by several percent from run to run.
    // Its outputs are the ones checked, and every timed pass, at the
    // workload's own worker count, must repeat them byte for byte.
    let one_worker = Flags { jobs: 1, ..flags };
    let mut peak_heap = 0usize;
    let mut warm: Vec<Option<Output>> = Vec::with_capacity(n);
    for (i, input) in inputs.iter().enumerate() {
        let (result, peak) = alloc::peak_bytes(|| pipeline::run(input, one_worker));
        peak_heap = peak_heap.max(peak);
        if let Some(p) = differs(&result, None) {
            fails[i].push(format!("warm-up: {p}"));
            failed_runs[i] += 1;
        }
        warm.push(result.ok());
    }

    // A pass's time is the sum of its circuits' times, each scaled by the
    // probes on either side of it.
    let mut pass_s: Vec<Sample> = Vec::new();
    let mut setup_times: Vec<Sample> = Vec::new();
    let mut circuit_s: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut clock = Clock::start();
    let start = Instant::now();
    while pass_s.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let pass = pass_s.len() + 1;
        let mut total = Sample {
            wall: 0.0,
            scaled: 0.0,
        };
        for (i, input) in inputs.iter().enumerate() {
            let (result, t) = clock.measure(|| pipeline::run(input, flags));
            total.wall += t.wall;
            total.scaled += t.scaled;
            circuit_s[i].push(t.scaled);
            if let Some(p) = differs(&result, warm[i].as_ref()) {
                fails[i].push(format!("pass {pass}: {p}"));
                failed_runs[i] += 1;
            }
        }
        pass_s.push(total);
        if let Err(e) = time_setup(workload, seed, &inputs, &mut clock, &mut setup_times) {
            problems.push(e);
            break;
        }
    }
    let scaled = |v: &[Sample]| v.iter().map(|t| t.scaled).collect::<Vec<f64>>();
    let wall = |v: &[Sample]| v.iter().map(|t| t.wall).collect::<Vec<f64>>();
    let (pass_scaled, setup_scaled) = (scaled(&pass_s), scaled(&setup_times));
    let runs = 1 + pass_s.len();

    let mut gates_out = 0usize;
    let mut delay_out: Time = 0;
    let mut circuits = Vec::with_capacity(n);
    for (i, input) in inputs.iter().enumerate() {
        let mut row = BTreeMap::new();
        row.insert("name".into(), Value::Str(input.name.clone()));
        row.insert(
            "median_s".into(),
            Value::Num(median(&circuit_s[i]).unwrap_or(f64::NAN)),
        );
        if let Some(out) = &warm[i] {
            match check(input, out) {
                Ok(c) => {
                    gates_out += c.gates_out;
                    delay_out += c.delay_out;
                    for (k, v) in [
                        ("gates_in", c.gates_in as f64),
                        ("gates_out", c.gates_out as f64),
                        ("delay_in", c.delay_in as f64),
                        ("delay_out", c.delay_out as f64),
                        ("iterations", out.report.iterations.len() as f64),
                        ("removed", out.report.removed_redundancies.len() as f64),
                    ] {
                        row.insert(k.into(), Value::Num(v));
                    }
                }
                // Every run that did not fail otherwise wrote these same
                // bytes, so every run of the circuit failed.
                Err(e) => {
                    fails[i].push(format!("every run: {e}"));
                    failed_runs[i] = runs;
                }
            }
        }
        if !fails[i].is_empty() {
            row.insert(
                "failures".into(),
                Value::Arr(fails[i].iter().cloned().map(Value::Str).collect()),
            );
        }
        circuits.push(Value::Obj(row));
    }
    let failed: usize = failed_runs.iter().sum();

    let (q1, q3) = quartiles(&pass_scaled).expect("at least MIN_PASSES passes");
    let nums = |v: Vec<f64>| Value::Arr(v.into_iter().map(Value::Num).collect());
    let mut record = BTreeMap::new();
    record.insert("passes".into(), Value::Num(pass_s.len() as f64));
    record.insert("setup_reps".into(), Value::Num(setup_times.len() as f64));
    record.insert("wall_s_quartiles".into(), nums(vec![q1, q3]));
    record.insert("pass_s".into(), nums(pass_scaled.clone()));
    record.insert("pass_wall_s".into(), nums(wall(&pass_s)));
    record.insert(
        "setup_wall_s".into(),
        Value::Num(median(&wall(&setup_times)).unwrap_or(f64::NAN)),
    );
    record.insert("probes".into(), Value::Num(clock.probes.len() as f64));
    record.insert(
        "probe_s".into(),
        Value::Num(median(&clock.probes).unwrap_or(f64::NAN)),
    );
    match peak_rss_mb() {
        Ok(mb) => record.insert("vm_hwm_mb".into(), Value::Num(mb)),
        Err(e) => record.insert("vm_hwm_mb".into(), Value::Str(e)),
    };
    record.insert("circuits".into(), Value::Arr(circuits));

    RunResult {
        attempted: (runs * n) as u64,
        failed: failed as u64,
        problems,
        metrics: end_to_end(
            median(&pass_scaled).expect("at least MIN_PASSES passes"),
            median(&setup_scaled).expect("set-up timed after every pass"),
            peak_heap as f64 / f64::from(1u32 << 20),
            gates_out,
            delay_out,
        ),
        record,
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub fn end_to_end(
    wall_s: f64,
    setup_s: f64,
    peak_heap_mb: f64,
    gates_out: usize,
    delay_out: Time,
) -> Vec<Metric> {
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("wall_s", wall_s, "s"),
        m("setup_s", setup_s, "s"),
        m("peak_heap_mb", peak_heap_mb, "MiB"),
        m("gates_out", gates_out as f64, "gates"),
        m("delay_out", delay_out as f64, "units"),
    ]
}
