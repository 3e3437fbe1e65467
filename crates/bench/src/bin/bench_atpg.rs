//! ATPG classification-engine benchmark: sequential per-fault SAT vs the
//! shared-CNF incremental engine (single-threaded and with a worker pool),
//! emitting `BENCH_atpg.json` — the repository's perf trajectory for the
//! fault-classification hot path.
//!
//! Usage: `bench_atpg [--smoke] [--jobs N] [--scaling] [--gate] [--out FILE]`
//!
//! * `--smoke` — two small circuits, one rep: CI schema/determinism check.
//! * `--jobs N` — worker count for the parallel configuration (default 4).
//! * `--scaling` — additionally time the shared engine at 1, 2 and 4
//!   workers per row and emit the curve in each JSON row.
//! * `--gate` — exit 1 if the worker pool loses to the in-line shared
//!   engine (beyond a noise tolerance) on any row with ≥ 400 gates: the
//!   CI tripwire for scheduler/commit-path overhead regressions.
//! * `--out FILE` — output path (default `BENCH_atpg.json`).
//!
//! Every timed run is also cross-checked: the three configurations must
//! report the same redundant-fault set, and every shared-CNF
//! configuration must produce bit-identical `TestabilityReport`s.

use std::time::Instant;

use kms_atpg::{analyze, Engine, FaultBudget, ParallelOptions, TestabilityReport};
use kms_bench::table1_csa;
use kms_netlist::json::Json;
use kms_netlist::Network;
use kms_opt::flow::{prepare_benchmark, FlowOptions};
use kms_timing::InputArrivals;

struct Config {
    smoke: bool,
    jobs: usize,
    scaling: bool,
    gate: bool,
    out: String,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        smoke: false,
        jobs: 4,
        scaling: false,
        gate: false,
        out: "BENCH_atpg.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => cfg.smoke = true,
            "--jobs" | "-j" => {
                cfg.jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--jobs needs a number"));
            }
            "--scaling" => cfg.scaling = true,
            "--gate" => cfg.gate = true,
            "--out" | "-o" => {
                cfg.out = it.next().unwrap_or_else(|| die("--out needs a path"));
            }
            "-h" | "--help" => {
                eprintln!(
                    "usage: bench_atpg [--smoke] [--jobs N] [--scaling] [--gate] [--out FILE]"
                );
                std::process::exit(0);
            }
            other => die(&format!("unexpected argument {other:?}")),
        }
    }
    cfg
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The late-last-input arrivals of the Table I MCNC flow (the prepared
/// networks are cached here so every engine times the same circuit).
fn mcnc_net(name: &str) -> Network {
    let suite = kms_gen::mcnc::table1_suite();
    let b = suite
        .iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| die(&format!("no MCNC benchmark {name:?}")));
    let late = |net: &Network| {
        let mut arr = InputArrivals::zero();
        if let Some(&last) = net.inputs().last() {
            arr.set(last, 4);
        }
        arr
    };
    let (net, _) = prepare_benchmark(&b.pla, b.name, late, FlowOptions::default());
    net
}

/// Minimum wall-clock over `reps` runs of `f` (min, not mean: the lowest
/// observation has the least scheduler noise), plus the last report.
fn time_min<F: FnMut() -> TestabilityReport>(reps: usize, mut f: F) -> (f64, TestabilityReport) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(r);
    }
    (best, last.expect("reps >= 1"))
}

struct Row {
    name: String,
    gates: usize,
    faults: usize,
    seq_s: f64,
    shared1_s: f64,
    sharedn_s: f64,
    /// `(jobs, seconds)` curve when `--scaling` is on, the job count
    /// spelled as its JSON key.
    scaling: Vec<(&'static str, f64)>,
    /// The same curve with a generous (never-aborting) per-fault budget
    /// armed: its distance from `scaling` is the whole cost of the budget
    /// plumbing — the counter samples at the solver's conflict boundary.
    scaling_budget: Vec<(&'static str, f64)>,
}

/// The worker counts of the `--scaling` curve, with their JSON keys.
const SCALING_JOBS: [(usize, &str); 3] = [(1, "1"), (2, "2"), (4, "4")];

fn main() {
    let cfg = parse_args();
    // Smoke mode is a schema/determinism check and times each config once —
    // unless the overhead gate is on, which compares timings and so needs
    // the min-of-3 noise floor even on the small smoke rows.
    let reps = if cfg.smoke && !cfg.gate { 1 } else { 3 };
    let circuits: Vec<(String, Network)> = if cfg.smoke {
        vec![
            ("csa 2.2".into(), table1_csa(2, 2)),
            ("rd73".into(), mcnc_net("rd73")),
        ]
    } else {
        let mut v: Vec<(String, Network)> = [(2, 2), (4, 4), (8, 2), (8, 4), (16, 4)]
            .into_iter()
            .map(|(bits, block)| (format!("csa {bits}.{block}"), table1_csa(bits, block)))
            .collect();
        for name in ["rd73", "sao2", "misex1", "f51m"] {
            v.push((name.to_string(), mcnc_net(name)));
        }
        v
    };

    let shared1 = Engine::SharedSat(ParallelOptions {
        jobs: 1,
        ..Default::default()
    });
    let sharedn = Engine::SharedSat(ParallelOptions {
        jobs: cfg.jobs,
        ..Default::default()
    });

    let mut rows = Vec::new();
    for (name, net) in &circuits {
        let (seq_s, seq_r) = time_min(reps, || analyze(net, Engine::Sat));
        let (shared1_s, shared1_r) = time_min(reps, || analyze(net, shared1));
        let (sharedn_s, sharedn_r) = time_min(reps, || analyze(net, sharedn));
        // Correctness gates: same redundant set everywhere, bit-identical
        // reports across the shared-CNF thread counts.
        assert_eq!(
            seq_r.redundant(),
            shared1_r.redundant(),
            "{name}: redundant sets differ (seq vs shared)"
        );
        assert_eq!(
            shared1_r, sharedn_r,
            "{name}: shared-CNF report depends on the job count"
        );
        let mut scaling = Vec::new();
        let mut scaling_budget = Vec::new();
        if cfg.scaling {
            // Never aborts, so the report must stay bit-identical; the
            // timing delta against the unbudgeted curve is the entire
            // overhead of the budget checks (the ≤2% acceptance bound).
            let generous = FaultBudget {
                max_conflicts: Some(1 << 40),
                max_propagations: Some(1 << 50),
                timeout_ms: None,
            };
            for (jobs, key) in SCALING_JOBS {
                let engine = Engine::SharedSat(ParallelOptions {
                    jobs,
                    ..Default::default()
                });
                let (s, r) = time_min(reps, || analyze(net, engine));
                assert_eq!(
                    shared1_r, r,
                    "{name}: shared-CNF report depends on the job count (scaling, jobs={jobs})"
                );
                scaling.push((key, s));
                let budgeted = Engine::SharedSat(ParallelOptions {
                    jobs,
                    fault_budget: Some(generous),
                    ..Default::default()
                });
                let (bs, br) = time_min(reps, || analyze(net, budgeted));
                assert_eq!(
                    shared1_r, br,
                    "{name}: a generous budget changed the report (jobs={jobs})"
                );
                scaling_budget.push((key, bs));
            }
        }
        eprintln!(
            "{name:<10} {:>5} faults  seq {seq_s:.4}s  shared1 {shared1_s:.4}s  shared{} {sharedn_s:.4}s  ({:.2}x)",
            seq_r.faults.len(),
            cfg.jobs,
            seq_s / sharedn_s
        );
        for ((jobs, s), (_, bs)) in scaling.iter().zip(&scaling_budget) {
            eprintln!(
                "           scaling jobs={jobs}: {s:.4}s  ({:.2}x vs seq)  budgeted {bs:.4}s \
                 ({:+.1}% overhead)",
                seq_s / s,
                (bs / s - 1.0) * 100.0
            );
        }
        rows.push(Row {
            name: name.clone(),
            gates: net.simple_gate_count(),
            faults: seq_r.faults.len(),
            seq_s,
            shared1_s,
            sharedn_s,
            scaling,
            scaling_budget,
        });
    }

    // Scheduler-overhead tripwire: on every non-trivial row the worker
    // pool must keep pace with the in-line shared engine. On a single
    // hardware thread the pool's whole cost IS its overhead, so this
    // bounds it directly; the 25% budget absorbs timer noise and OS
    // multiplexing jitter on starved CI machines (run-to-run spread on a
    // 1-CPU box is ±10% by itself) while still catching the failure mode
    // the gate exists for — unbounded speculation, which showed up as a
    // >3x loss before the pacing window and commit-log pre-checks.
    if cfg.gate {
        const TOLERANCE: f64 = 1.25;
        let mut failed = false;
        for r in rows.iter().filter(|r| r.gates >= 400) {
            if r.sharedn_s > r.shared1_s * TOLERANCE {
                failed = true;
                eprintln!(
                    "gate: {} — sharedN {:.4}s vs shared1 {:.4}s exceeds the {:.0}% budget \
                     (speedup_sharedN {:.3} < speedup_shared1 {:.3})",
                    r.name,
                    r.sharedn_s,
                    r.shared1_s,
                    (TOLERANCE - 1.0) * 100.0,
                    r.seq_s / r.sharedn_s,
                    r.seq_s / r.shared1_s,
                );
            }
        }
        if failed {
            eprintln!("error: parallel classification lost to in-line on a non-trivial row");
            std::process::exit(1);
        }
    }

    let curve = |points: &[(&'static str, f64)]| {
        Json::Object(
            points
                .iter()
                .map(|&(jobs, s)| (jobs, Json::Fixed(s, 6)))
                .collect(),
        )
    };
    let rows = rows
        .iter()
        .map(|r| {
            let mut fields = vec![
                ("circuit", r.name.as_str().into()),
                ("gates", r.gates.into()),
                ("faults", r.faults.into()),
                ("sequential_s", Json::Fixed(r.seq_s, 6)),
                ("shared1_s", Json::Fixed(r.shared1_s, 6)),
                ("sharedN_s", Json::Fixed(r.sharedn_s, 6)),
                ("speedup_shared1", Json::Fixed(r.seq_s / r.shared1_s, 3)),
                ("speedup_sharedN", Json::Fixed(r.seq_s / r.sharedn_s, 3)),
            ];
            if !r.scaling.is_empty() {
                fields.push(("scaling_s", curve(&r.scaling)));
                fields.push(("scaling_budget_s", curve(&r.scaling_budget)));
            }
            Json::Object(fields)
        })
        .collect();
    let json = Json::Object(vec![
        ("bench", "atpg_classification".into()),
        ("mode", if cfg.smoke { "smoke" } else { "full" }.into()),
        ("jobs", cfg.jobs.into()),
        ("reps", reps.into()),
        ("rows", Json::Array(rows)),
    ])
    .rows();
    std::fs::write(&cfg.out, &json).unwrap_or_else(|e| die(&format!("write {}: {e}", cfg.out)));
    eprintln!("wrote {}", cfg.out);
}
