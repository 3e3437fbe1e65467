//! ATPG classification-engine benchmark: sequential per-fault SAT vs the
//! shared-CNF incremental engine, emitting `BENCH_atpg.json` — the
//! repository's perf trajectory for the fault-classification hot path.
//!
//! Usage: `bench_atpg [--smoke] [--out FILE]`
//!
//! * `--smoke` — two small circuits, one rep: CI schema/agreement check.
//! * `--out FILE` — output path (default `BENCH_atpg.json`).
//!
//! Every timed run is also cross-checked: both engines must report the
//! same redundant-fault set.

use std::time::Instant;

use kms_atpg::{analyze, Engine, ParallelOptions, TestabilityReport};
use kms_bench::table1_csa;
use kms_netlist::json::Json;
use kms_netlist::{errln, Network};
use kms_opt::flow::{prepare_benchmark, FlowOptions};
use kms_timing::InputArrivals;

struct Config {
    smoke: bool,
    out: String,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        smoke: false,
        out: "BENCH_atpg.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => cfg.smoke = true,
            "--out" | "-o" => {
                cfg.out = it.next().unwrap_or_else(|| die("--out needs a path"));
            }
            "-h" | "--help" => {
                errln!("usage: bench_atpg [--smoke] [--out FILE]");
                std::process::exit(0);
            }
            other => die(&format!("unexpected argument {other:?}")),
        }
    }
    cfg
}

fn die(msg: &str) -> ! {
    errln!("error: {msg}");
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
    shared_s: f64,
}

fn main() {
    let cfg = parse_args();
    // Smoke mode is a schema/agreement check and times each engine once.
    let reps = if cfg.smoke { 1 } else { 3 };
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

    let shared = Engine::SharedSat(ParallelOptions::default());

    let mut rows = Vec::new();
    for (name, net) in &circuits {
        let (seq_s, seq_r) = time_min(reps, || analyze(net, Engine::Sat));
        let (shared_s, shared_r) = time_min(reps, || analyze(net, shared));
        assert_eq!(
            seq_r.redundant(),
            shared_r.redundant(),
            "{name}: redundant sets differ (seq vs shared)"
        );
        errln!(
            "{name:<10} {:>5} faults  seq {seq_s:.4}s  shared {shared_s:.4}s  ({:.2}x)",
            seq_r.faults.len(),
            seq_s / shared_s
        );
        rows.push(Row {
            name: name.clone(),
            gates: net.simple_gate_count(),
            faults: seq_r.faults.len(),
            seq_s,
            shared_s,
        });
    }

    let rows = rows
        .iter()
        .map(|r| {
            Json::Object(vec![
                ("circuit", r.name.as_str().into()),
                ("gates", r.gates.into()),
                ("faults", r.faults.into()),
                ("sequential_s", Json::Fixed(r.seq_s, 6)),
                ("shared_s", Json::Fixed(r.shared_s, 6)),
                ("speedup_shared", Json::Fixed(r.seq_s / r.shared_s, 3)),
            ])
        })
        .collect();
    let json = Json::Object(vec![
        ("bench", "atpg_classification".into()),
        ("mode", if cfg.smoke { "smoke" } else { "full" }.into()),
        ("reps", reps.into()),
        ("rows", Json::Array(rows)),
    ])
    .rows();
    std::fs::write(&cfg.out, &json).unwrap_or_else(|e| die(&format!("write {}: {e}", cfg.out)));
    errln!("wrote {}", cfg.out);
}
