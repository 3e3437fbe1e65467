//! Static-analysis benchmark: how much of the redundancy identification
//! work the static passes settle without any PODEM/SAT query. Emits
//! `BENCH_sweep.json`.
//!
//! Per circuit: the share of the ATPG oracle's redundant faults proved
//! by the implication pass (`kms-analysis`), the pass's build time, and
//! the shared-CNF oracle's classification time (EXPERIMENTS E13).
//!
//! Usage: `bench_sweep [--smoke] [--jobs N] [--out FILE]`
//!
//! * `--smoke` — two small circuits, one rep: CI schema/soundness check.
//! * `--jobs N` — worker count for the oracle classification (default 4).
//! * `--out FILE` — output path (default `BENCH_sweep.json`).
//!
//! Every row is also a correctness gate: the statically proved faults
//! must be a subset of the oracle's redundant set (soundness).

use std::collections::BTreeSet;
use std::time::Instant;

use kms_analysis::{AnalysisOptions, FaultRef, StaticAnalysis};
use kms_atpg::{classify_faults_report, collapsed_faults, Fault, FaultSite, ParallelOptions};
use kms_bench::table1_csa;
use kms_netlist::json::Json;
use kms_netlist::Network;
use kms_opt::flow::{prepare_benchmark, FlowOptions};
use kms_timing::InputArrivals;

struct Config {
    smoke: bool,
    jobs: usize,
    out: String,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        smoke: false,
        jobs: 4,
        out: "BENCH_sweep.json".to_string(),
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
            "--out" | "-o" => {
                cfg.out = it.next().unwrap_or_else(|| die("--out needs a path"));
            }
            "-h" | "--help" => {
                eprintln!("usage: bench_sweep [--smoke] [--jobs N] [--out FILE]");
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

/// The late-last-input arrivals of the Table I MCNC flow (same preparation
/// as `bench_atpg`, so rows are comparable across the two benchmarks).
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

fn fault_ref(f: Fault) -> (FaultRef, bool) {
    let site = match f.site {
        FaultSite::GateOutput(g) => FaultRef::Output(g),
        FaultSite::Conn(c) => FaultRef::Conn(c),
    };
    (site, f.stuck)
}

fn time_min<T, F: FnMut() -> T>(reps: usize, mut f: F) -> (f64, T) {
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

fn main() {
    let cfg = parse_args();
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

    let oracle_opts = ParallelOptions {
        jobs: cfg.jobs,
        ..Default::default()
    };

    let mut rows = Vec::new();
    let mut total_redundant = 0usize;
    let mut total_proved = 0usize;
    for (name, net) in &circuits {
        let faults = collapsed_faults(net);
        let fault_refs: Vec<(FaultRef, bool)> = faults.iter().map(|&f| fault_ref(f)).collect();

        // Implication pass (no SAT sweep): timed alone and its report
        // kept for the hit-rate and soundness checks.
        let (analysis_s, report) = time_min(reps, || {
            let an = StaticAnalysis::build(
                net,
                &AnalysisOptions {
                    sat_sweep: false,
                    ..AnalysisOptions::default()
                },
            );
            an.report(&fault_refs)
        });
        let (oracle_s, oracle) = time_min(reps, || {
            classify_faults_report(net, faults.clone(), oracle_opts)
        });

        let redundant: BTreeSet<(FaultRef, bool)> = oracle
            .testability
            .redundant()
            .into_iter()
            .map(fault_ref)
            .collect();
        let proved: BTreeSet<(FaultRef, bool)> =
            report.proofs.iter().map(|p| (p.fault, p.stuck)).collect();
        for p in &proved {
            assert!(
                redundant.contains(p),
                "{name}: static proof for {}/{} not confirmed by the oracle",
                p.0,
                if p.1 { 1 } else { 0 }
            );
        }
        let hit_rate = if redundant.is_empty() {
            1.0
        } else {
            proved.len() as f64 / redundant.len() as f64
        };
        total_redundant += redundant.len();
        total_proved += proved.len();
        eprintln!(
            "{name:<10} {:>5} faults  {:>3} redundant  {:>3} implic ({:>5.1}%)  \
             analysis {analysis_s:.4}s  oracle {oracle_s:.4}s",
            faults.len(),
            redundant.len(),
            proved.len(),
            100.0 * hit_rate,
        );
        rows.push(Json::Object(vec![
            ("circuit", name.as_str().into()),
            ("gates", net.simple_gate_count().into()),
            ("faults", faults.len().into()),
            ("redundant", redundant.len().into()),
            ("static_proved", proved.len().into()),
            ("hit_rate", Json::Fixed(hit_rate, 4)),
            ("analysis_s", Json::Fixed(analysis_s, 6)),
            ("oracle_s", Json::Fixed(oracle_s, 6)),
        ]));
    }

    let overall = if total_redundant == 0 {
        1.0
    } else {
        total_proved as f64 / total_redundant as f64
    };
    eprintln!(
        "overall: {total_proved}/{total_redundant} redundant faults proved by implic ({:.1}%)",
        100.0 * overall
    );

    let json = Json::Object(vec![
        ("bench", "static_sweep".into()),
        ("mode", if cfg.smoke { "smoke" } else { "full" }.into()),
        ("jobs", cfg.jobs.into()),
        ("reps", reps.into()),
        ("total_redundant", total_redundant.into()),
        ("total_static_proved", total_proved.into()),
        ("overall_hit_rate", Json::Fixed(overall, 4)),
        ("rows", Json::Array(rows)),
    ])
    .rows();
    std::fs::write(&cfg.out, &json).unwrap_or_else(|e| die(&format!("write {}: {e}", cfg.out)));
    eprintln!("wrote {}", cfg.out);
}
