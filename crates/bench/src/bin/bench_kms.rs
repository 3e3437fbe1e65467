//! KMS loop benchmark: end-to-end `kms_algorithm` wall-clock, its
//! per-phase split, the loop's timing-pass and verdict-cache counters,
//! the SAT calls of the sensitization oracle and of the removal phase's
//! ATPG, and the faults the removal scans screened and skipped as known
//! testable, on prepared Table I circuits. Emits `BENCH_kms.json`.
//!
//! Usage: `bench_kms [--smoke] [--out FILE]`
//!
//! * `--smoke` — two small circuits, one rep: CI schema check.
//! * `--out FILE` — output path (default `BENCH_kms.json`).

use std::time::Instant;

use kms_bench::table1_csa;
use kms_core::{kms_on_copy, KmsOptions, KmsReport};
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
        out: "BENCH_kms.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => cfg.smoke = true,
            "--out" | "-o" => {
                cfg.out = it.next().unwrap_or_else(|| die("--out needs a path"));
            }
            "-h" | "--help" => {
                errln!("usage: bench_kms [--smoke] [--out FILE]");
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

/// The late-last-input arrivals of the Table I MCNC flow (same preparation
/// as `bench_atpg`, so rows are comparable across the
/// benchmark binaries).
fn mcnc_net(name: &str) -> (Network, InputArrivals) {
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
    let arr = late(&net);
    (net, arr)
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

struct Phases {
    engine_s: f64,
    path_enum_s: f64,
    oracle_s: f64,
    transform_s: f64,
    atpg_s: f64,
}

impl Phases {
    fn of(r: &KmsReport) -> Phases {
        Phases {
            engine_s: r.timings.engine.as_secs_f64(),
            path_enum_s: r.timings.path_enum.as_secs_f64(),
            oracle_s: r.timings.oracle.as_secs_f64(),
            transform_s: r.timings.transform.as_secs_f64(),
            atpg_s: r.timings.atpg.as_secs_f64(),
        }
    }

    /// Wall time of the KMS loop proper. The trailing ATPG/removal pass
    /// dwarfs the loop on circuits with few iterations, so end-to-end
    /// totals mostly measure it.
    fn loop_s(&self) -> f64 {
        self.engine_s + self.path_enum_s + self.oracle_s + self.transform_s
    }
}

fn main() {
    let cfg = parse_args();
    let reps = if cfg.smoke { 1 } else { 3 };
    let circuits: Vec<(String, Network, InputArrivals)> = if cfg.smoke {
        let mut v = vec![(
            "csa 2.2".to_string(),
            table1_csa(2, 2),
            InputArrivals::zero(),
        )];
        let (net, arr) = mcnc_net("rd73");
        v.push(("rd73".to_string(), net, arr));
        v
    } else {
        let mut v: Vec<(String, Network, InputArrivals)> =
            [(2, 2), (4, 4), (8, 2), (8, 4), (16, 4)]
                .into_iter()
                .map(|(bits, block)| {
                    (
                        format!("csa {bits}.{block}"),
                        table1_csa(bits, block),
                        InputArrivals::zero(),
                    )
                })
                .collect();
        for name in ["rd73", "sao2", "misex1", "f51m"] {
            let (net, arr) = mcnc_net(name);
            v.push((name.to_string(), net, arr));
        }
        v
    };

    let options = KmsOptions::default();

    let mut rows = Vec::new();
    for (name, net, arr) in &circuits {
        let (wall_s, (_, r)) = time_min(reps, || kms_on_copy(net, arr, options).unwrap());
        let phases = Phases::of(&r);
        errln!(
            "{name:<10} {:>3} iters  {:>4} dup  {:>3} removed  {wall_s:.4}s  \
             (loop {:.4}s)  [{} timing passes, cache {}/{}]",
            r.iterations.len(),
            r.duplicated_gates,
            r.removed_redundancies.len(),
            phases.loop_s(),
            r.engine.full_recomputes,
            r.engine.cache_hits,
            r.engine.cache_hits + r.engine.cache_misses,
        );
        rows.push(Json::Object(vec![
            ("circuit", name.as_str().into()),
            ("gates", net.simple_gate_count().into()),
            ("iterations", r.iterations.len().into()),
            ("duplicated", r.duplicated_gates.into()),
            ("removed", r.removed_redundancies.len().into()),
            ("dropped_longest_paths", r.dropped_longest_paths.into()),
            ("timing_passes", r.engine.full_recomputes.into()),
            ("cache_hits", r.engine.cache_hits.into()),
            ("cache_misses", r.engine.cache_misses.into()),
            ("oracle_sat_calls", r.oracle_solver.sat_calls.into()),
            ("atpg_sat_calls", r.atpg_solver.sat_calls.into()),
            ("removal_screened", r.removal.screened.into()),
            ("removal_skipped", r.removal.skipped.into()),
            ("wall_s", Json::Fixed(wall_s, 6)),
            ("loop_s", Json::Fixed(phases.loop_s(), 6)),
            (
                "phases",
                Json::Object(vec![
                    ("engine_s", Json::Fixed(phases.engine_s, 6)),
                    ("path_enum_s", Json::Fixed(phases.path_enum_s, 6)),
                    ("oracle_s", Json::Fixed(phases.oracle_s, 6)),
                    ("transform_s", Json::Fixed(phases.transform_s, 6)),
                    ("atpg_s", Json::Fixed(phases.atpg_s, 6)),
                ]),
            ),
        ]));
    }

    let json = Json::Object(vec![
        ("bench", "kms_loop".into()),
        ("mode", if cfg.smoke { "smoke" } else { "full" }.into()),
        ("reps", reps.into()),
        ("rows", Json::Array(rows)),
    ])
    .rows();
    std::fs::write(&cfg.out, &json).unwrap_or_else(|e| die(&format!("write {}: {e}", cfg.out)));
    errln!("wrote {}", cfg.out);
}
