//! Incremental-engine benchmark for the KMS loop: end-to-end
//! `kms_algorithm` wall-clock and the per-phase split, incremental engine
//! vs per-iteration rebuild, measured in the same run on the same
//! prepared circuits. Emits `BENCH_kms.json`.
//!
//! Usage: `bench_kms [--smoke] [--jobs N] [--out FILE]`
//!
//! * `--smoke` — two small circuits, one rep: CI schema/determinism check.
//! * `--jobs N` — oracle worker threads inside each iteration (default 1,
//!   the paper-faithful sequential walk; the engine is bit-identical at
//!   any job count).
//! * `--out FILE` — output path (default `BENCH_kms.json`).
//!
//! Every row is also a correctness gate: the incremental run's final
//! netlist must dump byte-identically to the non-incremental run's, and
//! the iteration traces (chosen paths, duplication counts, asserted
//! constants) and removed-redundancy lists must match exactly — the
//! engine is a performance switch, not a semantic one.

use std::time::Instant;

use kms_bench::{json_escape, table1_csa};
use kms_core::{kms_on_copy, KmsOptions, KmsReport};
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
        jobs: 1,
        out: "BENCH_kms.json".to_string(),
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
                eprintln!("usage: bench_kms [--smoke] [--jobs N] [--out FILE]");
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
/// as `bench_sweep`/`bench_atpg`, so rows are comparable across the
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

struct Row {
    name: String,
    gates: usize,
    iterations: usize,
    duplicated: usize,
    removed: usize,
    dropped_longest: u64,
    incremental_updates: u64,
    full_recomputes: u64,
    cache_hits: u64,
    cache_misses: u64,
    inc_s: f64,
    full_s: f64,
    inc_phases: Phases,
    full_phases: Phases,
}

#[derive(Clone, Copy)]
struct Phases {
    engine_s: f64,
    path_enum_s: f64,
    oracle_s: f64,
    transform_s: f64,
    atpg_s: f64,
}

impl Phases {
    /// Wall time of the phases the incremental engine actually touches —
    /// the KMS loop proper. The trailing ATPG/removal pass is identical
    /// work in both modes and dwarfs the loop on circuits with few
    /// iterations, so end-to-end totals mostly measure it.
    fn loop_s(&self) -> f64 {
        self.engine_s + self.path_enum_s + self.oracle_s + self.transform_s
    }
}

fn phases(r: &KmsReport) -> Phases {
    Phases {
        engine_s: r.timings.engine.as_secs_f64(),
        path_enum_s: r.timings.path_enum.as_secs_f64(),
        oracle_s: r.timings.oracle.as_secs_f64(),
        transform_s: r.timings.transform.as_secs_f64(),
        atpg_s: r.timings.atpg.as_secs_f64(),
    }
}

/// The two runs must be observably identical: same netlist bytes, same
/// iteration trace, same removal list.
fn assert_bit_identical(name: &str, inc: &(Network, KmsReport), full: &(Network, KmsReport)) {
    assert_eq!(
        inc.0.dump(),
        full.0.dump(),
        "{name}: incremental and rebuild runs produced different netlists"
    );
    let (ri, rf) = (&inc.1, &full.1);
    assert_eq!(
        ri.removed_redundancies, rf.removed_redundancies,
        "{name}: removal lists diverged"
    );
    assert_eq!(
        ri.iterations.len(),
        rf.iterations.len(),
        "{name}: iteration counts diverged"
    );
    for (a, b) in ri.iterations.iter().zip(&rf.iterations) {
        assert_eq!(a.path, b.path, "{name}: chosen paths diverged");
        assert_eq!(
            (a.longest_length, a.duplicated, a.constant, a.dropped),
            (b.longest_length, b.duplicated, b.constant, b.dropped),
            "{name}: iteration bookkeeping diverged"
        );
    }
}

fn phase_json(p: &Phases) -> String {
    format!(
        "{{\"engine_s\": {:.6}, \"path_enum_s\": {:.6}, \"oracle_s\": {:.6}, \
         \"transform_s\": {:.6}, \"atpg_s\": {:.6}}}",
        p.engine_s, p.path_enum_s, p.oracle_s, p.transform_s, p.atpg_s
    )
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

    let incremental = KmsOptions {
        incremental: true,
        jobs: cfg.jobs,
        ..Default::default()
    };
    let rebuild = KmsOptions {
        incremental: false,
        jobs: cfg.jobs,
        ..Default::default()
    };

    let mut rows = Vec::new();
    for (name, net, arr) in &circuits {
        let (inc_s, inc_run) = time_min(reps, || kms_on_copy(net, arr, incremental).unwrap());
        let (full_s, full_run) = time_min(reps, || kms_on_copy(net, arr, rebuild).unwrap());
        assert_bit_identical(name, &inc_run, &full_run);
        let r = &inc_run.1;
        let (inc_loop, full_loop) = (phases(r).loop_s(), phases(&full_run.1).loop_s());
        eprintln!(
            "{name:<10} {:>3} iters  {:>4} dup  {:>3} removed  inc {inc_s:.4}s  \
             full {full_s:.4}s  ({:.2}x; loop {:.2}x)  \
             [{} inc updates, {} rebuilds, cache {}/{}]",
            r.iterations.len(),
            r.duplicated_gates,
            r.removed_redundancies.len(),
            full_s / inc_s,
            full_loop / inc_loop,
            r.engine.incremental_updates,
            r.engine.full_recomputes,
            r.engine.cache_hits,
            r.engine.cache_hits + r.engine.cache_misses,
        );
        rows.push(Row {
            name: name.clone(),
            gates: net.simple_gate_count(),
            iterations: r.iterations.len(),
            duplicated: r.duplicated_gates,
            removed: r.removed_redundancies.len(),
            dropped_longest: r.dropped_longest_paths,
            incremental_updates: r.engine.incremental_updates,
            full_recomputes: r.engine.full_recomputes,
            cache_hits: r.engine.cache_hits,
            cache_misses: r.engine.cache_misses,
            inc_s,
            full_s,
            inc_phases: phases(r),
            full_phases: phases(&full_run.1),
        });
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"bench\": \"kms_incremental\",\n  \"mode\": \"{}\",\n  \"jobs\": {},\n  \
         \"reps\": {},\n  \"rows\": [\n",
        if cfg.smoke { "smoke" } else { "full" },
        cfg.jobs,
        reps,
    ));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"circuit\": \"{}\", \"gates\": {}, \"iterations\": {}, \
             \"duplicated\": {}, \"removed\": {}, \"dropped_longest_paths\": {}, \
             \"incremental_updates\": {}, \"full_recomputes\": {}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \
             \"incremental_s\": {:.6}, \"rebuild_s\": {:.6}, \"speedup\": {:.3}, \
             \"incremental_loop_s\": {:.6}, \"rebuild_loop_s\": {:.6}, \
             \"loop_speedup\": {:.3}, \
             \"incremental_phases\": {}, \"rebuild_phases\": {}}}{}\n",
            json_escape(&r.name),
            r.gates,
            r.iterations,
            r.duplicated,
            r.removed,
            r.dropped_longest,
            r.incremental_updates,
            r.full_recomputes,
            r.cache_hits,
            r.cache_misses,
            r.inc_s,
            r.full_s,
            r.full_s / r.inc_s,
            r.inc_phases.loop_s(),
            r.full_phases.loop_s(),
            r.full_phases.loop_s() / r.inc_phases.loop_s(),
            phase_json(&r.inc_phases),
            phase_json(&r.full_phases),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&cfg.out, &json).unwrap_or_else(|e| die(&format!("write {}: {e}", cfg.out)));
    eprintln!("wrote {}", cfg.out);
}
