//! SAT kernel benchmark: pure CNF instances (DIMACS round-tripped) plus
//! generated ATPG classification workloads, emitting `BENCH_sat.json` —
//! the repository's perf trajectory for the solver under everything else.
//!
//! Usage: `bench_sat [--smoke] [--out FILE]`
//!
//! * `--smoke` — tiny instances, one rep: CI schema/sanity check.
//! * `--out FILE` — output path (default `BENCH_sat.json`).
//!
//! Two instance families:
//!
//! 1. **DIMACS** — pigeonhole (UNSAT) and fixed-seed random 3-SAT at the
//!    hard ratio, serialized with [`kms_sat::to_dimacs`] and re-parsed
//!    with [`kms_sat::parse_dimacs`] before solving, so the text path is
//!    exercised too. Expected verdicts are asserted.
//! 2. **ATPG** — full shared-CNF fault classification
//!    ([`kms_atpg::classify_faults_report`]) on Table I circuits: the
//!    exact hot path the KMS loop's final verdict is gated on.
//!
//! Every row carries the solver counters, wall-clock, and
//! propagations-per-second — the machine-comparable throughput figure
//! used by the acceptance gate when raw wall-clock is too noisy.

use std::time::Instant;

use kms_atpg::{classify_faults_report, collapsed_faults, ParallelOptions};
use kms_bench::table1_csa;
use kms_netlist::json::Json;
use kms_netlist::{errln, Network};
use kms_opt::flow::{prepare_benchmark, FlowOptions};
use kms_sat::{parse_dimacs, to_dimacs, Cnf, Lit, SatResult, Stats, Var};
use kms_timing::InputArrivals;

struct Config {
    smoke: bool,
    out: String,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        smoke: false,
        out: "BENCH_sat.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => cfg.smoke = true,
            "--out" | "-o" => {
                cfg.out = it.next().unwrap_or_else(|| die("--out needs a path"));
            }
            "-h" | "--help" => {
                errln!("usage: bench_sat [--smoke] [--out FILE]");
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

/// Pigeonhole PHP(pigeons, holes) as a plain clause list.
fn pigeonhole(pigeons: usize, holes: usize) -> Cnf {
    let var = |p: usize, h: usize| Var::from_index(p * holes + h);
    let mut clauses: Vec<Vec<Lit>> = Vec::new();
    for p in 0..pigeons {
        clauses.push((0..holes).map(|h| var(p, h).positive()).collect());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                clauses.push(vec![var(p1, h).negative(), var(p2, h).negative()]);
            }
        }
    }
    Cnf {
        num_vars: pigeons * holes,
        clauses,
    }
}

/// Fixed-seed random 3-SAT at clause/variable ratio ~4.2 (the hard
/// region), deterministic across machines and runs.
fn random_3sat(nvars: usize, nclauses: usize, seed: u64) -> Cnf {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let clauses = (0..nclauses)
        .map(|_| {
            let mut c = Vec::with_capacity(3);
            while c.len() < 3 {
                let v = (next() % nvars as u64) as usize;
                if c.iter().any(|l: &Lit| l.var().index() == v) {
                    continue;
                }
                c.push(Var::from_index(v).lit(next() & 1 == 0));
            }
            c
        })
        .collect();
    Cnf {
        num_vars: nvars,
        clauses,
    }
}

/// The late-last-input prepared MCNC network (same flow as `bench_atpg`).
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

struct Row {
    name: String,
    kind: &'static str,
    /// Instance size: `vars`/`clauses` or `gates`/`faults`.
    size: [(&'static str, usize); 2],
    result: String,
    wall_s: f64,
    solver: Stats,
}

impl Row {
    fn props_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.solver.propagations as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// Minimum wall-clock over `reps` runs (min, not mean: least scheduler
/// noise) plus the stats of the last run.
fn time_min<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
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

fn dimacs_row(name: &str, cnf: &Cnf, expect: SatResult, reps: usize) -> Row {
    // Round-trip through the text format so the parser is part of the
    // measured configuration's correctness (not its timing: parse once).
    let text = to_dimacs(cnf);
    let parsed = parse_dimacs(&text).expect("generated DIMACS parses");
    assert_eq!(
        &parsed, cnf,
        "{name}: DIMACS round-trip changed the formula"
    );
    let (wall_s, (result, stats)) = time_min(reps, || {
        let mut s = kms_sat::Solver::new();
        for _ in 0..parsed.num_vars {
            s.new_var();
        }
        let mut ok = true;
        for c in &parsed.clauses {
            if !s.add_clause(c) {
                ok = false;
                break;
            }
        }
        let r = if ok { s.solve() } else { SatResult::Unsat };
        (r, s.stats())
    });
    assert_eq!(result, expect, "{name}: unexpected verdict");
    Row {
        name: name.to_string(),
        kind: "dimacs",
        size: [("vars", cnf.num_vars), ("clauses", cnf.clauses.len())],
        result: format!("{result:?}").to_lowercase(),
        wall_s,
        solver: stats,
    }
}

/// `kind = "atpg"` uses the production defaults (random pre-screen),
/// where most faults never reach the solver.
/// `kind = "atpg-raw"` strips the random pre-screen, forcing every fault
/// through the shared-CNF engine — the solver-dominated configuration
/// whose propagations-per-second is the acceptance gate's fallback
/// criterion when wall-clock is machine-noisy.
fn atpg_row(name: &str, net: &Network, raw: bool, reps: usize) -> Row {
    let opts = if raw {
        ParallelOptions {
            drop_patterns: 0,
            ..Default::default()
        }
    } else {
        ParallelOptions::default()
    };
    let faults = collapsed_faults(net);
    let (wall_s, report) = time_min(reps, || classify_faults_report(net, faults.clone(), opts));
    let redundant = report
        .testability
        .verdicts
        .iter()
        .filter(|v| v.is_redundant())
        .count();
    Row {
        name: name.to_string(),
        kind: if raw { "atpg-raw" } else { "atpg" },
        size: [("gates", net.simple_gate_count()), ("faults", faults.len())],
        result: format!("redundant={redundant}"),
        wall_s,
        solver: report.solver,
    }
}

fn main() {
    let cfg = parse_args();
    let reps = if cfg.smoke { 1 } else { 3 };

    let mut rows: Vec<Row> = Vec::new();
    if cfg.smoke {
        rows.push(dimacs_row(
            "php(6,5)",
            &pigeonhole(6, 5),
            SatResult::Unsat,
            reps,
        ));
        rows.push(dimacs_row(
            "rand3sat n=60",
            &random_3sat(60, 230, 0xB5EC_5EED),
            SatResult::Sat,
            reps,
        ));
        rows.push(atpg_row("csa 2.2", &table1_csa(2, 2), false, reps));
        rows.push(atpg_row("csa 2.2 raw", &table1_csa(2, 2), true, reps));
    } else {
        rows.push(dimacs_row(
            "php(8,7)",
            &pigeonhole(8, 7),
            SatResult::Unsat,
            reps,
        ));
        rows.push(dimacs_row(
            "php(9,8)",
            &pigeonhole(9, 8),
            SatResult::Unsat,
            reps,
        ));
        rows.push(dimacs_row(
            "rand3sat n=140 sat",
            &random_3sat(140, 588, 0xB5EC_5EED),
            SatResult::Sat,
            reps,
        ));
        rows.push(dimacs_row(
            "rand3sat n=120 unsat",
            &random_3sat(120, 540, 0x5EED_0002),
            SatResult::Unsat,
            reps,
        ));
        for (bits, block) in [(8usize, 2usize), (16, 4)] {
            let net = table1_csa(bits, block);
            rows.push(atpg_row(
                &format!("atpg csa {bits}.{block}"),
                &net,
                false,
                reps,
            ));
            rows.push(atpg_row(
                &format!("atpg csa {bits}.{block} raw"),
                &net,
                true,
                reps,
            ));
        }
        for name in ["rd73", "sao2", "f51m"] {
            let net = mcnc_net(name);
            rows.push(atpg_row(&format!("atpg {name}"), &net, false, reps));
            rows.push(atpg_row(&format!("atpg {name} raw"), &net, true, reps));
        }
    }

    for r in &rows {
        errln!(
            "{:<22} {:>9.4}s  conflicts {:>8}  props {:>11}  ({:.2} Mprops/s)",
            r.name,
            r.wall_s,
            r.solver.conflicts,
            r.solver.propagations,
            r.props_per_sec() / 1e6
        );
    }

    let rows = rows
        .iter()
        .map(|r| {
            let mut fields = vec![
                ("instance", r.name.as_str().into()),
                ("kind", r.kind.into()),
            ];
            fields.extend(r.size.map(|(key, n)| (key, n.into())));
            fields.extend([
                ("result", r.result.as_str().into()),
                ("wall_s", Json::Fixed(r.wall_s, 6)),
                ("props_per_sec", Json::Fixed(r.props_per_sec(), 0)),
                ("solver", r.solver.to_json()),
            ]);
            Json::Object(fields)
        })
        .collect();
    let json = Json::Object(vec![
        ("bench", "sat_kernel".into()),
        ("mode", if cfg.smoke { "smoke" } else { "full" }.into()),
        ("reps", reps.into()),
        ("rows", Json::Array(rows)),
    ])
    .rows();
    std::fs::write(&cfg.out, &json).unwrap_or_else(|e| die(&format!("write {}: {e}", cfg.out)));
    errln!("wrote {}", cfg.out);
}
