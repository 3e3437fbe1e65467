//! The traced run: each circuit's `kms` run replayed under spans, and
//! split by layer from outside the program.
//!
//! The pipeline runs once as in [`crate::pipeline`], with a span around
//! each call. The run is then split without touching the program:
//!
//! * `core.loop` reruns `kms_with_control` with `stop_after` set to the
//!   full run's iteration count k, which leaves the post-loop network.
//!   When k = 0 the post-loop network is the input, and the loop time is
//!   the full run's time minus the removal time.
//! * `opt.removal` runs `naive_redundancy_removal` on that network with
//!   the engine `kms_with_control` picks.
//! * `opt.replay` repeats the removal step by step, as `naive.rs` does it,
//!   with a span per restart around fault collapsing, the scan and the
//!   removal.
//!
//! Guards keep the outside split honest: both removal runs must remove
//! the program's faults in its order and reach its output BLIF, and the
//! top-level spans must cover [`MIN_COVERAGE`] of each circuit's time.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use kms::atpg::{
    collapsed_faults, fault_simulate, random_tests, scan_for_redundancy, Engine, Fault,
    ParallelOptions,
};
use kms::blif::{parse_blif, write_blif};
use kms::core::{kms_with_control, KmsOptions, KmsReport, RunControl};
use kms::netlist::{transform, DelayModel, Network};
use kms::opt::flow::{area_optimize, timing_optimize, FlowOptions};
use kms::opt::{naive_redundancy_removal, remove_fault};
use kms::timing::{IncrementalSta, InputArrivals, ResumablePathEnumerator};

use crate::check::{check, run_problem};
use crate::json::Value;
use crate::measure::{Metric, RunResult};
use crate::pipeline::{self, arrivals_of, cli_options, Output};
use crate::trace::Tracer;
use crate::workload::{build_inputs, late_last_input, mcnc_pla, Input, Source, Workload};

/// The test set `naive.rs` seeds every removal phase with.
const REMOVAL_TESTS: usize = 128;
/// See [`REMOVAL_TESTS`].
const REMOVAL_TEST_SEED: u64 = 0x4B4D_5332;

/// Least share of a circuit's traced time its top-level spans must cover.
const MIN_COVERAGE: f64 = 0.95;

/// Counters summed over the circuits of one traced pass.
#[derive(Default)]
pub struct Totals {
    gates_in: usize,
    transform_s: f64,
    duplicated: usize,
    loop_s: f64,
    iterations: usize,
    oracle_s: f64,
    oracle_sat_calls: u64,
    cache_hits: u64,
    cache_lookups: u64,
    engine_s: f64,
    path_enum_s: f64,
    incremental_updates: u64,
    full_recomputes: u64,
    partials_retained: u64,
    partials_seen: u64,
    restarts: usize,
    removed: usize,
    faults_scanned: usize,
    final_scan_faults: usize,
    engine_calls: u64,
    fsim_detected: usize,
    atpg_calls: u64,
    atpg_conflicts: u64,
    atpg_propagations: u64,
    oracle_conflicts: u64,
    oracle_propagations: u64,
    proofs_checked: usize,
    check_s: f64,
    stream_total: u64,
}

impl Totals {
    /// Adds the program's own counters and phase timers from one report.
    fn add_report(&mut self, r: &KmsReport) {
        let t = &r.timings;
        self.transform_s += t.transform.as_secs_f64();
        self.oracle_s += t.oracle.as_secs_f64();
        self.engine_s += t.engine.as_secs_f64();
        self.path_enum_s += t.path_enum.as_secs_f64();
        self.duplicated += r.duplicated_gates;
        self.iterations += r.iterations.len();
        self.removed += r.removed_redundancies.len();
        self.oracle_sat_calls += r.oracle_solver.sat_calls;
        self.oracle_conflicts += r.oracle_solver.conflicts;
        self.oracle_propagations += r.oracle_solver.propagations;
        self.atpg_calls += r.atpg_solver.sat_calls;
        self.atpg_conflicts += r.atpg_solver.conflicts;
        self.atpg_propagations += r.atpg_solver.propagations;
        let e = &r.engine;
        self.cache_hits += e.cache_hits;
        self.cache_lookups += e.cache_hits + e.cache_misses;
        self.incremental_updates += e.incremental_updates;
        self.full_recomputes += e.full_recomputes;
        self.partials_retained += e.partials_retained;
        self.partials_seen += e.partials_retained + e.partials_dropped;
        if let Some(c) = &r.certification {
            self.proofs_checked += c.proofs_checked;
            self.check_s += c.check_time.as_secs_f64();
            self.stream_total += c.proof_stream_total;
        }
    }
}

/// `num / den`, or 0 when nothing was counted.
fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The removal engine's options, chosen as `kms_with_control` chooses
/// them: the run's shared-engine options, with certification forced on
/// under `--certify`.
fn removal_options(options: &KmsOptions) -> ParallelOptions {
    let popts = match options.engine {
        Engine::SharedSat(p) => p,
        _ => ParallelOptions::default(),
    };
    ParallelOptions {
        certify: popts.certify || options.certify,
        ..popts
    }
}

/// What the step-by-step removal replay produced.
struct Replayed {
    net: Network,
    removed: Vec<Fault>,
}

/// Replays `naive.rs`'s shared-engine removal loop on `net`, one span per
/// restart. A fault-simulation probe of the cached tests runs before each
/// scan to measure how many faults they drop.
fn replay_removal(
    t: &mut Tracer,
    mut net: Network,
    opts: ParallelOptions,
    totals: &mut Totals,
) -> Replayed {
    let mut tests = t.span("atpg.random_tests", |_| {
        random_tests(&net, REMOVAL_TESTS, REMOVAL_TEST_SEED)
    });
    let mut removed = Vec::new();
    loop {
        let found = t.span("opt.restart", |t| {
            let faults = t.span("atpg.collapse", |_| collapsed_faults(&net));
            let probe = t.span("atpg.fsim_probe", |_| fault_simulate(&net, &faults, &tests));
            let scan = t.span("atpg.scan", |_| {
                scan_for_redundancy(&net, &faults, opts, &tests)
            });
            totals.restarts += 1;
            totals.faults_scanned += faults.len();
            totals.fsim_detected += probe.detected();
            totals.engine_calls += scan.engine_calls;
            tests.extend(scan.tests);
            match scan.redundant {
                Some(f) => {
                    t.span("opt.remove_fault", |_| remove_fault(&mut net, f));
                    Some(f)
                }
                None => {
                    totals.final_scan_faults += faults.len();
                    None
                }
            }
        });
        match found {
            Some(f) => removed.push(f),
            None => break,
        }
    }
    Replayed { net, removed }
}

/// What one loop iteration costs without the incremental engine: a fresh
/// timing view and the longest-path set collected from a fresh frontier,
/// as `kms_with_control` collects it.
fn rebuild_probe(net: &Network, arrivals: &InputArrivals, options: &KmsOptions) -> usize {
    let sta = IncrementalSta::new(net, arrivals.clone());
    let mut paths = ResumablePathEnumerator::new(net, &sta).with_effort_cap(options.effort_cap);
    let mut longest = 0usize;
    let mut length = None;
    while let Some((_, len)) = paths.next_path(net, &sta) {
        match length {
            None => length = Some(len),
            Some(l) if l == len && longest < options.max_longest_paths => {}
            Some(_) => break,
        }
        longest += 1;
    }
    longest
}

/// One circuit's traced run. Returns the pipeline's output, or what went
/// wrong, including a failed replay guard.
fn replay_circuit(
    t: &mut Tracer,
    input: &Input,
    options: KmsOptions,
    totals: &mut Totals,
) -> Result<Output, String> {
    let name = &input.name;
    let circuit = t
        .span("blif.parse", |_| parse_blif(&input.blif))
        .map_err(|e| format!("{name}: {e}"))?;
    let (mut net, arrivals) = t.span("netlist.decompose", |_| {
        let mut net = circuit.network;
        transform::decompose_to_simple(&mut net);
        net.apply_delay_model(DelayModel::Unit);
        let arrivals = arrivals_of(&net, input);
        (net, arrivals)
    });
    let arrivals = arrivals?;
    let input_net = t.span("trace.copy", |_| net.clone());
    let report = t
        .span("core.kms", |_| {
            kms_with_control(&mut net, &arrivals, options, RunControl::default())
        })
        .map_err(|e| format!("{name}: {e}"))?
        .ok_or_else(|| format!("{name}: run without stop_after did not complete"))?;
    let blif = t.span("blif.write", |_| write_blif(&net));

    let k = report.iterations.len();
    let post_loop = t.span("core.loop", |_| -> Result<Network, String> {
        let mut n = input_net.clone();
        if k > 0 {
            let control = RunControl {
                stop_after: Some(k),
                ..Default::default()
            };
            match kms_with_control(&mut n, &arrivals, options, control) {
                Ok(None) => {}
                Ok(Some(_)) => return Err(format!("{name}: loop ended before {k} iterations")),
                Err(e) => return Err(format!("{name}: {e}")),
            }
        }
        Ok(n)
    })?;
    let opts = removal_options(&options);
    let (removal_net, removal) = t.span("opt.removal", |_| {
        let mut n = post_loop.clone();
        let r = naive_redundancy_removal(&mut n, Engine::SharedSat(opts));
        (n, r)
    });
    let replayed = t.span("opt.replay", |t| replay_removal(t, post_loop, opts, totals));
    t.span("trace.guard", |_| {
        for (what, removed, out) in [
            ("removal run", &removal.removed, &removal_net),
            ("removal replay", &replayed.removed, &replayed.net),
        ] {
            if *removed != report.removed_redundancies {
                return Err(format!(
                    "{name}: the {what} removed {} faults, the program {} (or in another order)",
                    removed.len(),
                    report.removed_redundancies.len()
                ));
            }
            if write_blif(out) != blif {
                return Err(format!(
                    "{name}: the {what} wrote other BLIF than the program"
                ));
            }
        }
        Ok(())
    })?;
    t.span("timing.rebuild_probe", |_| {
        rebuild_probe(&input_net, &arrivals, &options)
    });
    totals.gates_in += input_net.simple_gate_count();
    totals.add_report(&report);
    Ok(Output { blif, net, report })
}

/// Times the two steps of the Table I preparation flow for each MCNC
/// circuit of the workload: set-up work, outside any circuit's run.
fn trace_setup(t: &mut Tracer, workload: Workload) {
    let flow = FlowOptions::default();
    for source in workload.sources() {
        if let Source::Mcnc(name) = source {
            t.begin_circuit(&format!("set-up {name}"));
            let pla = mcnc_pla(name);
            let mut net = t.span("opt.flow_area", |_| area_optimize(&pla, name, flow));
            t.span("opt.flow_bypass", |_| {
                let arrivals = late_last_input(&net);
                timing_optimize(&mut net, &arrivals, flow)
            });
        }
    }
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub fn layer_metrics(t: &Tracer, s: &Totals, coverage: f64, overhead: f64) -> Vec<Metric> {
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("blif.parse_s", t.total_s("blif.parse"), "s"),
        m("blif.write_s", t.total_s("blif.write"), "s"),
        m("netlist.decompose_s", t.total_s("netlist.decompose"), "s"),
        m("netlist.gates_in", s.gates_in as f64, "gates"),
        m("netlist.transform_s", s.transform_s, "s"),
        m("netlist.duplicated_gates", s.duplicated as f64, "gates"),
        m("core.kms_s", t.total_s("core.kms"), "s"),
        m("core.loop_s", s.loop_s, "s"),
        m("core.iterations", s.iterations as f64, "count"),
        m("core.oracle_s", s.oracle_s, "s"),
        m("core.oracle_sat_calls", s.oracle_sat_calls as f64, "count"),
        m(
            "core.cache_hit_frac",
            frac(s.cache_hits as f64, s.cache_lookups as f64),
            "ratio",
        ),
        m("timing.engine_s", s.engine_s, "s"),
        m("timing.path_enum_s", s.path_enum_s, "s"),
        m(
            "timing.incremental_updates",
            s.incremental_updates as f64,
            "count",
        ),
        m("timing.full_recomputes", s.full_recomputes as f64, "count"),
        m(
            "timing.repair_retained_frac",
            frac(s.partials_retained as f64, s.partials_seen as f64),
            "ratio",
        ),
        m(
            "timing.rebuild_probe_s",
            t.total_s("timing.rebuild_probe"),
            "s",
        ),
        m("opt.removal_s", t.total_s("opt.removal"), "s"),
        m("opt.restarts", s.restarts as f64, "count"),
        m("opt.removed", s.removed as f64, "count"),
        m("opt.remove_fault_s", t.total_s("opt.remove_fault"), "s"),
        m(
            "opt.scan_useful_frac",
            frac(s.final_scan_faults as f64, s.faults_scanned as f64),
            "ratio",
        ),
        m("opt.flow_area_s", t.total_s("opt.flow_area"), "s"),
        m("opt.flow_bypass_s", t.total_s("opt.flow_bypass"), "s"),
        m("atpg.collapse_s", t.total_s("atpg.collapse"), "s"),
        m("atpg.scan_s", t.total_s("atpg.scan"), "s"),
        m("atpg.faults_scanned", s.faults_scanned as f64, "count"),
        m("atpg.engine_calls", s.engine_calls as f64, "count"),
        m("atpg.fsim_probe_s", t.total_s("atpg.fsim_probe"), "s"),
        m(
            "atpg.fsim_drop_frac",
            frac(s.fsim_detected as f64, s.faults_scanned as f64),
            "ratio",
        ),
        m("sat.atpg_calls", s.atpg_calls as f64, "count"),
        m("sat.atpg_conflicts", s.atpg_conflicts as f64, "count"),
        m("sat.atpg_propagations", s.atpg_propagations as f64, "count"),
        m("sat.oracle_conflicts", s.oracle_conflicts as f64, "count"),
        m(
            "sat.oracle_propagations",
            s.oracle_propagations as f64,
            "count",
        ),
        m("proof.proofs_checked", s.proofs_checked as f64, "count"),
        m("proof.check_s", s.check_s, "s"),
        m("proof.stream_total", s.stream_total as f64, "count"),
        m("trace.coverage_frac", coverage, "ratio"),
        m("trace.overhead_frac", overhead, "ratio"),
    ]
}

/// Runs `workload` traced: one untraced pass as the reference for time and
/// output, then one traced pass, whose spans go to `trace_path` as Chrome
/// trace JSON.
pub fn run(workload: Workload, seed: u64, trace_path: &Path) -> RunResult {
    let flags = workload.flags();
    let options = cli_options(flags);
    let inputs = build_inputs(workload, seed);
    let mut problems = Vec::new();

    let mut untraced_s = 0.0;
    let mut untraced = Vec::with_capacity(inputs.len());
    for input in &inputs {
        let t0 = Instant::now();
        let result = pipeline::run(input, flags);
        untraced_s += t0.elapsed().as_secs_f64();
        untraced.push(result.map(|out| out.blif).ok());
    }

    let mut t = Tracer::default();
    trace_setup(&mut t, workload);
    let mut totals = Totals::default();
    let mut failed = 0u64;
    let mut coverage = 1.0f64;
    let mut circuits = Vec::new();
    for (input, plain) in inputs.iter().zip(&untraced) {
        let id = t.begin_circuit(&input.name);
        let top = t.spans().len();
        let result = t.span("trace.circuit", |t| {
            replay_circuit(t, input, options, &mut totals)
        });
        let covered = t.coverage(top);
        coverage = coverage.min(covered);
        let kms_s = t.circuit_s(id, "core.kms");
        let removal_s = t.circuit_s(id, "opt.removal");
        let outcome = result.and_then(|out| {
            totals.loop_s += if out.report.iterations.is_empty() {
                kms_s - removal_s
            } else {
                t.circuit_s(id, "core.loop")
            };
            if plain.as_ref() != Some(&out.blif) {
                return Err(format!(
                    "{}: the traced run wrote other BLIF than the untraced one",
                    input.name
                ));
            }
            if covered < MIN_COVERAGE {
                return Err(format!(
                    "{}: top-level spans cover {:.1}% of the circuit's traced time",
                    input.name,
                    covered * 100.0
                ));
            }
            match run_problem(&out) {
                Some(p) => Err(format!("{}: {p}", input.name)),
                None => check(input, &out).map_err(|e| format!("{}: {e}", input.name)),
            }
        });
        let mut row = BTreeMap::new();
        row.insert("name".into(), Value::Str(input.name.clone()));
        row.insert("kms_s".into(), Value::Num(kms_s));
        row.insert("removal_s".into(), Value::Num(removal_s));
        row.insert("coverage".into(), Value::Num(covered));
        if let Err(e) = outcome {
            failed += 1;
            row.insert("failures".into(), Value::Arr(vec![Value::Str(e)]));
        }
        circuits.push(Value::Obj(row));
    }

    let traced_s: f64 = ["blif.parse", "netlist.decompose", "core.kms", "blif.write"]
        .iter()
        .map(|n| t.total_s(n))
        .sum();
    let overhead = frac(traced_s - untraced_s, untraced_s);
    if let Some(dir) = trace_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    // One process per workload, so that traces of several workloads join
    // into one file without clashing.
    let process = format!("kms-benchmark {}", workload.name());
    let pid = Workload::ALL
        .iter()
        .position(|&w| w == workload)
        .expect("every workload is in ALL") as u32
        + 1;
    if let Err(e) = std::fs::write(trace_path, t.chrome_json(&process, pid)) {
        problems.push(format!("cannot write {}: {e}", trace_path.display()));
    }

    let metrics = layer_metrics(&t, &totals, coverage, overhead);
    let kms_s = t.total_s("core.kms");
    let mut record = BTreeMap::new();
    record.insert(
        "trace_file".into(),
        Value::Str(trace_path.display().to_string()),
    );
    record.insert("untraced_pass_s".into(), Value::Num(untraced_s));
    record.insert(
        "split_frac".into(),
        Value::Num(frac(totals.loop_s + t.total_s("opt.removal"), kms_s)),
    );
    record.insert("circuits".into(), Value::Arr(circuits));
    RunResult {
        attempted: inputs.len() as u64,
        failed,
        problems,
        metrics,
        record,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_pipeline_checks_and_replay() {
        let start = Instant::now();
        let inputs: Vec<Input> = [Source::Csa(2, 2), Source::Mcnc("misex1")]
            .into_iter()
            .map(|s| s.build(1))
            .collect();
        let flags = Workload::LoopHeavy.flags();
        let mut t = Tracer::default();
        let mut totals = Totals::default();
        for input in &inputs {
            let plain = pipeline::run(input, flags).expect("pipeline runs");
            t.begin_circuit(&input.name);
            let traced = t
                .span("trace.circuit", |t| {
                    replay_circuit(t, input, cli_options(flags), &mut totals)
                })
                .expect("replay guards hold");
            assert_eq!(
                plain.blif, traced.blif,
                "{}: traced run differs",
                input.name
            );
            assert!(run_problem(&plain).is_none());
            let c = check(input, &plain).expect("output checks pass");
            assert!(c.delay_out <= c.delay_in);
        }
        assert!(totals.restarts >= inputs.len());
        let metrics = layer_metrics(&t, &totals, 1.0, 0.0);
        assert!(metrics.iter().all(|m| m.value.is_finite()));
        assert!(
            start.elapsed().as_secs_f64() < 5.0,
            "smoke test took {:?}",
            start.elapsed()
        );
    }
}
