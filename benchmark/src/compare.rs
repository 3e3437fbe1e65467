//! `compare`: judge a set of new runs against a set of base runs with the
//! bounds `BENCHMARK.json` fixes.
//!
//! Each input file is the standard output of one or more benchmark runs;
//! every record line (a JSON object with `workload` and `metrics`) counts
//! as one run. For each end-to-end metric and workload the verdict is:
//!
//! * `improved` — the new side wins at least 9 of every 10 pairs (run i
//!   against run i, ties counting for neither) and the medians differ by
//!   more than the base side's quartile spread;
//! * `regressed` — the new median is worse than the base median by more
//!   than the bound;
//! * `unresolved` — a side's quartile spread is wider than the bound and
//!   not every new run beats every base run;
//! * `within bound` — otherwise.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::stats::{median, quartiles};

/// One end-to-end metric's entry in `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Largest tolerated worsening, as a share of the base median.
    pub bound: f64,
}

/// Reads the `end_to_end` entries of a `BENCHMARK.json` document.
pub fn bounds(bench: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(bench).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let entries = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(Value::as_str);
            let better = e.get("better").and_then(Value::as_str);
            let bound = e.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b @ ("lower" | "higher")), Some(x)) => Ok(Bound {
                    name: n.to_string(),
                    lower_is_better: b == "lower",
                    bound: x,
                }),
                _ => Err(format!("malformed end_to_end entry {}", e.render())),
            }
        })
        .collect()
}

/// Metric values per (workload, metric), one per run, in file order.
pub type Runs = BTreeMap<(String, String), Vec<f64>>;

/// Collects every record line of `text` into `runs`.
pub fn collect(text: &str, runs: &mut Runs) {
    for line in text.lines() {
        let Ok(v) = json::parse(line) else { continue };
        let (Some(workload), Some(Value::Obj(metrics))) =
            (v.get("workload").and_then(Value::as_str), v.get("metrics"))
        else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(x) = m.get("value").and_then(Value::as_f64) {
                runs.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(x);
            }
        }
    }
}

/// The verdict on one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// See the module documentation.
    WithinBound,
    /// See the module documentation.
    Regressed,
    /// See the module documentation.
    Unresolved,
    /// See the module documentation.
    Improved,
}

impl Verdict {
    /// The verdict as printed.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Improved => "improved",
        }
    }
}

/// Judges `new` runs against `base` runs of one metric.
pub fn judge(base: &[f64], new: &[f64], b: &Bound) -> Verdict {
    let (Some(mb), Some(mn)) = (median(base), median(new)) else {
        return Verdict::Unresolved;
    };
    let (bq1, bq3) = quartiles(base).expect("nonempty");
    let (nq1, nq3) = quartiles(new).expect("nonempty");
    // Signed so that positive means better.
    let gain = |from: f64, to: f64| {
        if b.lower_is_better {
            from - to
        } else {
            to - from
        }
    };
    let scale = mb.abs().max(f64::MIN_POSITIVE);

    let pairs = base.len().min(new.len());
    let wins = base
        .iter()
        .zip(new)
        .filter(|(x, y)| gain(**x, **y) > 0.0)
        .count();
    if pairs > 0 && wins * 10 >= pairs * 9 && gain(mb, mn) > bq3 - bq1 {
        return Verdict::Improved;
    }
    if -gain(mb, mn) / scale > b.bound {
        return Verdict::Regressed;
    }
    let all_better = base.iter().all(|x| new.iter().all(|y| gain(*x, *y) > 0.0));
    let spread = ((bq3 - bq1) / scale).max((nq3 - nq1) / mn.abs().max(f64::MIN_POSITIVE));
    if spread > b.bound && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::WithinBound
}

/// Runs the comparison and renders the table. Returns the table and
/// whether any metric regressed.
pub fn compare(bench: &str, base: &[String], new: &[String]) -> Result<(String, bool), String> {
    let bounds = bounds(bench)?;
    let (mut a, mut b) = (Runs::new(), Runs::new());
    for text in base {
        collect(text, &mut a);
    }
    for text in new {
        collect(text, &mut b);
    }
    let mut out = format!(
        "{:<14} {:<12} {:>26} {:>26} {:>8} {:>6}  verdict\n",
        "workload",
        "metric",
        "base median [q1, q3] (n)",
        "new median [q1, q3] (n)",
        "change",
        "bound"
    );
    let mut regressed = false;
    let mut rows = 0;
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = a.keys().map(|(w, _)| w).collect();
        w.dedup();
        w
    };
    for workload in workloads {
        for bound in &bounds {
            let key = (workload.clone(), bound.name.clone());
            let (Some(x), Some(y)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let verdict = judge(x, y, bound);
            regressed |= verdict == Verdict::Regressed;
            rows += 1;
            let cell = |v: &[f64]| {
                let m = median(v).expect("nonempty");
                let (q1, q3) = quartiles(v).expect("nonempty");
                // Four significant digits: enough to see a spread.
                let f = |x: f64| {
                    let magnitude = if x == 0.0 {
                        0
                    } else {
                        x.abs().log10().floor() as i32
                    };
                    format!("{x:.*}", (3 - magnitude).max(0) as usize)
                };
                format!("{} [{}, {}] ({})", f(m), f(q1), f(q3), v.len())
            };
            let (mx, my) = (median(x).expect("nonempty"), median(y).expect("nonempty"));
            let change = if mx != 0.0 {
                (my - mx) / mx.abs() * 100.0
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<14} {:<12} {:>26} {:>26} {:>+7.2}% {:>6}  {}\n",
                workload,
                bound.name,
                cell(x),
                cell(y),
                change,
                format!("{}%", bound.bound * 100.0),
                verdict.label()
            ));
        }
    }
    if rows == 0 {
        return Err("no metric appears on both sides".into());
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wall(bound: f64) -> Bound {
        Bound {
            name: "wall_s".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(judge(&base, &base, &wall(0.1)), Verdict::WithinBound);
        let slower = [1.20, 1.21, 1.19, 1.20, 1.22];
        assert_eq!(judge(&base, &slower, &wall(0.1)), Verdict::Regressed);
        let faster = [0.80, 0.81, 0.79, 0.80, 0.82];
        assert_eq!(judge(&base, &faster, &wall(0.1)), Verdict::Improved);
        let noisy = [0.5, 1.5, 0.7, 1.3, 1.0];
        assert_eq!(judge(&base, &noisy, &wall(0.1)), Verdict::Unresolved);
        // A deterministic count with a zero bound: any increase regresses.
        let gates = Bound {
            name: "gates_out".into(),
            lower_is_better: true,
            bound: 0.0,
        };
        assert_eq!(
            judge(&[100.0; 5], &[100.0; 5], &gates),
            Verdict::WithinBound
        );
        assert_eq!(judge(&[100.0; 5], &[101.0; 5], &gates), Verdict::Regressed);
        assert_eq!(judge(&[100.0; 5], &[99.0; 5], &gates), Verdict::Improved);
    }

    #[test]
    fn reads_bounds_and_record_lines() {
        let bench =
            r#"{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#;
        assert_eq!(bounds(bench).unwrap(), vec![wall(0.1)]);
        let run = |v: f64| {
            format!(
                "noise\n{{\"workload\": \"w\", \"metrics\": {{\"wall_s\": {{\"value\": {v}, \"unit\": \"s\"}}}}}}\n"
            )
        };
        let base: Vec<String> = [1.0, 1.01, 0.99].iter().map(|&v| run(v)).collect();
        let new: Vec<String> = [1.5, 1.51, 1.49].iter().map(|&v| run(v)).collect();
        let (table, regressed) = compare(bench, &base, &new).unwrap();
        assert!(regressed, "{table}");
        assert!(table.contains("regressed"));
    }
}
