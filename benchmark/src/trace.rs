//! Spans around calls into the program's layers, kept in memory and
//! written as Chrome trace-event JSON, which Perfetto (ui.perfetto.dev)
//! and `chrome://tracing` open.
//!
//! A span's name is `layer.operation`; the layer becomes the event
//! category. Spans nest by call structure, every span records the span
//! that caused it, and all spans of one circuit share its id. Times are
//! kept in whole nanoseconds, so a child's end never rounds past its
//! parent's.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// The id [`Tracer::begin_circuit`] returned for its circuit.
    pub circuit: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Start.
    pub start_ns: u64,
    /// Duration.
    pub dur_ns: u64,
}

/// Records spans for one traced pass.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    circuits: Vec<String>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            circuits: vec!["(none)".to_string()],
        }
    }
}

impl Tracer {
    /// Starts attributing spans to a new circuit and returns its id.
    pub fn begin_circuit(&mut self, name: &str) -> usize {
        self.circuits.push(name.to_string());
        self.circuits.len() - 1
    }

    fn current_circuit(&self) -> usize {
        self.circuits.len() - 1
    }

    /// Runs `f` inside a span named `name`. Spans opened inside `f`
    /// become its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start = self.now_ns();
        self.spans.push(Span {
            name,
            circuit: self.current_circuit(),
            parent: self.open.last().copied(),
            start_ns: start,
            dur_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].dur_ns = self.now_ns() - start;
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a trace shorter than 584 years")
    }

    /// Every finished span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds spent in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum::<u64>() as f64
            / 1e9
    }

    /// Seconds spent in spans named `name` of one circuit.
    pub fn circuit_s(&self, circuit: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.circuit == circuit && s.name == name)
            .map(|s| s.dur_ns)
            .sum::<u64>() as f64
            / 1e9
    }

    /// Span `id`'s duration minus the time its direct children cover, in
    /// nanoseconds. Children never overlap, so this is never negative.
    pub fn self_ns(&self, id: usize) -> u64 {
        self.spans[id].dur_ns - self.children_ns(id)
    }

    /// Share of span `id`'s duration covered by its direct children.
    pub fn coverage(&self, id: usize) -> f64 {
        let dur = self.spans[id].dur_ns;
        if dur > 0 {
            self.children_ns(id) as f64 / dur as f64
        } else {
            1.0
        }
    }

    fn children_ns(&self, id: usize) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.dur_ns)
            .sum()
    }

    /// The trace as Chrome trace-event JSON: one complete (`"ph": "X"`)
    /// event per span, on one thread of process `pid`.
    pub fn chrome_json(&self, process: &str, pid: u32) -> String {
        let mut events = vec![metadata(process, pid)];
        for (id, s) in self.spans.iter().enumerate() {
            let mut args = BTreeMap::new();
            args.insert(
                "circuit".into(),
                Value::Str(self.circuits[s.circuit].clone()),
            );
            args.insert("circuit_id".into(), Value::Num(s.circuit as f64));
            args.insert("span".into(), Value::Num(id as f64));
            args.insert(
                "parent".into(),
                s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
            );
            args.insert("self_us".into(), Value::Num(us(self.self_ns(id))));
            let mut ev = BTreeMap::new();
            ev.insert("name".into(), Value::Str(s.name.to_string()));
            let layer = s.name.split('.').next().unwrap_or(s.name);
            ev.insert("cat".into(), Value::Str(layer.to_string()));
            ev.insert("ph".into(), Value::Str("X".into()));
            ev.insert("ts".into(), Value::Num(us(s.start_ns)));
            ev.insert("dur".into(), Value::Num(us(s.dur_ns)));
            ev.insert("pid".into(), Value::Num(f64::from(pid)));
            ev.insert("tid".into(), Value::Num(1.0));
            ev.insert("args".into(), Value::Obj(args));
            events.push(Value::Obj(ev));
        }
        let lines: Vec<String> = events.iter().map(Value::render).collect();
        document(&lines)
    }
}

/// Nanoseconds as the microseconds trace events count in.
fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The `process_name` metadata event that labels `pid` in the viewer.
fn metadata(process: &str, pid: u32) -> Value {
    let mut args = BTreeMap::new();
    args.insert("name".into(), Value::Str(process.to_string()));
    let mut ev = BTreeMap::new();
    ev.insert("name".into(), Value::Str("process_name".into()));
    ev.insert("ph".into(), Value::Str("M".into()));
    ev.insert("pid".into(), Value::Num(f64::from(pid)));
    ev.insert("args".into(), Value::Obj(args));
    Value::Obj(ev)
}

/// A trace file holding the rendered events `lines`, one per line between
/// the file's first and last line.
fn document(lines: &[String]) -> String {
    format!(
        "{{\"traceEvents\": [\n{}\n], \"displayTimeUnit\": \"ms\"}}\n",
        lines.join(",\n")
    )
}

/// Joins trace files written by [`Tracer::chrome_json`] into one. Each
/// event keeps the `pid` its file gave it.
pub fn join(files: &[String]) -> String {
    let mut lines = Vec::new();
    for text in files {
        let body: Vec<&str> = text.lines().collect();
        let events = body.get(1..body.len().saturating_sub(1)).unwrap_or(&[]);
        lines.extend(events.iter().map(|l| l.trim_end_matches(',').to_string()));
    }
    document(&lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn busy(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::black_box(());
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_nested_spans() {
        let mut t = Tracer::default();
        let c = t.begin_circuit("c\"1");
        t.span("core.outer", |t| {
            busy(200);
            t.span("timing.inner", |_| busy(300));
            t.span("sat.inner", |t| t.span("sat.leaf", |_| busy(100)));
        });
        assert_eq!(t.spans().len(), 4);
        assert!(t.spans().iter().all(|s| s.circuit == c));

        let doc = json::parse(&t.chrome_json("test", 7)).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let spans: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 4);
        let field = |e: &Value, k: &str| e.get(k).and_then(Value::as_f64).unwrap();
        // Back to whole nanoseconds, the unit the tracer keeps.
        let ns = |e: &Value, k: &str| (field(e, k) * 1e3).round() as u64;
        for e in &spans {
            let args = e.get("args").unwrap();
            assert!(field(args, "self_us") >= 0.0, "negative self time");
            assert_eq!(args.get("circuit").unwrap().as_str(), Some("c\"1"));
            let Some(p) = args.get("parent").and_then(Value::as_f64) else {
                continue;
            };
            let parent = spans[p as usize];
            let (ps, pe) = (ns(parent, "ts"), ns(parent, "ts") + ns(parent, "dur"));
            let (cs, ce) = (ns(e, "ts"), ns(e, "ts") + ns(e, "dur"));
            assert!(
                ps <= cs && ce <= pe,
                "child [{cs}, {ce}] outside [{ps}, {pe}]"
            );
        }
        assert!(t.coverage(0) > 0.0 && t.coverage(0) <= 1.0);
        assert!(t.total_s("sat.leaf") > 0.0);
    }

    #[test]
    fn joined_traces_are_valid_json_and_keep_their_processes() {
        let mut a = Tracer::default();
        a.begin_circuit("a");
        a.span("blif.parse", |_| ());
        let mut b = Tracer::default();
        b.begin_circuit("b");
        b.span("blif.write", |_| ());
        let joined = join(&[a.chrome_json("a", 1), b.chrome_json("b", 2)]);
        let doc = json::parse(&joined).unwrap();
        let pids: Vec<f64> = doc
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|e| e.get("pid").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(pids, vec![1.0, 1.0, 2.0, 2.0]);
    }
}
