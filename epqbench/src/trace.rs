//! Span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the
//! library's public functions: name, start, end, parent span, and the
//! id of the operation that caused them. They stay in memory while the
//! workload runs and are written out once, at the end.

use std::collections::BTreeMap;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Time spent in one span name, summed over a run.
#[derive(Clone, Copy, Default)]
pub struct SpanTotals {
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self time: each span's duration minus its children's.
    pub self_ns: u64,
    /// Number of spans.
    pub spans: u64,
}

/// The in-memory span recorder plus the counters read at the same
/// boundaries.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    /// Operations the workload counted (checkpoints, batches, counts);
    /// the denominator of every per-op layer metric.
    pub ops: u64,
    /// Answer counts completed by the traced operations.
    pub counts: u64,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            ops: 0,
            counts: 0,
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Starts a new request id. Spans left open by a panicking call are
    /// closed here.
    pub fn next_request(&mut self) {
        let now = self.now_ns();
        for id in self.open.drain(..) {
            self.spans[id].end_ns = now;
        }
        self.op += 1;
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and anything still open inside it).
    pub fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Adds `value` to the counter `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.counters.entry(name).or_insert(0.0) += value;
    }

    /// Raises the counter `name` to at least `value`.
    pub fn max(&mut self, name: &'static str, value: f64) {
        let slot = self.counters.entry(name).or_insert(value);
        *slot = slot.max(value);
    }

    /// The counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(children);
            entry.spans += 1;
        }
        out
    }

    /// Writes every span as one tab-separated line.
    pub fn write_tsv(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(fs::File::create(path)?);
        writeln!(out, "# {header}")?;
        writeln!(out, "span\top\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{parent}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
