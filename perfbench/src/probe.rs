//! Layer counters and spans, read from outside the crates.
//!
//! The benchmark never instruments the code it measures. A span is a
//! host-clock interval around one call into a crate's public API, and its
//! counter delta is the difference of the public counters read before and
//! after that call.

use std::fmt::Write as _;
use std::ops::Index;
use std::time::{Duration, Instant};

use datagrid_core::prelude::DataGrid;

/// One public counter the benchmark attributes work with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// `NetSim::stats().events_processed`.
    Events,
    /// `NetSim::stats().timers_fired`.
    Timers,
    /// Incremental plus full solver passes.
    Solves,
    /// Flows handed to the solver.
    FlowsTouched,
    /// Solver passes cohort batching avoided.
    SolvesAvoided,
    /// `selection.decisions`.
    Decisions,
    /// `selection.failovers`.
    Failovers,
    /// `monitor.ticks`.
    MonitorTicks,
    /// `transfer.retries`.
    Retries,
    /// `transfer.stalls`.
    Stalls,
    /// `transfer.abandoned`.
    Abandoned,
    /// `nws.probes_started`.
    ProbesStarted,
    /// Replica catalog lookups.
    CatalogLookups,
    /// Score-scratch hits.
    ScratchHits,
    /// Score-scratch misses.
    ScratchMisses,
    /// Events evicted from the recorder's ring buffer.
    EventsDropped,
}

impl Counter {
    /// Every counter, in reporting order.
    pub const ALL: [Counter; 16] = [
        Counter::Events,
        Counter::Timers,
        Counter::Solves,
        Counter::FlowsTouched,
        Counter::SolvesAvoided,
        Counter::Decisions,
        Counter::Failovers,
        Counter::MonitorTicks,
        Counter::Retries,
        Counter::Stalls,
        Counter::Abandoned,
        Counter::ProbesStarted,
        Counter::CatalogLookups,
        Counter::ScratchHits,
        Counter::ScratchMisses,
        Counter::EventsDropped,
    ];

    /// The counter's name in span output.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Events => "events",
            Counter::Timers => "timers",
            Counter::Solves => "solves",
            Counter::FlowsTouched => "flows_touched",
            Counter::SolvesAvoided => "solves_avoided",
            Counter::Decisions => "decisions",
            Counter::Failovers => "failovers",
            Counter::MonitorTicks => "monitor_ticks",
            Counter::Retries => "retries",
            Counter::Stalls => "stalls",
            Counter::Abandoned => "abandoned",
            Counter::ProbesStarted => "probes_started",
            Counter::CatalogLookups => "catalog_lookups",
            Counter::ScratchHits => "scratch_hits",
            Counter::ScratchMisses => "scratch_misses",
            Counter::EventsDropped => "events_dropped",
        }
    }
}

/// A reading, or a delta, of every [`Counter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters([u64; Counter::ALL.len()]);

impl Index<Counter> for Counters {
    type Output = u64;

    fn index(&self, counter: Counter) -> &u64 {
        &self.0[counter as usize]
    }
}

impl Counters {
    /// Reads every counter from the grid's public accessors.
    pub fn read(grid: &DataGrid) -> Counters {
        let s = grid.network().stats();
        let m = grid.recorder().metrics();
        let (hits, misses) = grid.score_scratch_stats();
        Counters(Counter::ALL.map(|c| match c {
            Counter::Events => s.events_processed,
            Counter::Timers => s.timers_fired,
            Counter::Solves => s.incremental_solves + s.full_solves,
            Counter::FlowsTouched => s.solver_flows_touched,
            Counter::SolvesAvoided => s.solves_avoided,
            Counter::Decisions => m.counter("selection.decisions"),
            Counter::Failovers => m.counter("selection.failovers"),
            Counter::MonitorTicks => m.counter("monitor.ticks"),
            Counter::Retries => m.counter("transfer.retries"),
            Counter::Stalls => m.counter("transfer.stalls"),
            Counter::Abandoned => m.counter("transfer.abandoned"),
            Counter::ProbesStarted => m.counter("nws.probes_started"),
            Counter::CatalogLookups => grid.catalog().stats().lookups(),
            Counter::ScratchHits => hits,
            Counter::ScratchMisses => misses,
            Counter::EventsDropped => grid.recorder().dropped_events(),
        }))
    }

    /// `self - before`, counter by counter.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters(std::array::from_fn(|i| {
            self.0[i].saturating_sub(before.0[i])
        }))
    }

    /// Counter-by-counter sum.
    pub fn add(&mut self, other: &Counters) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }

    /// Every counter with its name.
    pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Counter::ALL.iter().map(|&c| (c.name(), self[c]))
    }
}

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The public call, `layer.function`.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The job the call serves, shared by all spans of one request.
    pub request: Option<usize>,
    /// Host time since the tracer started.
    pub start: Duration,
    /// Host time since the tracer started.
    pub end: Duration,
    /// Counter movement across the call.
    pub delta: Counters,
}

impl Span {
    /// Host seconds inside the call.
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Records spans when enabled; a pass-through otherwise, so traced and
/// untraced runs share one code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: Option<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only passes calls through.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: None,
        }
    }

    /// Tags the spans opened from now on with the job they serve.
    pub fn set_request(&mut self, request: Option<usize>) {
        self.request = request;
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            request: self.request,
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            delta: Counters::default(),
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the innermost span, which must be `id`.
    pub fn close(&mut self, id: Option<usize>, delta: Counters) {
        let Some(id) = id else { return };
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        let span = &mut self.spans[id];
        span.end = self.epoch.elapsed();
        span.delta = delta;
    }

    /// Runs `f` on `grid` inside a span carrying the counter delta.
    pub fn call<R>(
        &mut self,
        name: &'static str,
        grid: &mut DataGrid,
        f: impl FnOnce(&mut DataGrid) -> R,
    ) -> R {
        if !self.enabled {
            return f(grid);
        }
        let before = Counters::read(grid);
        let id = self.open(name);
        let out = f(grid);
        self.close(id, Counters::read(grid).since(&before));
        out
    }

    /// Takes the recorded spans, leaving the tracer empty.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// The spans of one name, summed.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTotal {
    /// The call.
    pub name: &'static str,
    /// The enclosing call of its first span.
    pub parent: Option<&'static str>,
    /// Spans of this name.
    pub calls: usize,
    /// Host seconds inside them.
    pub total_s: f64,
    /// `total_s` minus the part their child spans cover.
    pub self_s: f64,
    /// Summed counter movement.
    pub delta: Counters,
}

/// Per-name totals of `spans`, in first-seen order.
pub fn aggregate(spans: &[Span]) -> Vec<SpanTotal> {
    let mut child_s = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_s[p] += s.secs();
        }
    }
    let mut out: Vec<SpanTotal> = Vec::new();
    for (s, child) in spans.iter().zip(&child_s) {
        let i = match out.iter().position(|t| t.name == s.name) {
            Some(i) => i,
            None => {
                out.push(SpanTotal {
                    name: s.name,
                    parent: s.parent.map(|p| spans[p].name),
                    calls: 0,
                    total_s: 0.0,
                    self_s: 0.0,
                    delta: Counters::default(),
                });
                out.len() - 1
            }
        };
        let t = &mut out[i];
        t.calls += 1;
        t.total_s += s.secs();
        t.self_s += s.secs() - child;
        t.delta.add(&s.delta);
    }
    out
}

/// One JSON object per span: id, name, parent, request, start and end in
/// host seconds since the tracer started, and every counter delta.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"parent\": {}, \"request\": {}, \
             \"start_s\": {}, \"end_s\": {}",
            s.name,
            opt(s.parent),
            opt(s.request),
            s.start.as_secs_f64(),
            s.end.as_secs_f64()
        );
        for (name, value) in s.delta.fields() {
            let _ = write!(out, ", \"{name}\": {value}");
        }
        out.push_str("}\n");
    }
    out
}

/// Total host seconds of spans named `name`.
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |acc, s| acc + s.secs())
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
