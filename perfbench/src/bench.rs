//! A whole benchmark run: repetitions within the time budget, the output
//! checks, and the metrics of the result line.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use datagrid_obs::prof::{ProfSnapshot, TIMING_ENABLED};
use datagrid_simnet::stats::percentile;

use crate::checks::{self, Failure};
use crate::probe::{self, Counter, Span, Tracer};
use crate::run::{self, Outcome, Timed};
use crate::workload::{fnv1a, sub_seed, Shape, Workload};

/// Set-ups measured before the first repetition and after each one.
const SETUP_BATCH: usize = 10;

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Its trace size (full, or reduced for tests).
    pub shape: Shape,
    /// Input seed.
    pub seed: u64,
    /// Host-time budget for the repetitions.
    pub seconds: f64,
    /// `Some` for a traced run: the untraced run's `replay_wall_s` and
    /// outcome digest at the same seed.
    pub traced: Option<(f64, u64)>,
    /// Where a traced run writes its spans, one JSON object per line.
    pub spans_out: Option<PathBuf>,
}

/// One named metric of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// As measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Every output check held.
    pub correct: bool,
    /// Fetches attempted across all repetitions.
    pub attempted: usize,
    /// Fetches a check found wrong (or every fetch, for a run-level
    /// failure).
    pub failed: usize,
    /// Metrics, empty unless `correct`.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Everything one repetition leaves behind (its grid is dropped, so a
/// run holds one grid at a time).
struct Rep {
    timed: Timed,
    sizes: HashMap<String, u64>,
    spans: Vec<Span>,
    prof: ProfSnapshot,
    digest: u64,
    scratch_high_water: usize,
    events_dropped: u64,
}

/// Runs `opts` and checks every output.
pub fn run(opts: &Options) -> Report {
    let mut notes = Vec::new();
    let mut attempted = 0;
    match run_checked(opts, &mut notes, &mut attempted) {
        Ok(metrics) => Report {
            correct: true,
            attempted,
            failed: 0,
            metrics,
            notes,
        },
        Err(f) => {
            notes.push(format!("check failed: {}", f.message));
            let attempted = attempted.max(1);
            Report {
                correct: false,
                attempted,
                failed: if f.jobs == 0 { attempted } else { f.jobs },
                metrics: Vec::new(),
                notes,
            }
        }
    }
}

/// Repeats the workload's traces in turn until the budget is spent, at
/// least once each, with a batch of set-ups before and after every
/// repetition. Simulated metrics come from the first repetition of every
/// trace, so they do not depend on how many repetitions fit.
fn run_checked(
    opts: &Options,
    notes: &mut Vec<String>,
    attempted: &mut usize,
) -> Result<Vec<Metric>, Failure> {
    let traced = opts.traced.is_some();
    if traced && !TIMING_ENABLED {
        return Err(Failure::run("a traced run needs the prof-timing build"));
    }
    if opts.shape.blackouts {
        checks::check_longhaul_inputs(opts.seed)?;
    }
    let mut setups = Vec::new();
    measure_setups(opts, &mut setups)?;
    let traces = opts.workload.traces();
    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    let start = Instant::now();
    let mut first: Vec<Rep> = Vec::with_capacity(traces);
    let mut walls = vec![Vec::new(); traces];
    for i in 0.. {
        let t0 = Instant::now();
        let k = i % traces;
        let rep = repetition(opts, sub_seed(opts.seed, k), traced)?;
        *attempted += rep.timed.records.len();
        if let Some(earlier) = first.get(k) {
            checks::check_digests("repeat at one seed", earlier.digest, rep.digest)?;
        }
        walls[k].push(rep.timed.wall_s);
        if first.len() == k {
            first.push(rep);
        }
        measure_setups(opts, &mut setups)?;
        if i + 1 >= traces && start.elapsed() + t0.elapsed() > budget {
            break;
        }
    }
    let digest = fnv1a(
        first
            .iter()
            .map(|r| format!("{:016x}", r.digest))
            .collect::<String>()
            .as_bytes(),
    );
    if let Some((_, untraced)) = opts.traced {
        checks::check_digests("traced vs untraced", untraced, digest)?;
    }
    // The median over a trace's repetitions rejects host noise; the mean
    // over traces averages the workload.
    let trace_walls: Vec<f64> = walls.iter().map(|w| median(w)).collect();
    let wall = trace_walls.iter().sum::<f64>() / traces as f64;
    let n: usize = first.iter().map(|r| r.timed.records.len()).sum();
    notes.push(format!(
        "{} seed={} traces={traces} fetches={n} reps={} setups={} outcome-digest={digest:016x}",
        opts.workload.name(),
        opts.seed,
        walls.iter().map(Vec::len).sum::<usize>(),
        setups.len(),
    ));
    notes.push(format!(
        "sim latency samples n={n}, {} beyond p99",
        n - (n as f64 * 0.99).ceil() as usize
    ));
    let metrics = match opts.traced {
        None => end_to_end(&first, wall, median(&setups))?,
        Some((untraced_wall, _)) => {
            let rep = &first[0];
            for t in probe::aggregate(&rep.spans) {
                let mut line = format!(
                    "span {} parent={} calls={} host_s={:.6} self_s={:.6}",
                    t.name,
                    t.parent.unwrap_or("-"),
                    t.calls,
                    t.total_s,
                    t.self_s
                );
                for (name, value) in t.delta.fields().filter(|f| f.1 > 0) {
                    line.push_str(&format!(" {name}={value}"));
                }
                notes.push(line);
            }
            if let Some(path) = &opts.spans_out {
                std::fs::write(path, probe::spans_jsonl(&rep.spans))
                    .map_err(|e| Failure::run(format!("write {}: {e}", path.display())))?;
                notes.push(format!(
                    "{} spans written to {}",
                    rep.spans.len(),
                    path.display()
                ));
            }
            per_layer(rep, wall, untraced_wall)
        }
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(Failure::run(format!("{} is not finite", m.name)));
    }
    Ok(metrics)
}

/// Times [`SETUP_BATCH`] set-ups alone. Batches are spread over the run
/// because a shared host's speed drifts over seconds: on a 2-vCPU Xeon VM
/// one batch of 40 long-haul set-ups read anywhere from 4.2 to 5.8 ms per
/// set-up from run to run. Each set-up is dropped only after the next one
/// is built, so its memory is reused rather than returned to the kernel
/// and faulted in again.
fn measure_setups(opts: &Options, setups: &mut Vec<f64>) -> Result<(), Failure> {
    let mut previous = None;
    for _ in 0..SETUP_BATCH {
        let prep =
            run::prepare(&opts.shape, opts.seed, &mut Tracer::new(false)).map_err(Failure::run)?;
        setups.push(prep.setup_s);
        previous = Some(prep);
    }
    drop(previous);
    Ok(())
}

/// One set-up and timed phase at `seed`, with the per-repetition checks.
fn repetition(opts: &Options, seed: u64, traced: bool) -> Result<Rep, Failure> {
    let mut tracer = Tracer::new(traced);
    let mut prep = run::prepare(&opts.shape, seed, &mut tracer).map_err(Failure::run)?;
    let timed = run::drive(&mut prep, opts.workload.driver(), &mut tracer).map_err(Failure::run)?;
    checks::check_jobs(prep.jobs.len(), &timed.records, &prep.sizes)?;
    checks::check_reference(
        opts.workload,
        &opts.shape,
        seed,
        timed.makespan_s,
        &timed.records,
    )?;
    let scratch_high_water = prep.grid.network().scratch_footprint();
    tracer.call("simnet.verify_allocation", &mut prep.grid, |g| {
        checks::check_allocation(g.network())
    })?;
    let snapshot = tracer.call("obs.metrics_snapshot", &mut prep.grid, |g| {
        g.metrics_snapshot()
    });
    Ok(Rep {
        digest: checks::outcome_digest(&timed.records),
        spans: tracer.take(),
        prof: prep.grid.profiler().snapshot(),
        scratch_high_water,
        events_dropped: snapshot.counter("obs.events_dropped"),
        sizes: prep.sizes,
        timed,
    })
}

fn end_to_end(first: &[Rep], wall: f64, setup: f64) -> Result<Vec<Metric>, Failure> {
    let records = || first.iter().flat_map(|r| &r.timed.records);
    let latencies: Vec<f64> = records().map(|r| r.latency_s).collect();
    let completed = records()
        .filter(|r| matches!(r.outcome, Outcome::Completed { .. }))
        .count() as f64;
    let makespans: Vec<f64> = first.iter().map(|r| r.timed.makespan_s).collect();
    Ok(vec![
        metric("replay_wall_s", wall, "s"),
        metric(
            "fetches_per_wall_s",
            completed / first.len() as f64 / wall,
            "1/s",
        ),
        metric("setup_s", setup, "s"),
        metric(
            "peak_rss_mb",
            probe::peak_rss_mb().map_err(Failure::run)?,
            "MB",
        ),
        metric("sim_makespan_s", median(&makespans), "s"),
        metric("sim_fetch_p50_s", percentile(&latencies, 0.50), "s"),
        metric("sim_fetch_p99_s", percentile(&latencies, 0.99), "s"),
        metric(
            "completed_fraction",
            completed / latencies.len().max(1) as f64,
            "ratio",
        ),
    ])
}

fn per_layer(rep: &Rep, traced_wall: f64, untraced_wall: f64) -> Vec<Metric> {
    let d = &rep.timed.delta;
    let count = |c: Counter| d[c] as f64;
    let records = &rep.timed.records;
    let fetches = records.len().max(1) as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let (useful, moved) = records
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Completed { .. }))
        .fold((0u64, 0u64), |(u, m), r| {
            (u + rep.sizes[&r.lfn], m + r.payload_moved)
        });
    let lags: Vec<f64> = records.iter().map(|r| r.lag_s).collect();
    let calls_us: Vec<f64> = rep
        .spans
        .iter()
        .filter(|s| s.name == "core.fetch_with_recovery")
        .map(|s| s.secs() * 1e6)
        .collect();
    let quarter = calls_us.len() / 4;
    let drift = if quarter == 0 {
        0.0
    } else {
        median(&calls_us[calls_us.len() - quarter..]) / median(&calls_us[..quarter])
    };
    let prof = &rep.prof;
    let phase_s = |name: &str| {
        prof.phases
            .iter()
            .filter(|p| p.depth == 0 && p.name == name)
            .fold(0.0, |acc, p| acc + p.total_ns as f64 / 1e9)
    };
    let attributed = prof
        .phases
        .iter()
        .filter(|p| p.depth == 0)
        .fold(0.0, |acc, p| acc + p.total_ns as f64 / 1e9);
    let spans = &rep.spans;
    let secs = |name: &str| probe::total_secs(spans, name);
    let wall = rep.timed.wall_s;
    vec![
        metric("simnet.events_processed", count(Counter::Events), "count"),
        metric(
            "simnet.events_per_fetch",
            count(Counter::Events) / fetches,
            "events/fetch",
        ),
        metric("simnet.timers_fired", count(Counter::Timers), "count"),
        metric("simnet.solves", count(Counter::Solves), "count"),
        metric(
            "simnet.flows_touched",
            count(Counter::FlowsTouched),
            "count",
        ),
        metric(
            "simnet.flows_per_solve",
            ratio(d[Counter::FlowsTouched], d[Counter::Solves]),
            "flows/solve",
        ),
        metric(
            "simnet.solves_avoided",
            count(Counter::SolvesAvoided),
            "count",
        ),
        metric(
            "simnet.scratch_high_water",
            rep.scratch_high_water as f64,
            "count",
        ),
        metric("core.decisions", count(Counter::Decisions), "count"),
        metric(
            "core.solves_per_decision",
            ratio(d[Counter::Solves], d[Counter::Decisions]),
            "solves/decision",
        ),
        metric("core.monitor_ticks", count(Counter::MonitorTicks), "count"),
        metric("core.failovers", count(Counter::Failovers), "count"),
        metric(
            "core.score_scratch_hit_ratio",
            ratio(
                d[Counter::ScratchHits],
                d[Counter::ScratchHits] + d[Counter::ScratchMisses],
            ),
            "ratio",
        ),
        metric(
            "core.score_scratch_lookups",
            (d[Counter::ScratchHits] + d[Counter::ScratchMisses]) as f64,
            "count",
        ),
        metric("core.fetch_call_p50_us", percentile(&calls_us, 0.50), "us"),
        metric("core.fetch_call_p99_us", percentile(&calls_us, 0.99), "us"),
        metric("core.fetch_call_drift", drift, "ratio"),
        metric("core.advance_s", secs("simnet.advance_to"), "s"),
        metric("sim_arrival_lag_p99_s", percentile(&lags, 0.99), "s"),
        metric(
            "core.replay_attributed_fraction",
            attributed / wall,
            "ratio",
        ),
        metric("core.replay_unattributed_s", wall - attributed, "s"),
        metric("prof.decide_s", phase_s("decide"), "s"),
        metric("prof.dispatch_s", phase_s("dispatch"), "s"),
        metric("prof.settle_s", phase_s("settle"), "s"),
        metric("gridftp.retries", count(Counter::Retries), "count"),
        metric("gridftp.stalls", count(Counter::Stalls), "count"),
        metric("gridftp.abandoned", count(Counter::Abandoned), "count"),
        metric("gridftp.useful_byte_ratio", ratio(useful, moved), "ratio"),
        metric(
            "sysmon.probes_started",
            count(Counter::ProbesStarted),
            "count",
        ),
        metric("sysmon.warm_up_s", secs("sysmon.warm_up"), "s"),
        metric("catalog.lookups", count(Counter::CatalogLookups), "count"),
        metric("catalog.install_s", secs("catalog.install"), "s"),
        metric("testbed.build_s", secs("testbed.build"), "s"),
        metric(
            "testbed.workload_s",
            secs("testbed.workload") + secs("testbed.jobs"),
            "s",
        ),
        metric(
            "simnet.verify_allocation_s",
            secs("simnet.verify_allocation"),
            "s",
        ),
        metric("obs.metrics_snapshot_s", secs("obs.metrics_snapshot"), "s"),
        metric("obs.events_dropped", rep.events_dropped as f64, "count"),
        metric("obs.telemetry_overhead_s", traced_wall - untraced_wall, "s"),
    ]
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median of `xs` (mean of the middle pair for even lengths; 0 when
/// empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
