//! The profile figure: hot-path phase breakdown of the grid workload.
//!
//! Runs the same multi-client replay as [`crate::gridscale`], but with the
//! grid's continuous telemetry switched on: a sim-time health timeline
//! ([`datagrid_obs::timeline`]) attached after warm-up, and the replay
//! driver's phase profiler ([`datagrid_obs::prof`]) read back after the
//! run. Each cell reports the per-phase call/item counts (settle, solve,
//! decide, dispatch, retry, failover) next to throughput rates —
//! decisions/sec and settles/sec over the cell's makespan — which is the
//! baseline any future hot-path work gets measured against.
//!
//! Everything in `BENCH_profile.json` is a pure function of the seed in
//! default builds. With the `prof-timing` feature (forwarded through
//! `datagrid-bench`), per-phase wall-clock milliseconds are added — those
//! fields, and only those, vary run to run.

#![expect(
    clippy::expect_used,
    reason = "generated workloads replay cleanly by construction; the harness attaches the timeline it later reads"
)]

use std::fmt::Write as _;

use datagrid_core::prelude::{FetchOptions, RecoveryOptions};
use datagrid_obs::prof::TIMING_ENABLED;
use datagrid_simnet::engine::EngineStats;
use datagrid_simnet::time::SimDuration;

use crate::experiment::{obs_dump, ObsDump};
use crate::gridscale::{build_cell, GridScaleConfig};
use crate::par::par_map;

/// Configuration of one profile sweep: the underlying grid workload plus
/// the timeline window width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileConfig {
    /// The grid workload each cell replays (its `timeline` field is
    /// overridden by [`ProfileConfig::window`]).
    pub grid: GridScaleConfig,
    /// Sim-time width of each health-timeline window.
    pub window: SimDuration,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            grid: GridScaleConfig::default(),
            window: SimDuration::from_secs(30),
        }
    }
}

/// One phase of a cell's profile (depth-first order, as flattened by
/// [`datagrid_obs::ProfSnapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilePhase {
    /// Slash-joined path from the root (`settle/solve`).
    pub path: String,
    /// Nesting depth (roots are 0).
    pub depth: usize,
    /// Times the phase ran.
    pub calls: u64,
    /// Work units credited to the phase (candidates scored, bytes
    /// dispatched, solver flows touched — see the phase taxonomy in
    /// `DESIGN.md`).
    pub items: u64,
    /// Wall-clock nanoseconds (zero unless built with `prof-timing`).
    pub total_ns: u64,
    /// `total_ns` minus time spent in child phases.
    pub self_ns: u64,
}

/// The plain engine counters `BENCH_profile.json` reports per cell, in
/// their frozen key order (after the `solves` and `events_processed`
/// headlines, which carry per-decision ratios).
pub const PROFILE_ENGINE_KEYS: [&str; 3] = ["event_cohorts", "batched_solves", "solves_avoided"];

/// The deterministic numbers of one profile cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileCell {
    /// Concurrent clients replayed in this cell.
    pub clients: usize,
    /// Selection mode label (`"static"` / `"contention-aware"`).
    pub mode: &'static str,
    /// Fetches that delivered their full file.
    pub completed: usize,
    /// Fetches that exhausted every candidate.
    pub failed: usize,
    /// Simulated seconds from replay start to the last terminal state.
    pub makespan_s: f64,
    /// Selection decisions made (initial picks plus failover re-picks).
    pub decisions: u64,
    /// Decisions per simulated second of makespan.
    pub decisions_per_sec: f64,
    /// Events settled by the replay driver (the `settle` phase's calls).
    pub settles: u64,
    /// Settles per simulated second of makespan.
    pub settles_per_sec: f64,
    /// The engine's work during the replay (counters diffed across it, so
    /// warm-up churn is excluded).
    pub engine: EngineStats,
    /// Solver passes per selection decision — the hot-path headline: how
    /// much solver work one client arrival costs. Cohort batching and the
    /// score scratch both push this down.
    pub solves_per_decision: f64,
    /// Engine events per selection decision — the queue-side headline: a
    /// superseded completion entry popped as an event would inflate it.
    pub events_per_decision: f64,
    /// Candidate rankings served from the reusable score scratch.
    pub scratch_hits: u64,
    /// Candidate rankings that had to be recomputed.
    pub scratch_misses: u64,
    /// Health-timeline windows the replay spanned.
    pub windows: usize,
    /// Per-phase breakdown, depth-first.
    pub phases: Vec<ProfilePhase>,
}

/// One executed profile cell: the numbers plus every rendered telemetry
/// surface of the cell's grid.
#[derive(Debug, Clone)]
pub struct ProfileRun {
    /// The cell numbers.
    pub cell: ProfileCell,
    /// The cell's health timeline as deterministic JSON.
    pub timeline_json: String,
    /// The rendered grid health report (per-window table + hottest links).
    pub health_report: String,
    /// The phase profile as a text table.
    pub prof_text: String,
    /// The cell grid's observability export.
    pub obs: ObsDump,
}

/// A whole profile sweep, ready to render as `BENCH_profile.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// The sweep's base seed.
    pub seed: u64,
    /// Timeline window width in seconds.
    pub window_secs: f64,
    /// Heap allocations observed while draining a warmed engine event
    /// loop, when the emitting binary probed it (`None` = not probed).
    /// The perf-budget gate pins this to zero: steady-state event
    /// dispatch must never touch the heap.
    pub steady_dispatch_allocs: Option<u64>,
    /// One entry per sweep cell, in input order.
    pub cells: Vec<ProfileCell>,
}

impl ProfileReport {
    /// Collects the cells of executed runs (in order).
    pub fn from_runs(seed: u64, cfg: &ProfileConfig, runs: &[ProfileRun]) -> Self {
        ProfileReport {
            seed,
            window_secs: cfg.window.as_secs_f64(),
            steady_dispatch_allocs: None,
            cells: runs.iter().map(|r| r.cell.clone()).collect(),
        }
    }

    /// Renders the `BENCH_profile.json` body. In default builds every
    /// field is deterministic (same seed ⇒ byte-identical output); with
    /// `prof-timing` the per-phase `total_ms`/`self_ms` fields are added
    /// and the top-level `"timing"` flag flips to `true`.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"name\": \"profile\",\n");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"window_secs\": {:.6},", self.window_secs);
        let _ = writeln!(out, "  \"timing\": {},", TIMING_ENABLED);
        if let Some(allocs) = self.steady_dispatch_allocs {
            let _ = writeln!(out, "  \"steady_dispatch_allocs\": {allocs},");
        }
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"clients\": {},", c.clients);
            let _ = writeln!(out, "      \"mode\": \"{}\",", c.mode);
            let _ = writeln!(out, "      \"completed\": {},", c.completed);
            let _ = writeln!(out, "      \"failed\": {},", c.failed);
            let _ = writeln!(out, "      \"makespan_s\": {:.6},", c.makespan_s);
            let _ = writeln!(out, "      \"decisions\": {},", c.decisions);
            let _ = writeln!(
                out,
                "      \"decisions_per_sec\": {:.6},",
                c.decisions_per_sec
            );
            let _ = writeln!(out, "      \"settles\": {},", c.settles);
            let _ = writeln!(out, "      \"settles_per_sec\": {:.6},", c.settles_per_sec);
            let _ = writeln!(out, "      \"solves\": {},", c.engine.solves());
            let _ = writeln!(
                out,
                "      \"solves_per_decision\": {:.6},",
                c.solves_per_decision
            );
            let _ = writeln!(
                out,
                "      \"events_processed\": {},",
                c.engine.events_processed
            );
            let _ = writeln!(
                out,
                "      \"events_per_decision\": {:.6},",
                c.events_per_decision
            );
            for key in PROFILE_ENGINE_KEYS {
                let value = c.engine.get(key).unwrap_or_default();
                let _ = writeln!(out, "      \"{key}\": {value},");
            }
            let _ = writeln!(out, "      \"scratch_hits\": {},", c.scratch_hits);
            let _ = writeln!(out, "      \"scratch_misses\": {},", c.scratch_misses);
            let _ = writeln!(out, "      \"windows\": {},", c.windows);
            out.push_str("      \"phases\": [\n");
            for (j, p) in c.phases.iter().enumerate() {
                let _ = write!(
                    out,
                    "        {{\"path\": \"{}\", \"depth\": {}, \"calls\": {}, \"items\": {}",
                    p.path, p.depth, p.calls, p.items
                );
                if TIMING_ENABLED {
                    let _ = write!(
                        out,
                        ", \"total_ms\": {:.3}, \"self_ms\": {:.3}",
                        p.total_ns as f64 / 1e6,
                        p.self_ns as f64 / 1e6
                    );
                }
                out.push_str(if j + 1 == c.phases.len() {
                    "}\n"
                } else {
                    "},\n"
                });
            }
            out.push_str("      ]\n");
            out.push_str(if i + 1 == self.cells.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Runs one profile cell: build, warm up, attach the timeline, replay,
/// read back the profiler and every telemetry surface.
pub fn run_profile_cell(seed: u64, clients: usize, cfg: &ProfileConfig) -> ProfileRun {
    let mut gcfg = cfg.grid;
    gcfg.timeline = Some(cfg.window);
    let (mut grid, workload) = build_cell(seed, clients, &gcfg);
    let jobs = workload.jobs(&grid);
    let options = FetchOptions::default().with_parallelism(gcfg.parallelism);
    let recovery = RecoveryOptions::default();
    // Engine counters are lifetime totals; diff across the replay so the
    // cell reports replay work only, not warm-up churn.
    let pre = grid.network().stats();
    let report = grid
        .replay_concurrent(&jobs, options, &recovery)
        .expect("generated workloads only fail per-job");

    let makespan_s = report.makespan().as_secs_f64();
    let decisions = grid.metrics_snapshot().counter("selection.decisions");
    let engine = grid.network().stats().since(&pre);
    let (scratch_hits, scratch_misses) = grid.score_scratch_stats();
    let snapshot = grid.profiler().snapshot();
    let settles = snapshot
        .phases
        .iter()
        .find(|p| p.path == "settle")
        .map_or(0, |p| p.calls);
    let phases = snapshot
        .phases
        .iter()
        .map(|p| ProfilePhase {
            path: p.path.clone(),
            depth: p.depth,
            calls: p.calls,
            items: p.items,
            total_ns: p.total_ns,
            self_ns: p.self_ns,
        })
        .collect();
    let timeline = grid.timeline().expect("build_cell attached the timeline");
    let per_sec = |n: u64| {
        if makespan_s > 0.0 {
            n as f64 / makespan_s
        } else {
            0.0
        }
    };
    let per_decision = |n: u64| {
        if decisions > 0 {
            n as f64 / decisions as f64
        } else {
            0.0
        }
    };
    let cell = ProfileCell {
        clients,
        mode: gcfg.mode.label(),
        completed: report.completed(),
        failed: report.failed(),
        makespan_s,
        decisions,
        decisions_per_sec: per_sec(decisions),
        settles,
        settles_per_sec: per_sec(settles),
        engine,
        solves_per_decision: per_decision(engine.solves()),
        events_per_decision: per_decision(engine.events_processed),
        scratch_hits,
        scratch_misses,
        windows: timeline.window_count(),
        phases,
    };
    ProfileRun {
        cell,
        timeline_json: timeline.render_json(),
        health_report: timeline.render_health_report(),
        prof_text: snapshot.render_text(),
        obs: obs_dump(&grid),
    }
}

/// Runs the whole profile sweep — one cell per client count — on worker
/// threads ([`par_map`]). Cells are seeded independently, so the result
/// is byte-identical to a serial sweep.
pub fn run_profile(seed: u64, client_counts: &[usize], cfg: &ProfileConfig) -> Vec<ProfileRun> {
    par_map(client_counts.to_vec(), |clients| {
        run_profile_cell(seed, clients, cfg)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_keys_are_engine_counters() {
        for key in PROFILE_ENGINE_KEYS {
            assert!(EngineStats::NAMES.contains(&key), "{key}");
        }
    }

    fn small_cfg() -> ProfileConfig {
        ProfileConfig {
            grid: GridScaleConfig {
                files: 8,
                warm: SimDuration::from_secs(30),
                ..GridScaleConfig::default()
            },
            window: SimDuration::from_secs(10),
        }
    }

    #[test]
    fn profile_cell_reports_phases_and_timeline() {
        let run = run_profile_cell(7, 4, &small_cfg());
        assert_eq!(run.cell.completed + run.cell.failed, 4);
        assert!(run.cell.settles > 0, "replay settled no events");
        assert!(run.cell.decisions >= 4, "every job decides at least once");
        assert!(run.cell.windows > 0, "timeline recorded no windows");
        let paths: Vec<&str> = run.cell.phases.iter().map(|p| p.path.as_str()).collect();
        for phase in ["settle", "settle/solve", "decide", "dispatch"] {
            assert!(paths.contains(&phase), "missing phase {phase} in {paths:?}");
        }
        assert!(run.timeline_json.contains("\"windows\""));
        assert!(run.health_report.contains("hottest link"));
        assert!(run.prof_text.contains("decide"));
        assert!(run.obs.events_jsonl.contains("replay.end"));
    }

    #[test]
    fn profile_report_is_seed_deterministic() {
        let cfg = small_cfg();
        let a = run_profile(11, &[3], &cfg);
        let b = run_profile(11, &[3], &cfg);
        let ja = ProfileReport::from_runs(11, &cfg, &a).render_json();
        let jb = ProfileReport::from_runs(11, &cfg, &b).render_json();
        if !TIMING_ENABLED {
            assert_eq!(ja, jb);
            assert_eq!(a[0].timeline_json, b[0].timeline_json);
            assert_eq!(a[0].health_report, b[0].health_report);
        }
        // Counts are deterministic even with timing enabled.
        assert_eq!(a[0].cell.decisions, b[0].cell.decisions);
        assert_eq!(a[0].cell.settles, b[0].cell.settles);
        let c = run_profile(12, &[3], &cfg);
        assert_ne!(a[0].timeline_json, c[0].timeline_json);
    }

    #[test]
    fn report_json_shape_and_timing_flag() {
        let cfg = small_cfg();
        let runs = run_profile(5, &[2], &cfg);
        let json = ProfileReport::from_runs(5, &cfg, &runs).render_json();
        assert!(json.contains("\"name\": \"profile\""));
        assert!(json.contains("\"decisions_per_sec\""));
        assert!(json.contains("\"settles_per_sec\""));
        assert!(json.contains("\"path\": \"settle/solve\""));
        let flag = format!("\"timing\": {}", TIMING_ENABLED);
        assert!(json.contains(&flag), "{json}");
        assert!(json.ends_with("}\n"));
    }
}
