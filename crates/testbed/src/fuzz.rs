//! Deterministic differential fuzzing of the solver and replay engines.
//!
//! Every scale feature since PR 3 (incremental component solves, event
//! cohort batching, per-solve validation, contention-aware selection)
//! promises some flavour of observable equivalence with a simpler
//! baseline. This module turns those promises into a seeded fuzz harness:
//! a single packed code ([`FuzzSpec::code`]) generates a random topology,
//! fault schedule and multi-client replay workload; the scenario runs
//! through paired configurations ([`PAIRS`]); and each pair's oracle
//! diffs the observable surfaces (event log, metrics, audit, BENCH-style
//! report body, completion set). On divergence the scenario shrinks
//! (fewer clients/files/requests, faults dropped) to a minimal reproducer
//! whose code replays the run byte-identically — `fuzz --replay <code>`.
//!
//! The oracles, strongest first:
//!
//! * **batching** (cohort batching on vs off) — byte-identical on every
//!   public surface; only the solver work counters (`simnet.*solves*`,
//!   cohort counts) may differ, exactly the PR 7 equivalence claim.
//! * **validation** (per-solve certification on vs off) — byte-identical
//!   everywhere except the two audit counters the validator itself
//!   maintains (`simnet.transitions_certified` / `transition_flows_checked`).
//! * **solver** (incremental vs full re-solves) — rates agree only to
//!   ulp-scale rounding, so timing digits may drift; the completion sets
//!   (who fetched what, successfully, with how many bytes) must agree.
//! * **selection** (static vs contention-aware scoring) — different
//!   policies pick different replicas, but on fault-free scenarios every
//!   fetch must still complete with the same payload: completion sets
//!   again. Skipped when the scenario schedules faults (failure timing
//!   is policy-dependent by design).

#![expect(
    clippy::expect_used,
    reason = "generated worlds install and replay cleanly by construction (hosts, files and placements come from the same seed)"
)]

use std::fmt;
use std::fmt::Write as _;

use datagrid_core::grid::GridBuilder;
use datagrid_core::prelude::{DataGrid, FetchOptions, RecoveryOptions, SelectionMode};
use datagrid_simnet::engine::SolverMode;
use datagrid_simnet::fault::{FaultKind, FaultPlan, ScheduledFault};
use datagrid_simnet::rng::SimRng;
use datagrid_simnet::time::{SimDuration, SimTime};
use datagrid_simnet::topology::{Bandwidth, LinkId, LinkSpec, NodeId};
use datagrid_sysmon::host::HostSpec;
use datagrid_sysmon::load::LoadModel;

use crate::experiment::obs_dump;
use crate::workload::{grid_workload, GridWorkload, GridWorkloadSpec};

/// Sensor warm-up before the replay starts, in seconds (three monitor
/// ticks at the default 10 s cadence).
const WARM_S: f64 = 30.0;

/// Version tag packed into the top byte of a scenario code so stale or
/// corrupted codes are rejected instead of silently decoding garbage.
const CODE_TAG: u64 = 0xFD;

/// Upper bounds for the packed dimensions (6 bits each).
const DIM_MAX: u64 = 63;

/// One fuzz scenario, fully determined by its packed code: the RNG seed
/// drives the topology, workload and fault draws; the dimension fields
/// bound the workload so the shrinker can move through scenario space
/// without touching the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzSpec {
    /// Seed for every random draw (topology shape, capacities, workload,
    /// fault schedule). Only the low 32 bits are representable in the
    /// packed code.
    pub seed: u64,
    /// Concurrent logical clients (1..=63).
    pub clients: usize,
    /// Logical files in the generated catalog (1..=63).
    pub files: usize,
    /// Fetches issued by each client (1..=63).
    pub requests_per_client: usize,
    /// Whether a random fault schedule is installed after warm-up.
    pub faults: bool,
}

impl FuzzSpec {
    /// Draws the `index`-th corpus scenario from `corpus_seed`: dimensions
    /// small enough that a few hundred scenarios (times the paired runs)
    /// finish inside a CI smoke budget, but varied enough to cross the
    /// component-coupling, failover and cache-invalidation paths.
    pub fn from_corpus(corpus_seed: u64, index: u64) -> FuzzSpec {
        let mut rng = SimRng::seed_from_u64(corpus_seed ^ 0xF0_22).fork(&format!("case:{index}"));
        FuzzSpec {
            seed: rng.below(1 << 32),
            clients: 2 + rng.index(5),
            files: 2 + rng.index(4),
            requests_per_client: 1 + rng.index(3),
            faults: rng.below(2) == 0,
        }
    }

    /// Packs the scenario into one `u64` so a reproducer is a single
    /// printable token: `fuzz --replay 0x....`
    pub fn code(&self) -> u64 {
        (self.seed & 0xFFFF_FFFF)
            | ((self.clients as u64).min(DIM_MAX) << 32)
            | ((self.files as u64).min(DIM_MAX) << 38)
            | ((self.requests_per_client as u64).min(DIM_MAX) << 44)
            | (u64::from(self.faults) << 50)
            | (CODE_TAG << 56)
    }

    /// Decodes a packed scenario code; `None` when the tag byte does not
    /// match (a mistyped or stale token).
    pub fn from_code(code: u64) -> Option<FuzzSpec> {
        if code >> 56 != CODE_TAG {
            return None;
        }
        let spec = FuzzSpec {
            seed: code & 0xFFFF_FFFF,
            clients: ((code >> 32) & DIM_MAX) as usize,
            files: ((code >> 38) & DIM_MAX) as usize,
            requests_per_client: ((code >> 44) & DIM_MAX) as usize,
            faults: (code >> 50) & 1 == 1,
        };
        if spec.clients == 0 || spec.files == 0 || spec.requests_per_client == 0 {
            return None;
        }
        Some(spec)
    }

    /// Deterministic one-line description of the scenario's generated
    /// world (topology dims, capacities, workload, fault count) — the
    /// fuzz log's per-scenario header, and the determinism tests' witness
    /// that equal seeds regenerate equal worlds.
    pub fn describe(&self) -> String {
        let world = World::generate(self);
        let mut out = format!(
            "scenario {self}: {} sites / {} hosts, {} links",
            world.sites,
            world.hosts.len(),
            world.link_count,
        );
        let _ = write!(
            out,
            ", {} requests over {} files, {} faults",
            world.workload.trace.len(),
            world.workload.files.len(),
            world.plan.len(),
        );
        if let Some(req) = world.workload.trace.requests().first() {
            let _ = write!(
                out,
                ", first fetch {}@{} t={}ns",
                req.lfn,
                req.client,
                req.at.as_nanos()
            );
        }
        out
    }
}

impl fmt::Display for FuzzSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "0x{:016x} (clients={} files={} requests={} faults={})",
            self.code(),
            self.clients,
            self.files,
            self.requests_per_client,
            self.faults
        )
    }
}

/// The generated world for one spec: a built grid plus everything needed
/// to replay it under any paired configuration.
struct World {
    grid: DataGrid,
    workload: GridWorkload,
    plan: FaultPlan,
    sites: usize,
    hosts: Vec<String>,
    link_count: usize,
}

impl World {
    /// Builds the random star-of-clusters grid, workload and fault plan
    /// for `spec`. Every draw forks from the spec seed, so the same spec
    /// regenerates the same world byte for byte, and paired runs share
    /// one world by construction.
    #[expect(clippy::cast_possible_truncation, reason = "below(2) draws 0 or 1")]
    fn generate(spec: &FuzzSpec) -> World {
        let mut rng = SimRng::seed_from_u64(spec.seed ^ 0xF0_33);
        let sites = 2 + rng.index(2);
        let mut builder = GridBuilder::new(spec.seed);
        let backbone = builder.add_switch("backbone");
        let mut host_nodes: Vec<NodeId> = Vec::new();
        let mut hosts: Vec<String> = Vec::new();
        let mut spoke_links: Vec<LinkId> = Vec::new();
        let mut link_count = 0;
        for s in 0..sites {
            let hub = builder.add_switch(format!("hub{s}"));
            let (up, _) = builder.topology_mut().add_duplex_link(
                hub,
                backbone,
                LinkSpec::new(
                    Bandwidth::from_mbps(rng.uniform(50.0, 400.0)),
                    SimDuration::from_millis(2 + rng.below(14)),
                ),
            );
            spoke_links.push(up);
            link_count += 2;
            let site_hosts = 1 + rng.index(3);
            for h in 0..site_hosts {
                let name = format!("s{s}h{h}");
                let node = builder.add_host(
                    HostSpec::new(&name)
                        .with_cpu(1 + rng.below(2) as u32, rng.uniform(0.9, 2.8))
                        .with_memory_mb(256 << rng.below(3)),
                    LoadModel::Constant(rng.uniform(0.05, 0.5)),
                    LoadModel::Constant(rng.uniform(0.05, 0.4)),
                );
                let (link, _) = builder.topology_mut().add_duplex_link(
                    node,
                    hub,
                    LinkSpec::new(
                        Bandwidth::from_mbps(rng.uniform(20.0, 200.0)),
                        SimDuration::from_millis(1 + rng.below(5)),
                    ),
                );
                spoke_links.push(link);
                link_count += 2;
                host_nodes.push(node);
                hosts.push(name);
            }
        }
        builder.monitor_all_host_pairs();
        let grid = builder.build();

        let host_refs: Vec<&str> = hosts.iter().map(String::as_str).collect();
        let mut wl_rng = rng.fork("workload");
        let wl_spec = GridWorkloadSpec {
            clients: spec.clients,
            files: spec.files,
            replicas_per_file: 1 + wl_rng.index(2),
            median_bytes: 2 << (20 + wl_rng.below(3)),
            requests_per_client: spec.requests_per_client,
            mean_inter_arrival: SimDuration::from_secs_f64(wl_rng.uniform(0.3, 2.0)),
        };
        let workload = grid_workload(&wl_spec, &host_refs, spec.seed ^ 0xF0_44);

        let mut plan = FaultPlan::new();
        if spec.faults {
            let mut f_rng = rng.fork("faults");
            let n = 1 + f_rng.below(2);
            for _ in 0..n {
                let at = SimTime::from_secs_f64(WARM_S + f_rng.uniform(0.1, 3.0));
                let duration = SimDuration::from_secs_f64(f_rng.uniform(0.2, 2.0));
                let kind = match f_rng.below(4) {
                    0 => FaultKind::LinkDown {
                        link: spoke_links[f_rng.index(spoke_links.len())],
                    },
                    1 => FaultKind::LinkBrownout {
                        link: spoke_links[f_rng.index(spoke_links.len())],
                        factor: f_rng.uniform(0.1, 0.6),
                    },
                    2 => FaultKind::HostDegraded {
                        node: host_nodes[f_rng.index(host_nodes.len())],
                        factor: f_rng.uniform(0.2, 0.8),
                    },
                    // Never black out host 0: it carries the replica
                    // catalog and selection servers, whose loss is an
                    // availability scenario, not an equivalence one.
                    _ => FaultKind::HostBlackout {
                        node: host_nodes[1 + f_rng.index(host_nodes.len() - 1)],
                    },
                };
                plan.push(ScheduledFault { at, duration, kind });
            }
        }

        World {
            grid,
            workload,
            plan,
            sites,
            hosts,
            link_count,
        }
    }
}

/// One side of a paired run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Re-solve scoping.
    pub solver: SolverMode,
    /// Same-instant cohort batching.
    pub batching: bool,
    /// Per-solve certification (state + transition certificates).
    pub validate: bool,
    /// Selection policy.
    pub mode: SelectionMode,
}

/// The baseline every variant is diffed against: the engine's production
/// defaults with validation off and the paper's static selection.
pub const BASELINE: RunConfig = RunConfig {
    solver: SolverMode::Incremental,
    batching: true,
    validate: false,
    mode: SelectionMode::Static,
};

/// What a pair's oracle compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// Every surface must match byte for byte, after dropping
    /// `metrics.txt` lines containing one of the listed counter names
    /// (the variant is *allowed* to differ only there). The single-line
    /// `metrics.json` render is compared only when the filter is empty.
    ByteIdentical(&'static [&'static str]),
    /// Only the completion set must match (who fetched what, success flag
    /// and payload bytes).
    CompletionSets,
}

/// One paired configuration: the variant run and the equivalence oracle
/// tying it to [`BASELINE`].
#[derive(Debug, Clone, Copy)]
pub struct Pair {
    /// Stable pair name used in reports.
    pub name: &'static str,
    /// The variant configuration.
    pub variant: RunConfig,
    /// How the two runs must agree.
    pub oracle: Oracle,
    /// `false` when the pair is skipped on faulted scenarios.
    pub with_faults: bool,
}

/// Solver work counters cohort batching is allowed to move (the whole
/// point of batching is fewer solves; everything public must still
/// match). `events_processed` must match too: the queue holds one live
/// entry per flow, so both runs pop exactly the same events.
const BATCHING_COUNTERS: &[&str] = &[
    "simnet.incremental_solves",
    "simnet.full_solves",
    "simnet.solver_flows_touched",
    "simnet.event_cohorts",
    "simnet.batched_solves",
    "simnet.solves_avoided",
];

/// Audit counters only the validator maintains.
const VALIDATION_COUNTERS: &[&str] = &[
    "simnet.transitions_certified",
    "simnet.transition_flows_checked",
];

/// The four paired configurations every scenario runs through.
pub const PAIRS: [Pair; 4] = [
    Pair {
        name: "batching",
        variant: RunConfig {
            batching: false,
            ..BASELINE
        },
        oracle: Oracle::ByteIdentical(BATCHING_COUNTERS),
        with_faults: true,
    },
    Pair {
        name: "validation",
        variant: RunConfig {
            validate: true,
            ..BASELINE
        },
        oracle: Oracle::ByteIdentical(VALIDATION_COUNTERS),
        with_faults: true,
    },
    Pair {
        name: "solver",
        variant: RunConfig {
            solver: SolverMode::Full,
            ..BASELINE
        },
        oracle: Oracle::CompletionSets,
        with_faults: true,
    },
    Pair {
        name: "selection",
        variant: RunConfig {
            mode: SelectionMode::ContentionAware,
            ..BASELINE
        },
        oracle: Oracle::CompletionSets,
        with_faults: false,
    },
];

/// The observable surfaces of one run, all rendered to strings.
#[derive(Debug, Clone)]
pub struct Surfaces {
    /// Sorted per-job completion lines (client, lfn, arrival, success,
    /// bytes) — the weakest surface, shared by every oracle.
    pub completion_set: String,
    /// BENCH-style report body: public fetch/latency numbers only (no
    /// solver counters), so byte-identical pairs can diff it unfiltered.
    pub report: String,
    /// Metrics snapshot in the line-oriented text format.
    pub metrics_text: String,
    /// Metrics snapshot as one JSON line.
    pub metrics_json: String,
    /// Structured event log as JSON lines.
    pub events_jsonl: String,
    /// Selection audit, text render.
    pub audit_text: String,
    /// Selection audit, JSONL render.
    pub audit_jsonl: String,
}

/// Runs one configuration of `spec`'s world end to end and renders every
/// observable surface.
pub fn run_scenario(spec: &FuzzSpec, cfg: &RunConfig) -> Surfaces {
    let mut world = World::generate(spec);
    let grid = &mut world.grid;
    grid.set_selection_mode(cfg.mode);
    grid.set_solver_mode(cfg.solver);
    grid.set_event_batching(cfg.batching);
    grid.set_network_validation(cfg.validate);
    world
        .workload
        .install(grid)
        .expect("generated workload installs cleanly");
    grid.warm_up(SimDuration::from_secs_f64(WARM_S));
    if !world.plan.is_empty() {
        grid.install_fault_plan(world.plan.clone());
    }
    let jobs = world.workload.jobs(grid);
    let report = grid
        .replay_concurrent(&jobs, FetchOptions::default(), &RecoveryOptions::default())
        .expect("generated workloads only fail per-job");

    let mut completion: Vec<String> = report
        .outcomes
        .iter()
        .map(|o| {
            let ok = o.status.is_completed();
            let bytes = match &o.status {
                datagrid_core::prelude::ReplayStatus::Completed { bytes, .. } => *bytes,
                datagrid_core::prelude::ReplayStatus::Failed { .. } => 0,
            };
            format!(
                "at={} client={} lfn={} ok={} bytes={}",
                o.submitted.as_nanos(),
                o.client,
                o.lfn,
                ok,
                bytes
            )
        })
        .collect();
    completion.sort_unstable();
    let completion_set = completion.join("\n");

    let mut body = String::new();
    let _ = writeln!(body, "{{");
    let _ = writeln!(body, "  \"scenario\": \"0x{:016x}\",", spec.code());
    let _ = writeln!(body, "  \"fetches\": {},", report.outcomes.len());
    let _ = writeln!(body, "  \"completed\": {},", report.completed());
    let _ = writeln!(body, "  \"failed\": {},", report.failed());
    let _ = writeln!(body, "  \"makespan_ns\": {}", report.makespan().as_nanos());
    let _ = writeln!(body, "}}");

    let obs = obs_dump(grid);
    Surfaces {
        completion_set,
        report: body,
        metrics_text: obs.metrics_text,
        metrics_json: obs.metrics_json,
        events_jsonl: obs.events_jsonl,
        audit_text: obs.audit_text,
        audit_jsonl: obs.audit_jsonl,
    }
}

/// One observed disagreement between a pair's two runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Which pair disagreed.
    pub pair: &'static str,
    /// Which surface first differed.
    pub surface: &'static str,
    /// First differing line, rendered `line N: <baseline> != <variant>`.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pair={} surface={} {}",
            self.pair, self.surface, self.detail
        )
    }
}

/// First differing line between two renders, with enough context to read
/// the counterexample straight off the report.
fn first_diff(a: &str, b: &str) -> Option<String> {
    if a == b {
        return None;
    }
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return Some(format!("line {}: {la:?} != {lb:?}", i + 1));
        }
    }
    let (na, nb) = (a.lines().count(), b.lines().count());
    Some(format!("line counts differ: {na} != {nb}"))
}

/// Drops metrics lines carrying any of the allowed counter names.
fn filter_metrics(text: &str, allowed: &[&str]) -> String {
    text.lines()
        .filter(|line| !allowed.iter().any(|key| line.contains(key)))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Diffs a pair's two runs under its oracle. `None` means the runs agree.
fn diff_pair(pair: &Pair, base: &Surfaces, variant: &Surfaces) -> Option<Divergence> {
    let mk = |surface: &'static str, detail: String| {
        Some(Divergence {
            pair: pair.name,
            surface,
            detail,
        })
    };
    match pair.oracle {
        Oracle::CompletionSets => first_diff(&base.completion_set, &variant.completion_set)
            .and_then(|d| mk("completion_set", d)),
        Oracle::ByteIdentical(allowed) => {
            let checks: [(&'static str, &str, &str); 5] = [
                (
                    "completion_set",
                    &base.completion_set,
                    &variant.completion_set,
                ),
                ("report", &base.report, &variant.report),
                ("events_jsonl", &base.events_jsonl, &variant.events_jsonl),
                ("audit_text", &base.audit_text, &variant.audit_text),
                ("audit_jsonl", &base.audit_jsonl, &variant.audit_jsonl),
            ];
            for (surface, a, b) in checks {
                if let Some(d) = first_diff(a, b) {
                    return mk(surface, d);
                }
            }
            let (ma, mb) = (
                filter_metrics(&base.metrics_text, allowed),
                filter_metrics(&variant.metrics_text, allowed),
            );
            if let Some(d) = first_diff(&ma, &mb) {
                return mk("metrics_text", d);
            }
            if allowed.is_empty() {
                if let Some(d) = first_diff(&base.metrics_json, &variant.metrics_json) {
                    return mk("metrics_json", d);
                }
            }
            None
        }
    }
}

/// Runs every applicable pair of `spec` and returns the divergences (an
/// empty vector means all oracles agree).
///
/// `break_oracle` is the harness's own differential test: it corrupts the
/// baseline completion set on scenarios with three or more clients, so a
/// healthy harness MUST report a divergence there, shrink it to a
/// three-client reproducer, and replay it from the printed code. It
/// proves the tester can fail; it says nothing about the engines.
pub fn check_scenario(spec: &FuzzSpec, break_oracle: bool) -> Vec<Divergence> {
    let base = run_scenario(spec, &BASELINE);
    let mut divergences = Vec::new();
    for pair in &PAIRS {
        if spec.faults && !pair.with_faults {
            continue;
        }
        let variant = run_scenario(spec, &pair.variant);
        let mut base_view = base.clone();
        if break_oracle && spec.clients >= 3 {
            // Deterministic sabotage: flip the first completion line.
            base_view.completion_set = format!("SABOTAGED {}", base_view.completion_set);
        }
        if let Some(d) = diff_pair(pair, &base_view, &variant) {
            divergences.push(d);
        }
    }
    divergences
}

/// Shrinks a diverging scenario to a locally minimal reproducer: each
/// round tries (in order) dropping faults, halving then decrementing
/// clients, files and requests, keeping the first candidate that still
/// diverges. Deterministic, and bounded by the dimension sizes.
pub fn shrink(spec: &FuzzSpec, break_oracle: bool) -> (FuzzSpec, Vec<Divergence>) {
    let mut current = *spec;
    let mut divergences = check_scenario(&current, break_oracle);
    assert!(
        !divergences.is_empty(),
        "shrink called on a non-diverging scenario {current}"
    );
    loop {
        let mut candidates: Vec<FuzzSpec> = Vec::new();
        if current.faults {
            candidates.push(FuzzSpec {
                faults: false,
                ..current
            });
        }
        for dim in 0..3 {
            let value = match dim {
                0 => current.clients,
                1 => current.files,
                _ => current.requests_per_client,
            };
            for next in [value / 2, value - 1] {
                if next >= 1 && next < value {
                    let mut cand = current;
                    match dim {
                        0 => cand.clients = next,
                        1 => cand.files = next,
                        _ => cand.requests_per_client = next,
                    }
                    if !candidates.contains(&cand) {
                        candidates.push(cand);
                    }
                }
            }
        }
        let mut progressed = false;
        for cand in candidates {
            let divs = check_scenario(&cand, break_oracle);
            if !divs.is_empty() {
                current = cand;
                divergences = divs;
                progressed = true;
                break;
            }
        }
        if !progressed {
            return (current, divergences);
        }
    }
}

/// Renders a divergence report for one scenario: the generated world, the
/// disagreeing pairs, the shrunk reproducer and its replay token. The
/// render is deterministic — same scenario, same bytes.
pub fn render_divergence_report(
    spec: &FuzzSpec,
    divergences: &[Divergence],
    shrunk: &FuzzSpec,
    shrunk_divergences: &[Divergence],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "DIVERGENCE in {}", spec.describe());
    for d in divergences {
        let _ = writeln!(out, "  {d}");
    }
    let _ = writeln!(out, "shrunk to {}", shrunk.describe());
    for d in shrunk_divergences {
        let _ = writeln!(out, "  {d}");
    }
    let _ = writeln!(out, "replay: fuzz --replay 0x{:016x}", shrunk.code());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for index in 0..32 {
            let spec = FuzzSpec::from_corpus(9, index);
            assert_eq!(FuzzSpec::from_code(spec.code()), Some(spec));
        }
    }

    #[test]
    fn bad_codes_are_rejected() {
        assert_eq!(FuzzSpec::from_code(0), None);
        assert_eq!(FuzzSpec::from_code(u64::MAX), None);
        // Valid tag but a zeroed clients field.
        assert_eq!(FuzzSpec::from_code(CODE_TAG << 56), None);
    }

    #[test]
    fn corpus_dimensions_stay_in_bounds() {
        for index in 0..64 {
            let spec = FuzzSpec::from_corpus(1, index);
            assert!((2..=6).contains(&spec.clients));
            assert!((2..=5).contains(&spec.files));
            assert!((1..=3).contains(&spec.requests_per_client));
            assert!(spec.seed < 1 << 32);
        }
    }

    #[test]
    fn world_generation_is_deterministic() {
        let spec = FuzzSpec::from_corpus(3, 0);
        assert_eq!(spec.describe(), spec.describe());
        let other = FuzzSpec::from_corpus(3, 1);
        assert_ne!(spec.describe(), other.describe());
    }

    #[test]
    fn scenario_agrees_across_all_pairs() {
        let spec = FuzzSpec {
            seed: 0x5EED,
            clients: 3,
            files: 3,
            requests_per_client: 2,
            faults: true,
        };
        let divergences = check_scenario(&spec, false);
        assert!(
            divergences.is_empty(),
            "unexpected divergence: {divergences:?}"
        );
    }

    #[test]
    fn broken_oracle_diverges_and_shrinks_to_minimum() {
        let spec = FuzzSpec {
            seed: 0x5EED,
            clients: 6,
            files: 4,
            requests_per_client: 2,
            faults: true,
        };
        let divergences = check_scenario(&spec, true);
        assert!(!divergences.is_empty(), "sabotage must be reported");
        let (shrunk, shrunk_divs) = shrink(&spec, true);
        assert_eq!(shrunk.clients, 3, "minimal sabotage trigger is 3 clients");
        assert_eq!(shrunk.files, 1);
        assert_eq!(shrunk.requests_per_client, 1);
        assert!(!shrunk.faults);
        assert!(!shrunk_divs.is_empty());
        // The replay token round-trips to the same scenario.
        assert_eq!(FuzzSpec::from_code(shrunk.code()), Some(shrunk));
    }
}
