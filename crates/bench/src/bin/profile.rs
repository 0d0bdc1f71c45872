//! `profile` — **hot-path phase profile of the grid workload**.
//!
//! Replays the deterministic multi-client grid workload (same generator
//! as `grid_scale`) with the continuous-telemetry stack switched on: a
//! sim-time health timeline attached to each cell's grid after warm-up,
//! and the replay driver's phase profiler read back after the run. The
//! report shows where the replay hot path spends its work — per-phase
//! call/item counts for settle (with nested solver attribution), decide,
//! dispatch, retry and failover — next to decisions/sec and settles/sec.
//!
//! Writes `BENCH_profile.json` (override with `--out <path>` or
//! `$DATAGRID_BENCH_OUT`). In default builds every byte of the file is a
//! pure function of the seed; build with `--features prof-timing` to add
//! per-phase wall-clock milliseconds (those fields, and only those, vary
//! run to run). `profile --check [path]` re-reads the file and validates
//! the schema — the CI smoke test, not a perf gate.
//!
//! Knobs: `DATAGRID_PROFILE_CLIENTS` (comma list, default
//! `256,1024,4096`), `DATAGRID_PROFILE_FILES`,
//! `DATAGRID_PROFILE_WINDOW_SECS` (timeline window width, default 60),
//! `DATAGRID_PROFILE_MODE` (`static` / `contention`), `DATAGRID_JOBS`
//! (sweep worker count; output is byte-identical for any value),
//! `DATAGRID_OBS_DIR` (dump each cell's timeline / health report / phase
//! table / event log / metrics).
//!
//! `--verify` enforces the max-min certificate on every solve. The grid
//! health report of the largest cell is printed after the phase tables.

#![allow(
    clippy::cast_possible_truncation,
    clippy::expect_used,
    clippy::print_stderr,
    clippy::print_stdout,
    unsafe_code,
    reason = "console bin with a counting GlobalAlloc; outside library scope"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use datagrid_bench::{banner, seed_from_args, OBS_DIR_ENV};
use datagrid_core::prelude::SelectionMode;
use datagrid_obs::prof::TIMING_ENABLED;
use datagrid_simnet::prelude::{Bandwidth, FlowSpec, LinkSpec, NetSim, Topology};
use datagrid_simnet::time::SimDuration;
use datagrid_testbed::experiment::TextTable;
use datagrid_testbed::gridscale::GridScaleConfig;
use datagrid_testbed::profile::{
    run_profile, ProfileConfig, ProfileReport, ProfileRun, PROFILE_ENGINE_KEYS,
};

/// Counts heap allocations so the steady-state dispatch probe can report
/// a real measurement into `BENCH_profile.json` instead of an assertion
/// that lives only in the test suite. The counter is a single relaxed
/// atomic bump per allocation — invisible next to simulation work.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Measures heap allocations across a warmed engine event drain — the
/// number the perf budget pins to zero. Mirrors the `alloc_steady`
/// integration test: two churn cycles size every reusable buffer, then a
/// third identical flow population is drained with the counter running
/// (flow *starts* are outside the claim). Runs single-threaded after the
/// sweep's worker threads have joined, so every counted allocation is the
/// drain's own.
fn steady_dispatch_alloc_probe() -> u64 {
    let mut topo = Topology::new();
    let a = topo.add_node("a");
    let b = topo.add_node("b");
    let c = topo.add_node("c");
    let hub = topo.add_node("hub");
    let spec = || LinkSpec::new(Bandwidth::from_mbps(100.0), SimDuration::from_millis(1));
    topo.add_duplex_link(a, hub, spec());
    topo.add_duplex_link(b, hub, spec());
    topo.add_duplex_link(c, hub, spec());
    let mut sim = NetSim::new(topo, 7);
    sim.set_validation(false);
    sim.set_auto_shrink(false);

    const FLOWS: usize = 64;
    let start_all = |sim: &mut NetSim| {
        for i in 0..FLOWS {
            let (src, dst) = if i % 2 == 0 { (a, b) } else { (a, c) };
            sim.start_flow(FlowSpec::new(src, dst, 4_000_000 + (i as u64) * 37_000));
        }
    };
    for _ in 0..2 {
        start_all(&mut sim);
        while sim.next_event().is_some() {}
    }
    start_all(&mut sim);
    let before = ALLOCS.load(Ordering::Relaxed);
    while sim.next_event().is_some() {}
    ALLOCS.load(Ordering::Relaxed) - before
}

fn env_list(name: &str, default: &[usize]) -> Vec<usize> {
    std::env::var(name)
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|part| part.trim().parse().ok())
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn mode() -> SelectionMode {
    match std::env::var("DATAGRID_PROFILE_MODE").as_deref() {
        Ok("static") => SelectionMode::Static,
        _ => SelectionMode::ContentionAware,
    }
}

/// Extracts `"key": <number>` from the (known, flat-ish) JSON we wrote.
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// CI smoke: re-read the emitted file and validate the schema.
fn check(path: &str) -> Result<(), String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if !json.contains("\"name\": \"profile\"") {
        return Err(format!("{path} is not a profile report"));
    }
    if !json.contains("\"timing\": true") && !json.contains("\"timing\": false") {
        return Err(format!("{path}: missing \"timing\" flag"));
    }
    for key in [
        "clients",
        "completed",
        "makespan_s",
        "decisions",
        "decisions_per_sec",
        "settles",
        "settles_per_sec",
        "solves",
        "solves_per_decision",
        "events_processed",
        "events_per_decision",
        "windows",
    ] {
        let v = extract_number(&json, key)
            .ok_or_else(|| format!("{path}: missing numeric field \"{key}\""))?;
        if v.is_nan() || v <= 0.0 {
            return Err(format!("{path}: field \"{key}\" = {v}, expected > 0"));
        }
    }
    // Hot-path counters that may legitimately be zero (a tiny cell can
    // batch nothing); present and non-negative is the shape contract.
    for key in PROFILE_ENGINE_KEYS.into_iter().chain([
        "scratch_hits",
        "scratch_misses",
        "steady_dispatch_allocs",
    ]) {
        let v = extract_number(&json, key)
            .ok_or_else(|| format!("{path}: missing numeric field \"{key}\""))?;
        if v < 0.0 {
            return Err(format!("{path}: field \"{key}\" = {v}, expected >= 0"));
        }
    }
    for phase in [
        "\"path\": \"settle\"",
        "\"path\": \"settle/solve\"",
        "\"path\": \"decide\"",
        "\"path\": \"dispatch\"",
    ] {
        if !json.contains(phase) {
            return Err(format!("{path}: missing phase entry {phase}"));
        }
    }
    println!(
        "{path}: ok ({:.0} clients, {:.0} decisions, {:.2} decisions/s, {:.2} settles/s)",
        extract_number(&json, "clients").unwrap_or(0.0),
        extract_number(&json, "decisions").unwrap_or(0.0),
        extract_number(&json, "decisions_per_sec").unwrap_or(0.0),
        extract_number(&json, "settles_per_sec").unwrap_or(0.0),
    );
    Ok(())
}

fn dump_cell_obs(run: &ProfileRun) {
    let Ok(dir) = std::env::var(OBS_DIR_ENV) else {
        return;
    };
    if dir.is_empty() {
        return;
    }
    let label = format!("profile_{}_c{}", run.cell.mode, run.cell.clients);
    let dir = std::path::Path::new(&dir);
    let files = [
        ("timeline.json", run.timeline_json.as_str()),
        ("health.txt", run.health_report.as_str()),
        ("profile.txt", run.prof_text.as_str()),
        ("events.jsonl", run.obs.events_jsonl.as_str()),
        ("metrics.json", run.obs.metrics_json.as_str()),
    ];
    let write_all = || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for (suffix, body) in files {
            std::fs::write(dir.join(format!("{label}.{suffix}")), body)?;
        }
        Ok(())
    };
    if let Err(err) = write_all() {
        eprintln!("observability: dump to {} failed: {err}", dir.display());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--check") {
        let path = args
            .get(1)
            .map(String::as_str)
            .unwrap_or("BENCH_profile.json");
        if let Err(err) = check(path) {
            eprintln!("profile --check failed: {err}");
            std::process::exit(1);
        }
        return;
    }
    if args.first().map(String::as_str) == Some("--check-budget") {
        let Some(budget_path) = args.get(1) else {
            eprintln!("usage: profile --check-budget <budget.json> [report.json]");
            std::process::exit(2);
        };
        let report_path = args
            .get(2)
            .map(String::as_str)
            .unwrap_or("BENCH_profile.json");
        let read = |p: &str| {
            std::fs::read_to_string(p).unwrap_or_else(|e| {
                eprintln!("profile --check-budget: cannot read {p}: {e}");
                std::process::exit(1);
            })
        };
        let budget = read(budget_path);
        let report = read(report_path);
        match datagrid_bench::budget::check_budget(&report, &budget) {
            Ok(summary) => {
                println!("{report_path}: within budget {budget_path}");
                print!("{summary}");
            }
            Err(err) => {
                eprintln!("profile --check-budget failed against {budget_path}:\n{err}");
                std::process::exit(1);
            }
        }
        return;
    }
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| std::env::var("DATAGRID_BENCH_OUT").ok())
        .unwrap_or_else(|| "BENCH_profile.json".to_string());

    let seed = seed_from_args();
    banner("Profile: hot-path phase breakdown of the grid replay", seed);
    println!(
        "wall-clock timings: {}\n",
        if TIMING_ENABLED {
            "on (prof-timing build; ms columns are non-deterministic)"
        } else {
            "off (counts only; output is a pure function of the seed)"
        }
    );

    let client_counts = env_list("DATAGRID_PROFILE_CLIENTS", &[256, 1024, 4096]);
    let files = env_u64("DATAGRID_PROFILE_FILES", 48) as usize;
    let window = SimDuration::from_secs(env_u64("DATAGRID_PROFILE_WINDOW_SECS", 60));
    let verify = args.iter().any(|a| a == "--verify");
    if verify {
        println!("verification on: enforcing the max-min certificate on every solve\n");
    }

    let cfg = ProfileConfig {
        grid: GridScaleConfig {
            files,
            mode: mode(),
            verify,
            ..GridScaleConfig::default()
        },
        window,
    };
    let runs = run_profile(seed, &client_counts, &cfg);
    let mut report = ProfileReport::from_runs(seed, &cfg, &runs);
    // Worker threads have joined; the probe's drain is the only live work,
    // so the count is exact (and deterministic: zero, or the budget trips).
    report.steady_dispatch_allocs = Some(steady_dispatch_alloc_probe());

    let mut table = TextTable::new([
        "clients",
        "mode",
        "done/fail",
        "makespan (s)",
        "decisions",
        "decisions/s",
        "settles",
        "settles/s",
        "solves/dec",
        "events/dec",
        "avoided",
        "scratch h/m",
        "windows",
    ]);
    for c in &report.cells {
        table.row([
            format!("{}", c.clients),
            c.mode.to_string(),
            format!("{}/{}", c.completed, c.failed),
            format!("{:.1}", c.makespan_s),
            format!("{}", c.decisions),
            format!("{:.3}", c.decisions_per_sec),
            format!("{}", c.settles),
            format!("{:.3}", c.settles_per_sec),
            format!("{:.2}", c.solves_per_decision),
            format!("{:.2}", c.events_per_decision),
            format!("{}", c.engine.solves_avoided),
            format!("{}/{}", c.scratch_hits, c.scratch_misses),
            format!("{}", c.windows),
        ]);
    }
    print!("{}", table.render());
    if let Some(allocs) = report.steady_dispatch_allocs {
        println!("\nsteady-state dispatch allocations (warmed engine drain): {allocs}");
    }

    for run in &runs {
        println!("\nphase profile, {} clients:", run.cell.clients);
        print!("{}", run.prof_text);
    }

    // The health report of the largest cell — the per-window saturation /
    // latency picture the ISSUE's acceptance criteria ask for.
    if let Some(largest) = runs.iter().max_by_key(|r| r.cell.clients) {
        println!("\ngrid health report, {} clients:", largest.cell.clients);
        print!("{}", largest.health_report);
    }

    for run in &runs {
        dump_cell_obs(run);
    }
    if verify {
        println!(
            "\nmax-min certificate held on every solve across {} cell(s)",
            runs.len()
        );
    }

    let json = report.render_json();
    std::fs::write(&out_path, &json).expect("write benchmark report");
    println!("\nwrote {out_path}");
}
