//! `grid_scale` — **grid-level scale benchmark**.
//!
//! Replays deterministic multi-client workloads (seeded arrivals, Zipf
//! file popularity — [`datagrid_testbed::workload::grid_workload`])
//! against one shared paper testbed per cell, sweeping the client count.
//! Every selection decision is made while other clients' transfers are
//! consuming the links being scored; by default the sweep also runs both
//! [`SelectionMode`]s side by side, so the report shows what
//! contention-aware `BW_P` buys over the paper's static sensor reading.
//!
//! Writes `BENCH_grid.json` (override with `--out <path>` or
//! `$DATAGRID_BENCH_OUT`): fetches/sec, p50/p95/p99 fetch latency,
//! solver settle counters, failover counts and scratch compaction per
//! cell. `grid_scale --check [path]` re-reads the file and validates the
//! key fields parse — the CI smoke test, not a perf gate.
//!
//! Knobs: `DATAGRID_GRID_CLIENTS` (comma list, default
//! `16,64,256,1024,4096,16384`), `DATAGRID_GRID_FILES`, `DATAGRID_GRID_MODES`
//! (`static`, `contention`, or `both`), `DATAGRID_JOBS` (sweep worker
//! count; output is byte-identical for any value), `DATAGRID_OBS_DIR`
//! (dump each cell's event log / audit / metrics).
//!
//! `--verify` checks the max-min certificate on every cell: each solve
//! is enforced as it happens and the settled post-replay allocation is
//! re-verified. Slower, never changes the emitted numbers.

#![allow(
    clippy::expect_used,
    clippy::print_stderr,
    clippy::print_stdout,
    reason = "console bin; outside library scope"
)]

use datagrid_bench::{banner, seed_from_args, OBS_DIR_ENV};
use datagrid_core::prelude::SelectionMode;
use datagrid_testbed::experiment::TextTable;
use datagrid_testbed::gridscale::{run_grid_scale, GridScaleConfig, GridScaleReport, GridScaleRun};

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

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn modes() -> Vec<SelectionMode> {
    match std::env::var("DATAGRID_GRID_MODES").as_deref() {
        Ok("static") => vec![SelectionMode::Static],
        Ok("contention") => vec![SelectionMode::ContentionAware],
        _ => vec![SelectionMode::Static, SelectionMode::ContentionAware],
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

/// CI smoke: re-read the emitted file and validate the key fields parse.
fn check(path: &str) -> Result<(), String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if !json.contains("\"grid-scale\"") {
        return Err(format!("{path} is not a grid-scale report"));
    }
    for key in [
        "clients",
        "fetches",
        "completed",
        "makespan_s",
        "fetches_per_sec",
        "latency_p50_s",
        "latency_p99_s",
        "incremental_solves",
    ] {
        let v = extract_number(&json, key)
            .ok_or_else(|| format!("{path}: missing numeric field \"{key}\""))?;
        if v.is_nan() || v <= 0.0 {
            return Err(format!("{path}: field \"{key}\" = {v}, expected > 0"));
        }
    }
    let fetches = extract_number(&json, "fetches").unwrap_or(0.0);
    let completed = extract_number(&json, "completed").unwrap_or(0.0);
    if completed > fetches {
        return Err(format!(
            "{path}: completed {completed} exceeds fetches {fetches}"
        ));
    }
    println!(
        "{path}: ok ({:.0} clients, {:.0} fetches, {:.2} fetches/s, p50 {:.1}s)",
        extract_number(&json, "clients").unwrap_or(0.0),
        fetches,
        extract_number(&json, "fetches_per_sec").unwrap_or(0.0),
        extract_number(&json, "latency_p50_s").unwrap_or(0.0),
    );
    Ok(())
}

fn dump_cell_obs(run: &GridScaleRun) {
    let Ok(dir) = std::env::var(OBS_DIR_ENV) else {
        return;
    };
    if dir.is_empty() {
        return;
    }
    let label = format!("grid_scale_{}_c{}", run.cell.mode, run.cell.clients);
    let dir = std::path::Path::new(&dir);
    if let Err(err) = std::fs::create_dir_all(dir)
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{label}.events.jsonl")),
                &run.obs.events_jsonl,
            )
        })
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{label}.audit.jsonl")),
                &run.obs.audit_jsonl,
            )
        })
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{label}.metrics.json")),
                &run.obs.metrics_json,
            )
        })
    {
        eprintln!("observability: dump to {} failed: {err}", dir.display());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--check") {
        let path = args.get(1).map(String::as_str).unwrap_or("BENCH_grid.json");
        if let Err(err) = check(path) {
            eprintln!("grid_scale --check failed: {err}");
            std::process::exit(1);
        }
        return;
    }
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| std::env::var("DATAGRID_BENCH_OUT").ok())
        .unwrap_or_else(|| "BENCH_grid.json".to_string());

    let seed = seed_from_args();
    banner("Grid scale: deterministic multi-client fetch replay", seed);

    let client_counts = env_list("DATAGRID_GRID_CLIENTS", &[16, 64, 256, 1024, 4096, 16384]);
    let files = env_usize("DATAGRID_GRID_FILES", 48);
    let verify = args.iter().any(|a| a == "--verify");
    if verify {
        println!("verification on: enforcing the max-min certificate on every solve\n");
    }

    let mut runs: Vec<GridScaleRun> = Vec::new();
    for mode in modes() {
        let cfg = GridScaleConfig {
            files,
            mode,
            verify,
            ..GridScaleConfig::default()
        };
        runs.extend(run_grid_scale(seed, &client_counts, &cfg));
    }
    let report = GridScaleReport::from_runs(seed, &runs);

    let mut table = TextTable::new([
        "clients",
        "mode",
        "done/fail",
        "failovers",
        "makespan (s)",
        "fetches/s",
        "p50 (s)",
        "p95 (s)",
        "p99 (s)",
        "settles",
    ]);
    for c in &report.cells {
        table.row([
            format!("{}", c.clients),
            c.mode.to_string(),
            format!("{}/{}", c.completed, c.failed),
            format!("{}", c.failovers),
            format!("{:.1}", c.makespan_s),
            format!("{:.3}", c.fetches_per_sec),
            format!("{:.1}", c.p50_s),
            format!("{:.1}", c.p95_s),
            format!("{:.1}", c.p99_s),
            format!("{}", c.engine.solves()),
        ]);
    }
    print!("{}", table.render());
    println!();
    for c in &report.cells {
        println!(
            "{} clients ({}): scratch {} -> {} elements after shrink",
            c.clients, c.mode, c.scratch_high_water, c.scratch_after_shrink
        );
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
