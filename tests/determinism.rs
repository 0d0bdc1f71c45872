//! Reproducibility guarantees: everything is a pure function of the seed.

#![allow(
    clippy::float_cmp,
    clippy::unwrap_used,
    reason = "test helpers; outside library scope"
)]

use datagrid::prelude::*;

const MB: u64 = 1 << 20;

fn run_scenario(seed: u64) -> (String, f64, Vec<f64>) {
    let mut grid = paper_testbed(seed).build();
    grid.catalog_mut()
        .register_logical("file-d".parse().unwrap(), 32 * MB)
        .unwrap();
    for host in ["alpha4", "hit0", "lz02"] {
        grid.place_replica("file-d", canonical_host(host)).unwrap();
    }
    grid.warm_up(SimDuration::from_secs(120));
    let client = grid.host_id("alpha1").unwrap();
    let report = grid.fetch(client, "file-d").unwrap();
    (
        report.chosen_candidate().host_name.clone(),
        report.transfer.duration().as_secs_f64(),
        report.candidates.iter().map(|c| c.score).collect(),
    )
}

#[test]
fn same_seed_same_everything() {
    let a = run_scenario(555);
    let b = run_scenario(555);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1, "transfer durations must be bit-identical");
    assert_eq!(a.2, b.2, "scores must be bit-identical");
}

#[test]
fn different_seeds_differ_in_details_not_shape() {
    let a = run_scenario(556);
    let b = run_scenario(557);
    // The winner is robust across seeds...
    assert_eq!(a.0, "alpha4");
    assert_eq!(b.0, "alpha4");
    // ...but the monitored values are genuinely random.
    assert_ne!(a.2, b.2);
}

#[test]
fn clones_do_not_entangle() {
    let mut grid = paper_testbed(558).build();
    grid.catalog_mut()
        .register_logical("file-d".parse().unwrap(), 16 * MB)
        .unwrap();
    grid.place_replica("file-d", "alpha4").unwrap();
    grid.warm_up(SimDuration::from_secs(60));
    let before = grid.now();
    let client = grid.host_id("alpha1").unwrap();

    let mut clone = grid.clone();
    let _ = clone.fetch(client, "file-d").unwrap();
    // The original grid did not advance, and can still run its own fetch
    // with identical results to a second clone.
    assert_eq!(grid.now(), before);
    let mut c1 = grid.clone();
    let mut c2 = grid.clone();
    let r1 = c1.fetch(client, "file-d").unwrap();
    let r2 = c2.fetch(client, "file-d").unwrap();
    assert_eq!(
        r1.transfer.duration(),
        r2.transfer.duration(),
        "clones replay identically"
    );
}

#[test]
fn trace_replay_is_deterministic() {
    let run = |seed: u64| {
        let mut grid = paper_testbed(seed).build();
        grid.catalog_mut()
            .register_logical("file-t".parse().unwrap(), 16 * MB)
            .unwrap();
        grid.place_replica("file-t", "alpha4").unwrap();
        grid.place_replica("file-t", "lz02").unwrap();
        grid.warm_up(SimDuration::from_secs(120));
        let trace = RequestTrace::poisson(
            &["alpha1", "gridhit1"],
            &["file-t"],
            1.0 / 60.0,
            SimDuration::from_secs(600),
            99,
        );
        selection_quality(
            &mut grid,
            &trace,
            SelectionPolicy::CostModel,
            FetchOptions::default(),
        )
    };
    let a = run(600);
    let b = run(600);
    assert_eq!(a, b);
}

#[test]
fn observability_exports_are_byte_identical_across_runs() {
    let run = |seed: u64| {
        let mut grid = paper_testbed(seed).build();
        grid.catalog_mut()
            .register_logical("file-o".parse().unwrap(), 32 * MB)
            .unwrap();
        for host in ["alpha4", "hit0", "lz02"] {
            grid.place_replica("file-o", canonical_host(host)).unwrap();
        }
        grid.warm_up(SimDuration::from_secs(120));
        let client = grid.host_id("alpha1").unwrap();
        grid.fetch(client, "file-o").unwrap();
        let metrics = grid.metrics_snapshot();
        (
            metrics.render_text(),
            metrics.render_json(),
            grid.recorder().events_jsonl(),
            grid.audit().render_jsonl(),
        )
    };
    let a = run(601);
    let b = run(601);
    assert_eq!(a.0, b.0, "metrics text export must be byte-identical");
    assert_eq!(a.1, b.1, "metrics JSON export must be byte-identical");
    assert_eq!(a.2, b.2, "event JSONL export must be byte-identical");
    assert_eq!(a.3, b.3, "audit JSONL export must be byte-identical");
    // And the exports are non-trivial: real events and real histograms.
    assert!(a.2.lines().count() > 10);
    assert!(a.0.contains("transfer.seconds"));
}

#[test]
fn fault_recovery_exports_are_byte_identical_across_runs() {
    // Same seed + same fault plan => the whole recovery episode (stalls,
    // backoff pauses, failover, re-ranking) replays byte-for-byte.
    let run = |seed: u64| {
        let mut grid = paper_testbed(seed).build();
        grid.catalog_mut()
            .register_logical("file-f".parse().unwrap(), 256 * MB)
            .unwrap();
        for host in ["alpha4", "hit0", "lz02"] {
            grid.place_replica("file-f", canonical_host(host)).unwrap();
        }
        grid.warm_up(SimDuration::from_secs(180));
        let client = grid.host_id("alpha1").unwrap();
        let top = grid.score_candidates(client, "file-f").unwrap()[0].clone();
        grid.install_fault_plan(FaultPlan::new().host_blackout(
            grid.now() + SimDuration::from_secs(1),
            SimDuration::from_secs(10_000),
            grid.node_of(top.host),
        ));
        let recovery = RecoveryOptions::default()
            .with_retry(
                RetryPolicy::default()
                    .with_max_attempts(2)
                    .with_base_backoff(SimDuration::from_secs(1)),
            )
            .with_stall_timeout(SimDuration::from_secs(1));
        grid.fetch_with_recovery(
            client,
            "file-f",
            FetchOptions::default().with_parallelism(4),
            &recovery,
        )
        .expect("failover completes the fetch");
        let metrics = grid.metrics_snapshot();
        (
            metrics.render_text(),
            metrics.render_json(),
            grid.recorder().events_jsonl(),
            grid.audit().render_jsonl(),
        )
    };
    let a = run(611);
    let b = run(611);
    assert_eq!(a.0, b.0, "metrics text export must be byte-identical");
    assert_eq!(a.1, b.1, "metrics JSON export must be byte-identical");
    assert_eq!(a.2, b.2, "event JSONL export must be byte-identical");
    assert_eq!(a.3, b.3, "audit JSONL export must be byte-identical");
    // The exports actually contain the fault episode, not just the fetch.
    for kind in [
        "fault.start",
        "transfer.stall",
        "transfer.retry",
        "transfer.abandoned",
        "selection.failover",
    ] {
        assert!(a.2.contains(kind), "event export is missing {kind}");
    }
    assert!(
        a.3.contains("failover"),
        "audit export records the failover"
    );
}
