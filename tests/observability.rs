//! Integration coverage for the grid-wide observability layer: the
//! selection audit of the paper's Table 1 scenario, metric exports and the
//! event-bus bridge.

#![allow(clippy::unwrap_used, reason = "test helpers; outside library scope")]

use datagrid::obs::{EventBus, JsonlSink};
use datagrid::prelude::*;

const MB: u64 = 1 << 20;

/// The Table 1 scenario: client `alpha1` fetches `file-a` (1024 MB in the
/// paper, smaller here for test speed) replicated on `alpha4`, `hit0` and
/// `lz02`, with the paper's weights 0.8/0.1/0.1.
fn table1_grid(seed: u64) -> DataGrid {
    let mut grid = paper_testbed(seed).build();
    grid.catalog_mut()
        .register_logical("file-a".parse().unwrap(), 64 * MB)
        .unwrap();
    for host in ["alpha4", "hit0", "lz02"] {
        grid.place_replica("file-a", canonical_host(host)).unwrap();
    }
    grid.warm_up(SimDuration::from_secs(300));
    grid
}

#[test]
fn table1_scenario_records_a_full_selection_audit() {
    let mut grid = table1_grid(905);
    let client = grid.host_id("alpha1").unwrap();
    let report = grid.fetch(client, "file-a").unwrap();

    let audit = grid.audit();
    assert_eq!(audit.len(), 1);
    let decision = audit.last().unwrap();
    assert_eq!(decision.lfn, "file-a");
    assert_eq!(decision.client, "alpha1");
    assert_eq!(decision.policy, "cost-model");
    assert_eq!(decision.weights, (0.8, 0.1, 0.1));

    // All three candidates with their full factor breakdown, ranked
    // best-first: alpha4 (same cluster) > gridhit0 (fast WAN) > lz02
    // (slow lossy WAN) — the paper's Table 1 ordering.
    assert_eq!(decision.candidates.len(), 3);
    assert_eq!(decision.hosts_by_rank(), vec!["alpha4", "gridhit0", "lz02"]);
    assert_eq!(decision.winner, "alpha4");
    assert_eq!(decision.winner, report.chosen_candidate().host_name);
    for candidate in &decision.candidates {
        assert!(
            candidate.bw_p > 0.0 && candidate.bw_p <= 1.0,
            "BW_P out of range for {}",
            candidate.host
        );
        assert!((0.0..=1.0).contains(&candidate.cpu_p));
        assert!((0.0..=1.0).contains(&candidate.io_p));
        let recomputed = candidate.weighted_bw + candidate.weighted_cpu + candidate.weighted_io;
        assert!(
            (recomputed - candidate.score).abs() < 1e-9,
            "weighted components must sum to the score for {}",
            candidate.host
        );
        assert!((candidate.weighted_bw - 0.8 * candidate.bw_p).abs() < 1e-12);
        assert!((candidate.weighted_cpu - 0.1 * candidate.cpu_p).abs() < 1e-12);
        assert!((candidate.weighted_io - 0.1 * candidate.io_p).abs() < 1e-12);
    }

    // The winner's measured transfer time is attached automatically.
    let winner = decision.winner_audit().unwrap();
    assert!(winner.measured_secs.unwrap() > 0.0);

    // Both renders carry the decision.
    assert!(audit.render_text().contains("alpha4"));
    let jsonl = audit.render_jsonl();
    assert!(jsonl.contains("\"winner\":\"alpha4\""));
    assert!(jsonl.contains("\"bw_p\""));
}

#[test]
fn counterfactual_times_complete_the_rank_agreement() {
    let mut grid = table1_grid(906);
    let client = grid.host_id("alpha1").unwrap();
    let candidates = grid.score_candidates(client, "file-a").unwrap();
    grid.fetch(client, "file-a").unwrap();

    // Measure the two losing candidates on clones, as table1 does.
    let mut measured = Vec::new();
    for c in &candidates {
        let mut probe = grid.clone();
        let report = probe
            .fetch_from(client, "file-a", &c.host_name, FetchOptions::default())
            .unwrap();
        measured.push((
            c.host_name.clone(),
            report.transfer.duration().as_secs_f64(),
        ));
    }
    let decision = grid.recorder_mut().audit_mut().last_mut().unwrap();
    for (host, secs) in &measured {
        decision.attach_measured(host, *secs);
    }
    assert_eq!(
        decision.rank_agreement(),
        Some(1.0),
        "score order must match measured-time order in the Table 1 scenario"
    );
}

#[test]
fn metrics_export_has_latency_histograms_in_text_and_json() {
    let mut grid = table1_grid(907);
    let client = grid.host_id("alpha1").unwrap();
    grid.fetch(client, "file-a").unwrap();

    let metrics = grid.metrics_snapshot();
    let text = metrics.render_text();
    let json = metrics.render_json();

    // Per-transfer latency histogram, in both renders.
    let hist = metrics.histogram("transfer.seconds").unwrap();
    assert_eq!(hist.count(), 1);
    assert!(text.contains("transfer.seconds count 1"));
    assert!(text.contains("transfer.seconds le +inf 1"));
    assert!(json.contains("\"transfer.seconds\":{\"bounds\":"));

    // Selection + monitoring + merged subsystem counters.
    assert!(text.contains("selection.decisions 1"));
    assert!(metrics.counter("monitor.ticks") >= 29);
    assert!(metrics.counter("nws.probes_completed") > 0);
    assert!(metrics.counter("catalog.lookups") >= 2);
    assert!(metrics.counter("simnet.flows_completed") > 0);
    assert!(metrics.histogram("selection.score").is_some());
    assert!(metrics.histogram("transfer.phase_seconds.data").is_some());
}

#[test]
fn recorder_history_replays_into_a_jsonl_sink() {
    let mut grid = table1_grid(908);
    let client = grid.host_id("alpha1").unwrap();
    grid.fetch(client, "file-a").unwrap();

    let mut bus = EventBus::new();
    bus.subscribe(JsonlSink::new(Vec::new()));
    grid.recorder().replay_into(&mut bus);
    // The sink is owned by the bus; compare through the recorder's own
    // JSONL render, which must match what streamed through the bus.
    let direct = grid.recorder().events_jsonl();
    assert_eq!(direct.lines().count(), grid.recorder().events().len());
    assert!(
        direct.contains("\"component\":\"gridftp\"") || direct.contains("\"kind\":\"span.open\"")
    );
}
