//! Fault injection and recovery, end to end: injected link/host faults
//! interrupt real transfers, and the client survives them through the
//! recovery ladder — stall watchdog, backoff retries with MODE E restart
//! markers, suspect marking and next-best-replica failover.

#![allow(
    clippy::unwrap_used,
    clippy::wildcard_enum_match_arm,
    reason = "test helpers; outside library scope"
)]

use datagrid::gridftp::transfer::TransferRequest;
use datagrid::prelude::*;

const MB: u64 = 1 << 20;

/// The paper testbed with `file-a` replicated at the Table 1 sites and
/// monitoring warmed long enough for the canonical ranking to settle.
fn fault_grid(seed: u64, file_mb: u64) -> DataGrid {
    let mut grid = paper_testbed(seed).build();
    grid.catalog_mut()
        .register_logical("file-a".parse().unwrap(), file_mb * MB)
        .unwrap();
    for host in ["alpha4", "hit0", "lz02"] {
        grid.place_replica("file-a", canonical_host(host)).unwrap();
    }
    grid.warm_up(SimDuration::from_secs(300));
    grid
}

/// A tight recovery ladder so tests abandon dead replicas quickly.
fn quick_recovery() -> RecoveryOptions {
    RecoveryOptions::default()
        .with_retry(
            RetryPolicy::default()
                .with_max_attempts(2)
                .with_base_backoff(SimDuration::from_secs(2)),
        )
        .with_stall_timeout(SimDuration::from_secs(2))
}

/// The ISSUE acceptance scenario: the top-ranked replica blacks out
/// mid-transfer and the fetch still completes via the next-ranked
/// candidate, with the whole episode visible in the observability layer.
#[test]
fn blackout_of_top_replica_fails_over_mid_transfer() {
    let mut grid = fault_grid(20050905, 1024);
    let client = grid.host_id("alpha1").unwrap();
    let top = grid.score_candidates(client, "file-a").unwrap()[0].clone();
    assert_eq!(top.host_name, "alpha4", "canonical Table 1 winner");

    grid.install_fault_plan(FaultPlan::new().host_blackout(
        grid.now() + SimDuration::from_secs(4),
        SimDuration::from_secs(3600),
        grid.node_of(top.host),
    ));
    let rec = grid
        .fetch_with_recovery(
            client,
            "file-a",
            FetchOptions::default().with_parallelism(4),
            &quick_recovery(),
        )
        .expect("the fetch survives the blackout via failover");

    // The failover path: alpha4 abandoned, gridhit0 delivers the file.
    assert_eq!(rec.failed_over, vec!["alpha4".to_string()]);
    assert_eq!(rec.report.chosen_candidate().host_name, "gridhit0");
    assert_eq!(rec.report.transfer.payload_bytes, 1024 * MB);
    assert!(rec.attempts >= 3, "2 on alpha4 + 1 on gridhit0");
    assert!(
        rec.payload_moved > 1024 * MB,
        "bytes delivered before the blackout were lost: moved {}",
        rec.payload_moved
    );
    assert!(!rec.backoff_total.is_zero(), "a retry implies backoff");
    assert!(grid.catalog().is_suspect(&top.location));

    // The episode is fully reconstructable from the observability layer.
    let m = grid.metrics_snapshot();
    assert!(m.counter("transfer.stalls") >= 1);
    assert!(m.counter("transfer.retries") >= 1);
    assert_eq!(m.counter("transfer.abandoned"), 1);
    assert_eq!(m.counter("selection.failovers"), 1);
    assert_eq!(m.counter("fault.host_blackout"), 1);
    let kinds: Vec<&str> = grid.recorder().events().map(|e| e.kind).collect();
    for kind in [
        "fault.start",
        "transfer.stall",
        "transfer.retry",
        "transfer.abandoned",
        "selection.failover",
    ] {
        assert!(kinds.contains(&kind), "missing event {kind}: {kinds:?}");
    }
    let decision = grid.audit().last().expect("failover was audited");
    assert_eq!(decision.policy, "failover");
    assert_eq!(decision.winner, "gridhit0");
}

/// The restart-marker acceptance property at grid level: a transient
/// outage costs a MODE E transfer nothing but time, while a stream-mode
/// transfer re-sends everything it had already delivered.
#[test]
fn resumed_transfers_move_fewer_bytes_than_restart_from_zero() {
    let outage = |req: TransferRequest| {
        let mut grid = fault_grid(777, 256);
        let src = grid.host_id("alpha4").unwrap();
        let dst = grid.host_id("alpha1").unwrap();
        grid.install_fault_plan(FaultPlan::new().host_blackout(
            grid.now() + SimDuration::from_secs(1),
            SimDuration::from_secs(2),
            grid.node_of(src),
        ));
        let recovery = RecoveryOptions::default()
            .with_retry(RetryPolicy::default().with_base_backoff(SimDuration::from_secs(1)))
            .with_stall_timeout(SimDuration::from_secs(1));
        grid.transfer_between_with_recovery(src, dst, req, &recovery)
            .expect("the outage is transient")
    };

    let mode_e = outage(TransferRequest::new(256 * MB).with_parallelism(4));
    let stream = outage(TransferRequest::new(256 * MB));

    assert!(mode_e.attempts >= 2, "the fault interrupted the transfer");
    assert!(stream.attempts >= 2, "the fault interrupted the transfer");
    // The final MODE E session only carried the tail beyond the last
    // restart marker; the stream-mode restart re-sent the whole file.
    let resumed_at = *mode_e.resumed_from.last().unwrap();
    assert_eq!(resumed_at + mode_e.outcome.payload_bytes, 256 * MB);
    assert_eq!(stream.outcome.payload_bytes, 256 * MB);
    // MODE E resumed from the last committed byte, so the wire moved the
    // payload exactly once; stream mode re-sent the pre-fault bytes.
    assert_eq!(mode_e.payload_moved, 256 * MB);
    assert!(
        mode_e.payload_moved < stream.payload_moved,
        "resume {} vs restart {}",
        mode_e.payload_moved,
        stream.payload_moved
    );
    assert!(mode_e.resumed_from.iter().any(|&o| o > 0));
    assert!(stream.resumed_from.iter().all(|&o| o == 0));
}

/// When every replica is dark the fetch reports the full casualty list
/// instead of spinning forever.
#[test]
fn all_replicas_dark_is_reported_with_the_casualty_list() {
    let mut grid = fault_grid(20050905, 256);
    let client = grid.host_id("alpha1").unwrap();
    let at = grid.now() + SimDuration::from_secs(1);
    let mut plan = FaultPlan::new();
    for host in ["alpha4", "gridhit0", "lz02"] {
        let id = grid.host_id(host).unwrap();
        plan = plan.host_blackout(at, SimDuration::from_secs(100_000), grid.node_of(id));
    }
    grid.install_fault_plan(plan);

    let err = grid
        .fetch_with_recovery(
            client,
            "file-a",
            FetchOptions::default().with_parallelism(4),
            &quick_recovery(),
        )
        .expect_err("no replica can deliver");
    match err {
        GridError::AllReplicasFailed { lfn, failed } => {
            assert_eq!(lfn, "file-a");
            assert_eq!(failed.len(), 3, "every site was tried: {failed:?}");
        }
        other => panic!("unexpected error {other:?}"),
    }
}
