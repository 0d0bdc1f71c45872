//! The blocking fetch runs on the replay driver, so the exhaustive model
//! of that driver covers it too: every small fault configuration fetched
//! with `fetch_with_recovery` must end in a terminal state the model
//! search declares reachable, with metrics, events and audit entries
//! consistent with the result — and with none of the `replay.*` records a
//! workload replay adds.

use datagrid::core::grid::modelcheck::{explore, FetchModel, ModelPhase};
use datagrid::prelude::*;

const MB: u64 = 1 << 20;

/// Table 1 replica hosts, best-ranked first for an alpha-site client.
const REPLICA_HOSTS: [&str; 3] = ["alpha4", "gridhit0", "lz02"];

/// A tight recovery ladder so faulted cells abandon dead replicas fast.
fn quick_recovery() -> RecoveryOptions {
    RecoveryOptions::default()
        .with_retry(
            RetryPolicy::default()
                .with_max_attempts(2)
                .with_base_backoff(SimDuration::from_secs(2)),
        )
        .with_stall_timeout(SimDuration::from_secs(2))
}

/// Fetches `file-a` once from `alpha1` with `replicas` replicas, the
/// top-ranked one blacking out mid-transfer when `blackout_top` is set,
/// and checks the result against the model.
fn check_cell(replicas: usize, blackout_top: bool, seed: u64) {
    let recovery = quick_recovery();
    let model = FetchModel {
        replicas: replicas as u32,
        local_hit: false,
        max_attempts: recovery.retry.max_attempts,
        max_failovers: recovery.max_failovers,
    };
    let exploration =
        explore(&model).unwrap_or_else(|v| panic!("model falsified for {replicas} replicas: {v}"));

    let size = if blackout_top { 256 * MB } else { 96 * MB };
    let mut grid = paper_testbed(seed).build();
    grid.catalog_mut()
        .register_logical("file-a".parse().unwrap(), size)
        .unwrap();
    for host in &REPLICA_HOSTS[..replicas] {
        grid.place_replica("file-a", host).unwrap();
    }
    grid.warm_up(SimDuration::from_secs(300));
    let client = grid.host_id("alpha1").unwrap();
    if blackout_top {
        let top = grid.score_candidates(client, "file-a").unwrap()[0].clone();
        grid.install_fault_plan(FaultPlan::new().host_blackout(
            grid.now() + SimDuration::from_secs(1),
            SimDuration::from_secs(3600),
            grid.node_of(top.host),
        ));
    }
    let result = grid.fetch_with_recovery(client, "file-a", FetchOptions::default(), &recovery);

    // 1. The concrete terminal state is one the model reaches.
    let (phase, failovers, decisions) = match &result {
        Ok(rec) => {
            assert!(rec.report.transfer.payload_bytes <= size);
            assert!(rec.attempts >= 1);
            let n = rec.failed_over.len() as u32;
            // Initial decision + one re-decision per failover.
            (ModelPhase::Completed, n, 1 + u64::from(n))
        }
        Err(GridError::AllReplicasFailed { failed, .. }) => {
            let n = failed.len() as u32;
            (ModelPhase::Failed, n, u64::from(n))
        }
        Err(other) => panic!("unexpected error {other}"),
    };
    assert!(
        exploration.admits_outcome(phase, failovers),
        "{phase:?} after {failovers} failovers is model-unreachable \
         ({replicas} replicas, blackout {blackout_top})"
    );

    // 2. No session outlives the call.
    assert_eq!(grid.network().flow_count_by_tag(FlowTag::User), 0);

    // 3. Metrics, events and audit mirror the result.
    let m = grid.metrics_snapshot();
    assert_eq!(m.counter("selection.failovers"), u64::from(failovers));
    assert_eq!(m.counter("transfer.abandoned"), u64::from(failovers));
    assert_eq!(grid.audit().len() as u64, decisions);
    let count = |kind: &str| grid.recorder().events().filter(|e| e.kind == kind).count() as u64;
    assert_eq!(count("selection.failover"), u64::from(failovers));
    assert_eq!(count("selection.decision"), decisions);

    // 4. A one-job run records nothing of a workload replay.
    for name in ["replay.jobs", "replay.completed", "replay.failed"] {
        assert_eq!(m.counter(name), 0, "{name}");
    }
    assert!(
        grid.recorder()
            .events()
            .all(|e| !e.kind.starts_with("replay.")),
        "blocking fetches emit no replay.* events"
    );

    // 5. Faulted cells with a fallback replica exercise failover;
    //    fault-free cells never do.
    if blackout_top && replicas > 1 {
        assert!(failovers >= 1, "the blackout must force a failover");
        assert_eq!(phase, ModelPhase::Completed);
    }
    if !blackout_top {
        assert_eq!((phase, failovers), (ModelPhase::Completed, 0));
    }
    if blackout_top && replicas == 1 {
        assert_eq!(phase, ModelPhase::Failed);
    }
}

#[test]
fn blocking_fetch_matches_model_without_faults() {
    for replicas in 1..=3 {
        check_cell(replicas, false, 9000 + replicas as u64);
    }
}

#[test]
fn blocking_fetch_matches_model_under_blackout() {
    for replicas in 1..=3 {
        check_cell(replicas, true, 7000 + replicas as u64);
    }
}
