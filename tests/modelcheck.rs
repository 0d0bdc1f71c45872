//! Closing the loop between the abstract replay model and the real
//! driver: every small-grid replay configuration (clients × replicas,
//! with and without a mid-transfer blackout) must land every job in a
//! terminal state the exhaustive model search declares reachable, with
//! the observability layer's metrics, events and audit entries exactly
//! consistent with the outcomes.

#![allow(
    clippy::cast_possible_truncation,
    clippy::expect_used,
    clippy::panic,
    clippy::unwrap_used,
    reason = "test helpers; outside library scope"
)]

use datagrid::core::grid::modelcheck::{explore, FetchModel, ModelPhase};
use datagrid::prelude::*;

const MB: u64 = 1 << 20;

/// Table 1 replica hosts, best-ranked first for an alpha-site client.
const REPLICA_HOSTS: [&str; 3] = ["alpha4", "gridhit0", "lz02"];
/// Client hosts, disjoint from every replica host (no local hits).
const CLIENT_HOSTS: [&str; 3] = ["alpha1", "alpha2", "alpha3"];

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

struct Cell {
    clients: usize,
    replicas: usize,
    blackout_top: bool,
}

/// Replays one configuration cell and checks every invariant.
fn check_cell(cell: &Cell, seed: u64) {
    let recovery = quick_recovery();
    // The abstract model for this cell explores clean before the
    // concrete run is even attempted.
    let model = FetchModel {
        replicas: cell.replicas as u32,
        local_hit: false,
        max_attempts: recovery.retry.max_attempts,
        max_failovers: recovery.max_failovers,
    };
    let exploration = explore(&model)
        .unwrap_or_else(|v| panic!("model falsified for {} replicas: {v}", cell.replicas));

    // Faulted cells use a file big enough (≥2 s on the 1 Gbps LAN) that
    // the +1 s blackout always lands mid-transfer.
    let size = if cell.blackout_top { 256 * MB } else { 96 * MB };
    let mut grid = paper_testbed(seed).build();
    grid.catalog_mut()
        .register_logical("file-a".parse().unwrap(), size)
        .unwrap();
    for host in &REPLICA_HOSTS[..cell.replicas] {
        grid.place_replica("file-a", host).unwrap();
    }
    grid.warm_up(SimDuration::from_secs(300));
    if cell.blackout_top {
        let client = grid.host_id(CLIENT_HOSTS[0]).unwrap();
        let top = grid.score_candidates(client, "file-a").unwrap()[0].clone();
        grid.install_fault_plan(FaultPlan::new().host_blackout(
            grid.now() + SimDuration::from_secs(1),
            SimDuration::from_secs(3600),
            grid.node_of(top.host),
        ));
    }
    let jobs: Vec<ReplayJob> = (0..cell.clients)
        .map(|i| ReplayJob {
            at: grid.now() + SimDuration::from_millis(50 * i as u64),
            client: grid.host_id(CLIENT_HOSTS[i]).unwrap(),
            lfn: "file-a".to_string(),
        })
        .collect();
    let report = grid
        .replay_concurrent(&jobs, FetchOptions::default(), &recovery)
        .expect("replay configuration is valid");

    // 1. Terminal coverage: one outcome per job, each bytes-complete or
    //    Failed, each admitted by the exhaustive model.
    assert_eq!(report.outcomes.len(), cell.clients);
    let mut failovers_total = 0u64;
    let mut audit_expected = 0u64;
    for outcome in &report.outcomes {
        failovers_total += u64::from(outcome.failovers);
        match &outcome.status {
            ReplayStatus::Completed { bytes, .. } => {
                assert_eq!(*bytes, size, "{}: short delivery", outcome.client);
                assert!(
                    exploration.admits_outcome(ModelPhase::Completed, outcome.failovers),
                    "{}: Completed after {} failovers is model-unreachable",
                    outcome.client,
                    outcome.failovers
                );
                // Initial decision + one re-decision per failover.
                audit_expected += 1 + u64::from(outcome.failovers);
            }
            ReplayStatus::Failed { failed } => {
                assert_eq!(failed.len() as u32, outcome.failovers);
                assert!(
                    exploration.admits_outcome(ModelPhase::Failed, outcome.failovers),
                    "{}: Failed after {} failovers is model-unreachable",
                    outcome.client,
                    outcome.failovers
                );
                // The last abandon fails the job without re-deciding (or
                // the final re-decision finds no candidate and records
                // nothing), so exactly `failovers` decisions were logged.
                audit_expected += u64::from(outcome.failovers);
            }
        }
        assert!(outcome.attempts >= 1);
        assert!(outcome.finished >= outcome.submitted);
    }

    // 2. No stuck client leaves traffic behind (background flows run
    //    forever by design and a monitoring probe may be mid-flight), and
    //    the settled state still carries a max-min certificate.
    assert_eq!(grid.network().flow_count_by_tag(FlowTag::User), 0);
    grid.network()
        .verify_allocation()
        .expect("post-replay allocation certifies");

    // 3. Metrics mirror the outcomes exactly.
    let m = grid.metrics_snapshot();
    assert_eq!(m.counter("replay.jobs"), cell.clients as u64);
    assert_eq!(m.counter("replay.completed"), report.completed() as u64);
    assert_eq!(m.counter("replay.failed"), report.failed() as u64);
    assert_eq!(m.counter("selection.failovers"), failovers_total);
    assert_eq!(m.counter("transfer.abandoned"), failovers_total);

    // 4. Event counts match the metrics (nothing dropped, nothing
    //    double-counted).
    assert_eq!(m.counter("obs.events_dropped"), 0);
    let count = |kind: &str| grid.recorder().events().filter(|e| e.kind == kind).count() as u64;
    assert_eq!(count("replay.start"), 1);
    assert_eq!(count("replay.end"), 1);
    assert_eq!(count("replay.job.done"), report.completed() as u64);
    assert_eq!(count("replay.job.failed"), report.failed() as u64);
    assert_eq!(count("selection.failover"), failovers_total);
    assert_eq!(count("transfer.abandoned"), failovers_total);

    // 5. Audit-log consistency: every decision that chose a candidate is
    //    recorded, and nothing else is.
    assert_eq!(grid.audit().len() as u64, audit_expected);

    // 6. Faulted cells with a fallback replica must actually exercise
    //    failover; fault-free cells must never.
    if cell.blackout_top && cell.replicas > 1 {
        assert!(
            failovers_total >= 1,
            "blackout of the top replica must force at least one failover"
        );
        assert_eq!(report.failed(), 0, "surviving replicas serve every job");
    }
    if !cell.blackout_top {
        assert_eq!(failovers_total, 0);
        assert_eq!(report.failed(), 0);
    }
}

/// The full sweep: ≤3 clients × ≤3 replicas, fault-free.
#[test]
fn replay_matches_model_without_faults() {
    for clients in 1..=3 {
        for replicas in 1..=3 {
            check_cell(
                &Cell {
                    clients,
                    replicas,
                    blackout_top: false,
                },
                9000 + (clients * 10 + replicas) as u64,
            );
        }
    }
}

/// The same sweep with the top-ranked replica blacking out mid-replay.
#[test]
fn replay_matches_model_under_blackout() {
    for clients in 1..=3 {
        for replicas in 2..=3 {
            check_cell(
                &Cell {
                    clients,
                    replicas,
                    blackout_top: true,
                },
                7000 + (clients * 10 + replicas) as u64,
            );
        }
    }
}

/// Single replica + blackout: every job must exhaust the candidate list
/// and Fail — the model's only admitted failure route for this policy.
#[test]
fn replay_single_replica_blackout_fails_cleanly() {
    check_cell(
        &Cell {
            clients: 2,
            replicas: 1,
            blackout_top: true,
        },
        4242,
    );
}
