//! A permanent outage ends every blocking call with a `GridError`. The
//! plain fetch and transfer calls watch their sessions for stalls like the
//! recovering ones, so a dead source cannot keep them waiting while
//! monitor ticks keep the simulation alive forever. Each call runs on a
//! worker thread under a wall-clock bound, so a hang fails the test
//! instead of stalling the suite.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    clippy::wildcard_enum_match_arm,
    reason = "test helpers; outside library scope"
)]

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use datagrid::gridftp::transfer::TransferRequest;
use datagrid::prelude::*;

const MB: u64 = 1 << 20;

type Call = fn(&mut DataGrid) -> Result<(), GridError>;

fn id(grid: &DataGrid, name: &str) -> HostId {
    grid.host_id(name).unwrap()
}

/// Runs `call` on a grid where `file-a` (64 MiB) lives only on
/// `gridhit0`, whose host blacks out for 10⁶ s right after warm-up.
/// Fails if the call has not returned within 20 s of wall time.
fn on_outage(call: Call) -> GridError {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let mut grid = paper_testbed(20050905).build();
        grid.catalog_mut()
            .register_logical("file-a".parse().unwrap(), 64 * MB)
            .unwrap();
        grid.place_replica("file-a", "gridhit0").unwrap();
        grid.warm_up(SimDuration::from_secs(300));
        let dead = grid.node_of(id(&grid, "gridhit0"));
        let at = grid.now() + SimDuration::from_millis(1);
        grid.install_fault_plan(FaultPlan::new().host_blackout(
            at,
            SimDuration::from_secs(1_000_000),
            dead,
        ));
        let result = call(&mut grid);
        // No session outlives the call.
        assert_eq!(grid.network().flow_count_by_tag(FlowTag::User), 0);
        let _ = tx.send(result);
    });
    rx.recv_timeout(Duration::from_secs(20))
        .expect("blocking call did not return on a permanent outage")
        .expect_err("nothing can be fetched from a dark host")
}

#[test]
fn plain_fetches_return_on_permanent_outage() {
    let calls: [Call; 3] = [
        |g| {
            g.fetch_with(id(g, "alpha1"), "file-a", FetchOptions::default())
                .map(drop)
        },
        |g| {
            let client = id(g, "alpha1");
            g.fetch_from(client, "file-a", "gridhit0", FetchOptions::default())
                .map(drop)
        },
        |g| {
            let recovery = RecoveryOptions::default();
            g.fetch_with_recovery(
                id(g, "alpha1"),
                "file-a",
                FetchOptions::default(),
                &recovery,
            )
            .map(drop)
        },
    ];
    for call in calls {
        match on_outage(call) {
            GridError::AllReplicasFailed { lfn, failed } => {
                assert_eq!(lfn, "file-a");
                assert_eq!(failed, vec!["gridhit0".to_string()]);
            }
            other => panic!("expected AllReplicasFailed, got {other:?}"),
        }
    }
}

#[test]
fn plain_transfers_return_on_permanent_outage() {
    let calls: [Call; 3] = [
        |g| {
            let req = TransferRequest::new(64 * MB).with_parallelism(2);
            g.transfer_between(id(g, "gridhit0"), id(g, "alpha1"), req)
                .map(drop)
        },
        |g| {
            let req = TransferRequest::new(64 * MB).with_parallelism(2);
            let stripes = [id(g, "gridhit0"), id(g, "alpha4")];
            g.striped_transfer_between(&stripes, id(g, "alpha1"), req)
                .map(drop)
        },
        |g| {
            let (client, src, dst) = (id(g, "alpha1"), id(g, "gridhit0"), id(g, "alpha2"));
            g.third_party_transfer(client, src, dst, TransferRequest::new(64 * MB))
                .map(drop)
        },
    ];
    for call in calls {
        match on_outage(call) {
            GridError::Transfer(TransferError::RetriesExhausted { attempts, .. }) => {
                assert_eq!(attempts, 1, "the plain calls make one attempt");
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }
}
