//! Allocation discipline of the concurrent replay loop.
//!
//! A counting global allocator measures two identical
//! [`DataGrid::replay_concurrent`] runs on the same grid. The first run
//! sizes every reusable structure (dispatch maps, candidate buffer, score
//! scratch, engine slab); the second must (a) allocate strictly less —
//! proof the buffers are actually reused — and (b) allocate at a rate
//! bounded by *jobs*, not *events*: with recording disabled, steady-state
//! event dispatch (flow progress, session timers, probe bookkeeping) is
//! allocation-free, so total allocations stay a small multiple of the job
//! count no matter how many events the replay pumps.
//!
//! A second case pins the monitor-tick refresh the replay driver runs for
//! every transferring session: once warm, refreshing running sessions'
//! stream caps and applying them as one batch allocates nothing.
//!
//! A third pins a warmed [`DataGrid::score_candidates_into`] cache hit:
//! it reuses the caller's buffer, so it allocates only the three owned
//! strings each candidate carries.
//!
//! The allocator lives here (an integration test is its own crate root)
//! because every library crate carries `#![forbid(unsafe_code)]`.

#![allow(
    unsafe_code,
    clippy::unwrap_used,
    reason = "a counting GlobalAlloc is unsafe, fixtures unwrap; outside library scope"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use datagrid_core::grid::{DataGrid, FetchOptions, GridBuilder};
use datagrid_core::recovery::RecoveryOptions;
use datagrid_core::ReplayJob;
use datagrid_gridftp::executor::{SessionStatus, TransferSession};
use datagrid_gridftp::transfer::TransferRequest;
use datagrid_simnet::prelude::*;
use datagrid_sysmon::host::HostId;
use datagrid_sysmon::host::HostSpec;
use datagrid_sysmon::load::LoadModel;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. Per-thread, not global:
    /// the test harness runs tests on parallel threads, and each test
    /// must see only its own allocations. `const`-initialised with no
    /// destructor, so bumping it never allocates or registers anything.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// `client` behind a switch, with `file-a` (24 MiB) on a fast and a slow
/// replica host; recording and network validation are off and the
/// sensors are warm.
fn two_replica_grid() -> DataGrid {
    let mut b = GridBuilder::new(41);
    let client = b.add_host(
        HostSpec::new("client").with_cpu(2, 2.0),
        LoadModel::Constant(0.1),
        LoadModel::Constant(0.1),
    );
    let fast = b.add_host(
        HostSpec::new("fast").with_cpu(1, 2.8),
        LoadModel::Constant(0.2),
        LoadModel::Constant(0.1),
    );
    let slow = b.add_host(
        HostSpec::new("slow").with_cpu(1, 0.9),
        LoadModel::Constant(0.4),
        LoadModel::Constant(0.3),
    );
    let sw = b.add_switch("switch");
    let ms = SimDuration::from_millis;
    b.topology_mut()
        .add_duplex_link(client, sw, LinkSpec::new(Bandwidth::from_gbps(1.0), ms(1)));
    b.topology_mut()
        .add_duplex_link(fast, sw, LinkSpec::new(Bandwidth::from_mbps(100.0), ms(4)));
    b.topology_mut()
        .add_duplex_link(slow, sw, LinkSpec::new(Bandwidth::from_mbps(50.0), ms(10)));
    b.monitor_all_host_pairs();
    let mut grid = b.build();
    // Steady-state claim: no event history, no audit, no timeline.
    grid.recorder_mut().set_enabled(false);
    grid.set_network_validation(false);
    grid.catalog_mut()
        .register_logical("file-a".parse().unwrap(), 24 << 20)
        .unwrap();
    grid.place_replica("file-a", "fast").unwrap();
    grid.place_replica("file-a", "slow").unwrap();
    grid.warm_up(SimDuration::from_secs(120));
    grid
}

#[test]
fn replay_allocations_scale_with_jobs_not_events() {
    let mut grid = two_replica_grid();
    let client_id = grid.host_id("client").unwrap();
    let jobs: Vec<ReplayJob> = (0..24)
        .map(|i| ReplayJob {
            at: grid.now() + SimDuration::from_millis(200 * i),
            client: client_id,
            lfn: "file-a".to_string(),
        })
        .collect();

    // Warm-up run: sizes the dispatch maps, candidate buffer and slab.
    let e0 = grid.network().stats().events_processed;
    let a0 = allocs();
    let report = grid
        .replay_concurrent(&jobs, FetchOptions::default(), &RecoveryOptions::default())
        .unwrap();
    assert_eq!(report.completed(), jobs.len());
    let warm_allocs = allocs() - a0;
    let warm_events = grid.network().stats().events_processed - e0;

    // Measured run: identical workload on the warmed grid.
    let e1 = grid.network().stats().events_processed;
    let a1 = allocs();
    let report = grid
        .replay_concurrent(&jobs, FetchOptions::default(), &RecoveryOptions::default())
        .unwrap();
    assert_eq!(report.completed(), jobs.len());
    let steady_allocs = allocs() - a1;
    let steady_events = grid.network().stats().events_processed - e1;

    assert!(
        steady_allocs < warm_allocs,
        "second replay must reuse warmed buffers: {steady_allocs} vs {warm_allocs}"
    );
    assert!(
        steady_events > 10 * jobs.len() as u64,
        "workload too small to distinguish per-event from per-job costs \
         ({steady_events} events, {warm_events} in warm-up)"
    );
    // Irreducible per-job work (outcome records, session boxes, ranked
    // candidate materialisation, control-timer bookkeeping) is bounded by
    // a constant per job; everything per-event is allocation-free. The
    // factor is deliberately generous — the regression this guards against
    // (an allocation on the event path) multiplies allocations by the
    // event count, blowing straight through it.
    let budget = 64 * jobs.len() as u64;
    assert!(
        steady_allocs <= budget,
        "steady replay allocated {steady_allocs} times for {} jobs / {steady_events} events \
         (budget {budget}); something is allocating per event",
        jobs.len()
    );
}

/// Refreshes every session's endpoints from the grid's current host state
/// and applies the resulting caps as one batch — the replay driver's
/// monitor-tick refresh.
fn refresh_tick(
    grid: &DataGrid,
    sim: &mut NetSim,
    sessions: &mut [(HostId, TransferSession)],
    client: HostId,
    caps: &mut Vec<(FlowId, Bandwidth)>,
) {
    caps.clear();
    for (src, session) in sessions.iter_mut() {
        let fresh = [grid.endpoint_for(*src)];
        session.refresh_endpoints(sim, &fresh, grid.endpoint_for(client), caps);
    }
    sim.set_flow_caps(caps);
}

#[test]
fn warmed_monitor_tick_refresh_allocates_nothing() {
    // AR(1) loads with noise move every host's disk and CPU headroom, and
    // so every stream cap, on every monitor tick: the batch is never
    // empty and never all-unchanged.
    let busy = |mean: f64| LoadModel::Ar1 {
        mean,
        phi: 0.5,
        sigma: 0.1,
    };
    let mut b = GridBuilder::new(43);
    let client = b.add_host(
        HostSpec::new("client").with_cpu(2, 2.0),
        busy(0.3),
        busy(0.3),
    );
    let fast = b.add_host(HostSpec::new("fast").with_cpu(1, 2.8), busy(0.4), busy(0.5));
    let slow = b.add_host(HostSpec::new("slow").with_cpu(1, 0.9), busy(0.5), busy(0.6));
    let sw = b.add_switch("switch");
    let ms = SimDuration::from_millis;
    b.topology_mut()
        .add_duplex_link(client, sw, LinkSpec::new(Bandwidth::from_gbps(1.0), ms(1)));
    b.topology_mut()
        .add_duplex_link(fast, sw, LinkSpec::new(Bandwidth::from_mbps(100.0), ms(4)));
    b.topology_mut()
        .add_duplex_link(slow, sw, LinkSpec::new(Bandwidth::from_mbps(50.0), ms(10)));
    let mut grid = b.build();
    grid.recorder_mut().set_enabled(false);
    grid.warm_up(SimDuration::from_secs(30));
    let [client, fast, slow] = ["client", "fast", "slow"].map(|n| grid.host_id(n).unwrap());

    // The sessions run on a copy of the grid's network, so the test owns
    // their event loop while the grid's own loop advances host loads.
    let mut sim = NetSim::new(grid.network().topology().clone(), 7);
    sim.set_validation(false);
    sim.set_auto_shrink(false);
    let mut sessions: Vec<(HostId, TransferSession)> = [fast, slow, fast, slow]
        .into_iter()
        .enumerate()
        .map(|(i, src)| {
            let tcp = grid
                .tcp_for(grid.node_of(src), grid.node_of(client))
                .expect("the testbed is connected");
            let mut session = TransferSession::new(
                TransferRequest::new(1 << 32).with_parallelism(4),
                grid.endpoint_for(src),
                grid.endpoint_for(client),
                tcp,
                (1 << 33) + i as u64 * TransferSession::TOKENS_PER_SESSION,
            )
            .unwrap();
            session.start(&mut sim);
            (src, session)
        })
        .collect();
    // Run the control phases until every session is moving data.
    while sessions
        .iter()
        .any(|(_, s)| s.active_flow_ids().next().is_none())
    {
        let ev = sim.next_event().expect("sessions keep the queue busy");
        for (_, session) in &mut sessions {
            if session.owns(&ev) {
                let status = session.handle(&mut sim, &ev);
                assert!(matches!(status, SessionStatus::InProgress));
            }
        }
    }
    let streams: usize = sessions
        .iter()
        .map(|(_, s)| s.active_flow_ids().count())
        .sum();
    assert_eq!(streams, 16);

    // Warm-up tick: sizes the caller's batch buffer and the engine's
    // changed-cap scratch.
    let mut caps = Vec::new();
    grid.warm_up(SimDuration::from_secs(10));
    refresh_tick(&grid, &mut sim, &mut sessions, client, &mut caps);

    // Measured tick: fresh host loads, same sessions.
    grid.warm_up(SimDuration::from_secs(10));
    let solves_before = sim.stats().incremental_solves;
    let a0 = allocs();
    refresh_tick(&grid, &mut sim, &mut sessions, client, &mut caps);
    let tick_allocs = allocs() - a0;
    let solves = sim.stats().incremental_solves - solves_before;

    assert_eq!(caps.len(), streams, "every running stream is refreshed");
    // Every stream crosses the client's access link: one component, so a
    // tick that changes any cap costs exactly one solve.
    assert_eq!(
        solves, 1,
        "the tick's caps must change, in one batched solve"
    );
    assert_eq!(
        tick_allocs, 0,
        "a warmed monitor-tick refresh must not allocate (saw {tick_allocs} allocations)"
    );
}

#[test]
fn warmed_score_cache_hit_allocates_only_candidate_strings() {
    let grid = two_replica_grid();
    let client = grid.host_id("client").unwrap();
    let mut out = Vec::new();
    // The first query fills the client's cache slot and sizes `out`.
    grid.score_candidates_into(client, "file-a", &mut out)
        .unwrap();
    let (hits, _) = grid.score_scratch_stats();

    let a0 = allocs();
    grid.score_candidates_into(client, "file-a", &mut out)
        .unwrap();
    let hit_allocs = allocs() - a0;

    assert_eq!(
        grid.score_scratch_stats().0,
        hits + 1,
        "second query must hit"
    );
    assert_eq!(out.len(), 2);
    // `ScoreEntry::materialize_into` clones `host_name` and `location`
    // per candidate, and a location owns two strings (host and path); the
    // candidate list itself reuses `out`'s capacity.
    assert!(
        hit_allocs <= 3 * out.len() as u64,
        "cache hit made {hit_allocs} allocations for {} candidates",
        out.len()
    );
}
