//! Cohort batching must be invisible: over random topologies, flow
//! populations, and fault schedules, the batched engine (one solver pass
//! per same-instant event cohort) and the per-event engine
//! (`set_event_batching(false)`) must emit byte-identical public event
//! streams and agree on every counter except the solver-pass bookkeeping
//! the batching exists to change. The same holds for batched cap updates
//! ([`NetSim::set_flow_caps`]: one solve per touched component against
//! one solve per changed cap), applied mid-run as monitor ticks do.

use datagrid_simnet::fault::FaultPlan;
use datagrid_simnet::prelude::*;
use proptest::prelude::*;

/// Builds a dumbbell: srcs -- hub1 -- hub2 -- dsts, with a random-width
/// middle link so different cases stress different contention regimes.
/// Returns every directed link so fault schedules can target the lot.
#[allow(clippy::type_complexity)]
fn dumbbell(
    src_count: usize,
    dst_count: usize,
    middle_mbps: f64,
) -> (Topology, Vec<NodeId>, Vec<NodeId>, Vec<LinkId>) {
    let mut topo = Topology::new();
    let mut links = Vec::new();
    let hub1 = topo.add_node("hub1");
    let hub2 = topo.add_node("hub2");
    let (f, r) = topo.add_duplex_link(
        hub1,
        hub2,
        LinkSpec::new(
            Bandwidth::from_mbps(middle_mbps),
            SimDuration::from_millis(5),
        ),
    );
    links.extend([f, r]);
    let edge = || LinkSpec::new(Bandwidth::from_mbps(1000.0), SimDuration::from_millis(1));
    let srcs: Vec<NodeId> = (0..src_count)
        .map(|i| {
            let n = topo.add_node(format!("s{i}"));
            let (f, r) = topo.add_duplex_link(n, hub1, edge());
            links.extend([f, r]);
            n
        })
        .collect();
    let dsts: Vec<NodeId> = (0..dst_count)
        .map(|i| {
            let n = topo.add_node(format!("d{i}"));
            let (f, r) = topo.add_duplex_link(n, hub2, edge());
            links.extend([f, r]);
            n
        })
        .collect();
    (topo, srcs, dsts, links)
}

/// Runs one engine to exhaustion and renders its public event stream as
/// one line per event — the byte-level artifact the equivalence claim is
/// about.
fn drain_log(sim: &mut NetSim) -> String {
    let mut log = String::new();
    while let Some(ev) = sim.next_event() {
        log.push_str(&format!("{:?} {:?}\n", ev.time, ev.kind));
    }
    log
}

/// Like [`drain_log`], but applies `steps[i].1` with one
/// [`NetSim::set_flow_caps`] call right after the `steps[i].0`-th public
/// event (steps sorted by event index). Also returns how many steps ran.
fn drain_log_with_caps(
    sim: &mut NetSim,
    steps: &[(usize, Vec<(FlowId, Bandwidth)>)],
) -> (String, usize) {
    let mut log = String::new();
    let mut seen = 0;
    let mut applied = 0;
    let mut next = steps.iter().peekable();
    while let Some(ev) = sim.next_event() {
        log.push_str(&format!("{:?} {:?}\n", ev.time, ev.kind));
        seen += 1;
        while let Some((_, caps)) = next.next_if(|(at, _)| *at < seen) {
            sim.set_flow_caps(caps);
            applied += 1;
        }
    }
    (log, applied)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same topology, same flows (several same-instant cohorts by
    /// construction), same fault schedule: the public event streams must
    /// be byte-identical with batching on and off, and every stat except
    /// the solver-pass counters must agree.
    #[test]
    fn batched_and_per_event_engines_emit_identical_streams(
        seed in 0u64..1_000_000,
        sizes in proptest::collection::vec(100_000u64..3_000_000, 4..24),
        middle_mbps in 20.0f64..300.0,
        srcs in 2usize..5,
        dsts in 2usize..5,
        flap_rate in 0.0f64..0.4,
        cap_frac in 0.0f64..0.5,
        picks in proptest::collection::vec((0usize..24, 5.0f64..400.0), 1..12),
    ) {
        let build = |batching: bool| {
            let (topo, s, d, links) = dumbbell(srcs, dsts, middle_mbps);
            let mut sim = NetSim::new(topo, seed);
            sim.set_event_batching(batching);
            if flap_rate > 0.01 {
                let mut frng = SimRng::seed_from_u64(seed ^ 0xFA017);
                sim.install_fault_plan(FaultPlan::random_link_flaps(
                    &mut frng,
                    &links,
                    SimDuration::from_secs(120),
                    flap_rate,
                    SimDuration::from_secs(2),
                ));
            }
            let mut rng = SimRng::seed_from_u64(seed);
            let mut ids = Vec::new();
            for (i, &size) in sizes.iter().enumerate() {
                let src = s[rng.below(s.len() as u64) as usize];
                let dst = d[rng.below(d.len() as u64) as usize];
                // Duplicate every third size so several flows share both
                // start instant and (often) completion instant — real
                // same-instant cohorts, not just the t=0 burst.
                let size = if i % 3 == 0 { size - (size % 1000) } else { size };
                ids.push(sim.start_flow(FlowSpec::new(src, dst, size)));
            }
            (sim, ids)
        };

        // Batched cap updates, mid-run: the first step caps a random
        // subset; the second re-sends every other one of those caps
        // unchanged, changes the rest, and by then some picked flows have
        // finished, so their ids must be ignored.
        let (mut batched, ids) = build(true);
        let (mut per_event, _) = build(false);
        let first: Vec<(FlowId, Bandwidth)> = picks
            .iter()
            .map(|&(i, mbps)| (ids[i % ids.len()], Bandwidth::from_mbps(mbps)))
            .collect();
        let second: Vec<(FlowId, Bandwidth)> = first
            .iter()
            .enumerate()
            .map(|(k, &(id, cap))| {
                if k % 2 == 0 {
                    (id, cap)
                } else {
                    (id, Bandwidth::from_bps(cap.as_bps() * 0.5))
                }
            })
            .collect();
        // Both steps land before the last flow completes.
        let cap_at = (cap_frac * sizes.len() as f64) as usize;
        let steps = [(cap_at, first), (cap_at + sizes.len() / 4, second)];
        let (log_a, applied) = drain_log_with_caps(&mut batched, &steps);
        let (log_b, _) = drain_log_with_caps(&mut per_event, &steps);
        prop_assert_eq!(applied, 2);
        prop_assert_eq!(log_a, log_b, "public event streams diverged under cap updates");
        let a = batched.stats();
        let b = per_event.stats();
        prop_assert_eq!(a.flows_completed, b.flows_completed);
        prop_assert_eq!(a.bytes_completed, b.bytes_completed);
        prop_assert_eq!(a.flows_dropped, b.flows_dropped);
        prop_assert_eq!(b.solves_avoided, 0);
        prop_assert_eq!(
            (b.incremental_solves + b.full_solves) - (a.incremental_solves + a.full_solves),
            a.solves_avoided,
            "every avoided solve must be accounted for"
        );

        let (mut batched, _) = build(true);
        let (mut per_event, _) = build(false);
        let log_a = drain_log(&mut batched);
        let log_b = drain_log(&mut per_event);
        prop_assert_eq!(log_a, log_b, "public event streams diverged");

        let a = batched.stats();
        let b = per_event.stats();
        prop_assert_eq!(a.events_processed, b.events_processed);
        prop_assert_eq!(a.flows_started, b.flows_started);
        prop_assert_eq!(a.flows_completed, b.flows_completed);
        prop_assert_eq!(a.bytes_completed, b.bytes_completed);
        prop_assert_eq!(a.fault_transitions, b.fault_transitions);
        prop_assert_eq!(a.flows_dropped, b.flows_dropped);
        // The whole point of batching: never more solver passes than the
        // per-event engine, and the per-event engine never batches.
        prop_assert_eq!(b.solves_avoided, 0);
        prop_assert_eq!(b.batched_solves, 0);
        prop_assert!(
            a.incremental_solves + a.full_solves <= b.incremental_solves + b.full_solves,
            "batching increased solver passes: {} vs {}",
            a.incremental_solves + a.full_solves,
            b.incremental_solves + b.full_solves
        );
    }
}
