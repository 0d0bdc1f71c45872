//! Property-based tests of the simulation engine's global invariants.

#![allow(
    clippy::cast_possible_truncation,
    clippy::disallowed_methods,
    reason = "test helpers; outside library scope"
)]

use datagrid_simnet::prelude::*;
use proptest::prelude::*;

/// Builds a dumbbell: srcs -- hub1 -- hub2 -- dsts.
fn dumbbell(
    src_count: usize,
    dst_count: usize,
    middle_mbps: f64,
) -> (Topology, Vec<NodeId>, Vec<NodeId>) {
    let mut topo = Topology::new();
    let hub1 = topo.add_node("hub1");
    let hub2 = topo.add_node("hub2");
    topo.add_duplex_link(
        hub1,
        hub2,
        LinkSpec::new(
            Bandwidth::from_mbps(middle_mbps),
            SimDuration::from_millis(5),
        ),
    );
    let srcs: Vec<NodeId> = (0..src_count)
        .map(|i| {
            let n = topo.add_node(format!("s{i}"));
            topo.add_duplex_link(
                n,
                hub1,
                LinkSpec::new(Bandwidth::from_mbps(1000.0), SimDuration::from_millis(1)),
            );
            n
        })
        .collect();
    let dsts: Vec<NodeId> = (0..dst_count)
        .map(|i| {
            let n = topo.add_node(format!("d{i}"));
            topo.add_duplex_link(
                n,
                hub2,
                LinkSpec::new(Bandwidth::from_mbps(1000.0), SimDuration::from_millis(1)),
            );
            n
        })
        .collect();
    (topo, srcs, dsts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every started flow completes exactly once, bytes are conserved, and
    /// completion times are consistent with the bottleneck capacity.
    #[test]
    fn flows_complete_exactly_once_with_byte_conservation(
        sizes in proptest::collection::vec(1_000u64..5_000_000, 1..20),
        middle_mbps in 10.0f64..200.0,
        seed in 0u64..1000,
    ) {
        let (topo, srcs, dsts) = dumbbell(3, 3, middle_mbps);
        let mut sim = NetSim::new(topo, seed);
        let mut rng = SimRng::seed_from_u64(seed);
        let mut expected = std::collections::HashMap::new();
        for &size in &sizes {
            let s = srcs[rng.below(3) as usize];
            let d = dsts[rng.below(3) as usize];
            let id = sim.start_flow(FlowSpec::new(s, d, size));
            expected.insert(id, size);
        }
        let total: u64 = sizes.iter().sum();
        let mut seen = std::collections::HashMap::new();
        let mut last_time = SimTime::ZERO;
        while let Some(ev) = sim.next_event() {
            prop_assert!(ev.time >= last_time, "time went backwards");
            last_time = ev.time;
            if let EventKind::FlowCompleted(done) = ev.kind {
                prop_assert!(seen.insert(done.id, done.bytes).is_none(), "double completion");
                prop_assert_eq!(expected.get(&done.id), Some(&done.bytes));
            }
        }
        prop_assert_eq!(seen.len(), sizes.len());
        let delivered: u64 = seen.values().sum();
        prop_assert_eq!(delivered, total);

        // The whole batch cannot finish faster than the bottleneck allows.
        let min_secs = total as f64 * 8.0 / (middle_mbps * 1e6);
        prop_assert!(
            last_time.as_secs_f64() >= min_secs * 0.99,
            "batch finished impossibly fast: {} < {}",
            last_time.as_secs_f64(),
            min_secs
        );
    }

    /// Rates never exceed per-flow caps at any observation instant.
    #[test]
    fn instantaneous_rates_respect_caps(
        cap_mbps in 1.0f64..500.0,
        seed in 0u64..1000,
    ) {
        let (topo, srcs, dsts) = dumbbell(2, 2, 100.0);
        let mut sim = NetSim::new(topo, seed);
        let id = sim.start_flow(
            FlowSpec::new(srcs[0], dsts[0], 50_000_000).with_cap(Bandwidth::from_mbps(cap_mbps)),
        );
        let _ = sim.start_flow(FlowSpec::new(srcs[1], dsts[1], 10_000_000));
        // Observe at several instants.
        for step in 1..5u64 {
            sim.schedule_timer(SimTime::from_nanos(step * 50_000_000), step);
        }
        while let Some(ev) = sim.next_event() {
            if matches!(ev.kind, EventKind::TimerFired(_)) {
                if let Some(rate) = sim.flow_rate(id) {
                    prop_assert!(
                        rate.as_mbps() <= cap_mbps * (1.0 + 1e-9) + 1e-9,
                        "rate {} exceeds cap {}",
                        rate.as_mbps(),
                        cap_mbps
                    );
                    prop_assert!(rate.as_mbps() <= 100.0 * (1.0 + 1e-9));
                }
            }
        }
    }

    /// Identical seeds produce identical event streams even with
    /// background traffic.
    #[test]
    fn timeline_determinism_under_background(seed in 0u64..500) {
        let run = || {
            let (topo, srcs, dsts) = dumbbell(2, 2, 50.0);
            let mut sim = NetSim::new(topo, seed);
            sim.add_background(BackgroundProfile::new(srcs[1], dsts[1], 1.0, 500_000.0));
            sim.start_flow(FlowSpec::new(srcs[0], dsts[0], 20_000_000));
            let mut out = Vec::new();
            while let Some(ev) = sim.next_event() {
                if let EventKind::FlowCompleted(d) = ev.kind {
                    out.push((ev.time.as_nanos(), d.bytes));
                }
            }
            out
        };
        prop_assert_eq!(run(), run());
    }
}
