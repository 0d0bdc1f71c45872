//! Property-based tests over the public API (proptest).

#![allow(
    clippy::cast_possible_truncation,
    reason = "test helpers; outside library scope"
)]

use datagrid::catalog::prelude::*;
use datagrid::core::cost::{CostModel, Weights};
use datagrid::core::factors::SystemFactors;
use datagrid::gridftp::mode::TransferMode;
use datagrid::simnet::flow::{max_min_allocation, FlowDemand};
use datagrid::simnet::prelude::*;
use proptest::prelude::*;

proptest! {
    /// The max-min solver never over-allocates a link, never exceeds a
    /// flow's cap, and leaves every flow either capped or bottlenecked.
    #[test]
    fn max_min_allocation_is_feasible_and_pareto(
        caps in proptest::collection::vec(1.0f64..1000.0, 1..8),
        flow_specs in proptest::collection::vec(
            (0usize..8, 1usize..4, prop_oneof![Just(f64::INFINITY), 1.0f64..500.0]),
            1..24,
        ),
    ) {
        // Build a line topology with `caps.len()` duplex links so routes are
        // valid contiguous segments.
        let mut topo = Topology::new();
        let nodes: Vec<NodeId> = (0..=caps.len())
            .map(|i| topo.add_node(format!("n{i}")))
            .collect();
        let mut links = Vec::new();
        for (i, cap) in caps.iter().enumerate() {
            let (fwd, _) = topo.add_duplex_link(
                nodes[i],
                nodes[i + 1],
                LinkSpec::new(Bandwidth::from_bps(*cap), SimDuration::from_millis(1)),
            );
            links.push(fwd);
        }
        let routes: Vec<Vec<LinkId>> = flow_specs
            .iter()
            .map(|(start, len, _)| {
                let s = start % caps.len();
                let e = (s + len).min(caps.len());
                links[s..e].to_vec()
            })
            .collect();
        // Capacity indexed by link id: duplex created 2 links per cap.
        let link_caps: Vec<f64> = (0..topo.link_count())
            .map(|i| caps[i / 2])
            .collect();
        let demands: Vec<FlowDemand<'_>> = routes
            .iter()
            .zip(&flow_specs)
            .map(|(r, (_, _, cap))| FlowDemand { route: r, cap_bps: *cap })
            .collect();

        let rates = max_min_allocation(&demands, &link_caps);
        prop_assert_eq!(rates.len(), demands.len());

        // Feasibility per link.
        for (li, &cap) in link_caps.iter().enumerate() {
            let used: f64 = demands
                .iter()
                .zip(&rates)
                .filter(|(d, _)| d.route.iter().any(|l| l.index() == li))
                .map(|(_, r)| *r)
                .sum();
            prop_assert!(used <= cap * (1.0 + 1e-6), "link {} used {} > {}", li, used, cap);
        }
        // Cap respected + bottleneck (Pareto) property.
        for (d, &r) in demands.iter().zip(&rates) {
            prop_assert!(r <= d.cap_bps * (1.0 + 1e-9) + 1e-9);
            let at_cap = d.cap_bps.is_finite() && (r - d.cap_bps).abs() < 1e-6;
            let bottlenecked = d.route.iter().any(|l| {
                let used: f64 = demands
                    .iter()
                    .zip(&rates)
                    .filter(|(e, _)| e.route.contains(l))
                    .map(|(_, x)| *x)
                    .sum();
                used >= link_caps[l.index()] * (1.0 - 1e-6)
            });
            prop_assert!(at_cap || bottlenecked || d.route.is_empty());
        }
    }

    /// The cost model is monotone in every factor and bounded in [0, 1].
    #[test]
    fn cost_model_monotone_and_bounded(
        bw in 0.0f64..1.0, cpu in 0.0f64..1.0, io in 0.0f64..1.0,
        dbw in 0.0f64..0.5,
        wb in 0.01f64..10.0, wc in 0.01f64..10.0, wi in 0.01f64..10.0,
    ) {
        let model = CostModel::new(Weights::normalized(wb, wc, wi));
        let base = model.score(&SystemFactors::new(bw, cpu, io));
        prop_assert!((0.0..=1.0).contains(&base));
        let better = model.score(&SystemFactors::new((bw + dbw).min(1.0), cpu, io));
        prop_assert!(better >= base - 1e-12);
    }

    /// MODE E wire bytes always cover the payload with bounded overhead,
    /// and stream splitting conserves bytes.
    #[test]
    fn mode_e_framing_invariants(
        payload in 0u64..(1 << 32),
        block in 1u32..(1 << 20),
        streams in 1u32..64,
    ) {
        let mode = TransferMode::Extended { block_size: block };
        let wire = mode.wire_bytes(payload);
        prop_assert!(wire >= payload + 17); // at least the EOD block
        // Overhead bounded by one header per block plus EOD.
        let blocks = payload.div_ceil(u64::from(block));
        prop_assert_eq!(wire, payload + 17 * (blocks + 1));

        let parts = TransferMode::split_across_streams(payload, streams);
        prop_assert_eq!(parts.len(), streams as usize);
        prop_assert_eq!(parts.iter().sum::<u64>(), payload);
        let min = parts.iter().min().unwrap();
        let max = parts.iter().max().unwrap();
        prop_assert!(max - min <= 1, "even split: {} vs {}", min, max);
    }

    /// Logical file names round-trip through display/parse whenever they
    /// validate.
    #[test]
    fn lfn_round_trip(name in "[a-zA-Z0-9._-]{1,40}(/[a-zA-Z0-9._-]{1,10}){0,3}") {
        let lfn = LogicalFileName::new(name.clone());
        prop_assert!(lfn.is_ok(), "{name} should be valid");
        let lfn = lfn.unwrap();
        let back: LogicalFileName = lfn.to_string().parse().unwrap();
        prop_assert_eq!(back, lfn);
    }

    /// PFN URLs round-trip.
    #[test]
    fn pfn_round_trip(
        host in "[a-z0-9][a-z0-9.-]{0,20}",
        path in "(/[a-zA-Z0-9._-]{1,12}){1,4}",
    ) {
        let pfn = PhysicalFileName::new(host, path).unwrap();
        let back: PhysicalFileName = pfn.to_string().parse().unwrap();
        prop_assert_eq!(back, pfn);
    }

    /// Catalog add/remove keeps replica counts consistent and never loses
    /// the last copy.
    #[test]
    fn catalog_replica_counting(hosts in proptest::collection::vec("[a-z]{3,8}", 1..8)) {
        let mut cat = ReplicaCatalog::new();
        let lfn: LogicalFileName = "prop-file".parse().unwrap();
        cat.register_logical(lfn.clone(), 1).unwrap();
        let mut unique = hosts.clone();
        unique.sort();
        unique.dedup();
        for h in &unique {
            cat.add_replica(&lfn, format!("gsiftp://{h}/d/f").parse().unwrap()).unwrap();
        }
        prop_assert_eq!(cat.replicas(&lfn).unwrap().len(), unique.len());
        // Remove all but one.
        for h in &unique[1..] {
            cat.remove_replica(&lfn, &format!("gsiftp://{h}/d/f").parse().unwrap()).unwrap();
        }
        prop_assert_eq!(cat.replicas(&lfn).unwrap().len(), 1);
        let err = cat.remove_replica(
            &lfn,
            &format!("gsiftp://{}/d/f", unique[0]).parse().unwrap(),
        );
        let is_last_replica = matches!(err, Err(CatalogError::LastReplica { .. }));
        prop_assert!(is_last_replica);
    }

    /// TCP: more loss or more RTT never increases the steady rate.
    #[test]
    fn tcp_rate_monotonic(
        rtt_ms in 1u64..500,
        loss in 1e-5f64..0.1,
        factor in 1.1f64..5.0,
    ) {
        let tcp = TcpParams::new(1 << 20, loss);
        let r0 = tcp.steady_rate(SimDuration::from_millis(rtt_ms));
        let r_rtt = tcp.steady_rate(SimDuration::from_millis(
            (rtt_ms as f64 * factor) as u64 + 1,
        ));
        prop_assert!(r_rtt <= r0);
        let lossier = TcpParams::new(1 << 20, (loss * factor).min(0.9));
        let r_loss = lossier.steady_rate(SimDuration::from_millis(rtt_ms));
        prop_assert!(r_loss <= r0);
    }
}
