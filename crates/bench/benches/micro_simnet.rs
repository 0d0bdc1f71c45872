//! Criterion micro-benchmarks of the network simulator core.

#![allow(
    clippy::cast_possible_truncation,
    reason = "benchmark harness; outside library scope"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use datagrid_simnet::flow::{max_min_allocation, FlowDemand};
use datagrid_simnet::prelude::*;
use std::hint::black_box;

fn bench_solver(c: &mut Criterion) {
    // 100 flows over random contiguous segments of a 20-link line.
    let caps: Vec<f64> = (0..20).map(|i| 50.0 + 10.0 * i as f64).collect();
    let mut rng = SimRng::seed_from_u64(1);
    let mut topo = Topology::new();
    let nodes: Vec<NodeId> = (0..21).map(|i| topo.add_node(format!("n{i}"))).collect();
    let mut links = Vec::new();
    for (i, w) in nodes.windows(2).enumerate() {
        let (f, _) = topo.add_duplex_link(
            w[0],
            w[1],
            LinkSpec::new(Bandwidth::from_bps(caps[i]), SimDuration::from_millis(1)),
        );
        links.push(f);
    }
    let segment_routes: Vec<Vec<LinkId>> = (0..100)
        .map(|_| {
            let start = rng.below(15) as usize;
            let len = 1 + rng.below(5) as usize;
            links[start..(start + len).min(links.len())].to_vec()
        })
        .collect();
    let link_caps: Vec<f64> = {
        // capacity vector must be indexable by link id over ALL links
        (0..topo.link_count()).map(|_| 100.0).collect()
    };

    c.bench_function("simnet/max_min_100_flows", |b| {
        b.iter(|| {
            let demands: Vec<FlowDemand<'_>> = segment_routes
                .iter()
                .map(|r| FlowDemand {
                    route: r,
                    cap_bps: f64::INFINITY,
                })
                .collect();
            black_box(max_min_allocation(&demands, &link_caps))
        });
    });
}

fn bench_engine_churn(c: &mut Criterion) {
    c.bench_function("simnet/1000_flow_churn", |b| {
        b.iter(|| {
            let mut topo = Topology::new();
            let a = topo.add_node("a");
            let bnode = topo.add_node("b");
            topo.add_duplex_link(
                a,
                bnode,
                LinkSpec::new(Bandwidth::from_mbps(100.0), SimDuration::from_millis(1)),
            );
            let mut sim = NetSim::new(topo, 7);
            for i in 0..1000u64 {
                sim.start_flow(FlowSpec::new(a, bnode, 10_000 + i));
            }
            let mut done = 0;
            while let Some(ev) = sim.next_event() {
                if matches!(ev.kind, EventKind::FlowCompleted(_)) {
                    done += 1;
                }
            }
            black_box(done)
        });
    });
}

criterion_group!(benches, bench_solver, bench_engine_churn);
criterion_main!(benches);
