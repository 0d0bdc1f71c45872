//! Property: the incremental component solver is equivalent to the
//! from-scratch max-min allocation.
//!
//! Runs the same randomized scenario — topology, flow population and fault
//! schedule — through two engines that differ only in [`SolverMode`]:
//! `Full` re-solves the whole network from scratch on every perturbation
//! (the original engine behaviour, i.e. `max_min_allocation` over all
//! links), `Incremental` re-solves only the perturbed connected component
//! via the per-link flow index. Every observable — completion times and
//! byte counts, fault transitions, and instantaneous per-flow rates
//! sampled at timer instants — must agree within 1e-9 relative tolerance.
//! (Within a single component the two are bit-identical; the tolerance
//! absorbs ulp-scale differences in how progressive filling partitions
//! deltas when several components coexist.)

#![allow(
    clippy::cast_possible_truncation,
    clippy::iter_over_hash_type,
    reason = "test helpers; outside library scope"
)]

use std::collections::HashMap;

use datagrid_simnet::prelude::*;
use proptest::prelude::*;

const REL_TOL: f64 = 1e-9;

/// Sampling instants (odd millisecond offsets so they essentially never
/// tie with a completion or fault transition, which would make the
/// same-instant event order observable).
const SAMPLES_MS: [u64; 6] = [37, 311, 1_213, 3_407, 7_919, 16_127];

/// A randomized scenario, built deterministically from scalar parameters
/// so both engines see exactly the same world.
struct Scenario {
    topo: Topology,
    flows: Vec<(NodeId, NodeId, u64)>,
    plan: FaultPlan,
}

fn build_scenario(seed: u64, clusters: usize, hosts: usize, n_flows: usize) -> Scenario {
    let mut rng = SimRng::seed_from_u64(seed ^ 0xE0_01);
    let mut topo = Topology::new();
    let backbone = topo.add_node("backbone");
    let mut spoke_links = Vec::new();
    let mut cluster_hosts: Vec<Vec<NodeId>> = Vec::new();
    for c in 0..clusters {
        let hub = topo.add_node(format!("hub{c}"));
        let (up, _) = topo.add_duplex_link(
            hub,
            backbone,
            LinkSpec::new(
                Bandwidth::from_mbps(rng.uniform(50.0, 400.0)),
                SimDuration::from_millis(5),
            ),
        );
        spoke_links.push(up);
        let mut members = Vec::new();
        for h in 0..hosts {
            let node = topo.add_node(format!("c{c}h{h}"));
            let (link, _) = topo.add_duplex_link(
                node,
                hub,
                LinkSpec::new(
                    Bandwidth::from_mbps(rng.uniform(20.0, 500.0)),
                    SimDuration::from_millis(1),
                ),
            );
            spoke_links.push(link);
            members.push(node);
        }
        cluster_hosts.push(members);
    }

    // A mix of intra-cluster flows (disjoint components) and cross-cluster
    // flows (coupled through the backbone), so components merge and split
    // as flows come and go.
    let mut flows = Vec::new();
    for _ in 0..n_flows {
        let ca = rng.below(clusters as u64) as usize;
        let cb = if rng.below(2) == 0 {
            ca
        } else {
            rng.below(clusters as u64) as usize
        };
        let src = cluster_hosts[ca][rng.below(hosts as u64) as usize];
        let mut dst = cluster_hosts[cb][rng.below(hosts as u64) as usize];
        if dst == src {
            dst = cluster_hosts[(cb + 1) % clusters][0];
        }
        let bytes = 1_000_000 + rng.below(30_000_000);
        flows.push((src, dst, bytes));
    }

    // Fault schedule: random link flaps on two spokes plus one host
    // degradation, all inside a bounded horizon so stalled flows resume.
    let flap_a = spoke_links[rng.below(spoke_links.len() as u64) as usize];
    let flap_b = spoke_links[rng.below(spoke_links.len() as u64) as usize];
    let mut plan = FaultPlan::random_link_flaps(
        &mut rng,
        &[flap_a, flap_b],
        SimDuration::from_secs(20),
        0.2,
        SimDuration::from_secs(2),
    );
    let victim = cluster_hosts[rng.below(clusters as u64) as usize][0];
    plan.push(ScheduledFault {
        at: SimTime::from_secs_f64(rng.uniform(1.0, 10.0)),
        duration: SimDuration::from_secs_f64(rng.uniform(2.0, 8.0)),
        kind: FaultKind::HostDegraded {
            node: victim,
            factor: rng.uniform(0.2, 0.9),
        },
    });

    Scenario { topo, flows, plan }
}

/// What one engine run observed.
struct Observed {
    completions: HashMap<FlowId, (f64, u64)>,
    fault_transitions: usize,
    /// `samples[k][i]` = flow `i`'s rate (bps) at sampling instant `k`,
    /// `None` once the flow has completed.
    samples: Vec<Vec<Option<f64>>>,
}

fn run(scenario: &Scenario, mode: SolverMode, seed: u64) -> Observed {
    let mut sim = NetSim::new(scenario.topo.clone(), seed);
    sim.set_solver_mode(mode);
    sim.install_fault_plan(scenario.plan.clone());
    let ids: Vec<FlowId> = scenario
        .flows
        .iter()
        .map(|&(src, dst, bytes)| sim.start_flow(FlowSpec::new(src, dst, bytes)))
        .collect();
    for (k, &ms) in SAMPLES_MS.iter().enumerate() {
        sim.schedule_timer(SimTime::from_nanos(ms * 1_000_000 + 1), k as u64);
    }

    let mut observed = Observed {
        completions: HashMap::new(),
        fault_transitions: 0,
        samples: vec![Vec::new(); SAMPLES_MS.len()],
    };
    while let Some(ev) = sim.next_event() {
        match ev.kind {
            EventKind::FlowCompleted(done) => {
                let prev = observed
                    .completions
                    .insert(done.id, (ev.time.as_secs_f64(), done.bytes));
                assert!(prev.is_none(), "double completion for {:?}", done.id);
            }
            EventKind::TimerFired(token) => {
                observed.samples[token as usize] = ids
                    .iter()
                    .map(|&id| sim.flow_rate(id).map(|r| r.as_bps()))
                    .collect();
            }
            EventKind::FaultChanged(_) => observed.fault_transitions += 1,
        }
    }
    observed
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn incremental_matches_from_scratch_allocation(
        seed in 0u64..10_000,
        clusters in 2usize..5,
        hosts in 2usize..4,
        n_flows in 4usize..20,
    ) {
        let scenario = build_scenario(seed, clusters, hosts, n_flows);
        let full = run(&scenario, SolverMode::Full, seed);
        let inc = run(&scenario, SolverMode::Incremental, seed);

        prop_assert_eq!(full.fault_transitions, inc.fault_transitions);
        prop_assert_eq!(full.completions.len(), inc.completions.len());
        for (id, &(t_full, bytes_full)) in &full.completions {
            let &(t_inc, bytes_inc) = inc
                .completions
                .get(id)
                .expect("flow completed in one mode but not the other");
            prop_assert_eq!(bytes_full, bytes_inc);
            prop_assert!(
                close(t_full, t_inc),
                "completion time diverged for {:?}: full {} vs incremental {}",
                id, t_full, t_inc
            );
        }

        for (k, (sf, si)) in full.samples.iter().zip(&inc.samples).enumerate() {
            prop_assert_eq!(sf.len(), si.len(), "sample {} missing in one mode", k);
            for (i, (rf, ri)) in sf.iter().zip(si).enumerate() {
                match (rf, ri) {
                    (Some(a), Some(b)) => prop_assert!(
                        close(*a, *b),
                        "rate diverged at sample {} flow {}: full {} vs incremental {}",
                        k, i, a, b
                    ),
                    (None, None) => {}
                    _ => prop_assert!(
                        false,
                        "flow {} alive in one mode but not the other at sample {}",
                        i, k
                    ),
                }
            }
        }
    }
}
