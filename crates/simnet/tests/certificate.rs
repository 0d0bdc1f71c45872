//! Property: every settled state the engine produces carries a valid
//! max-min certificate, and perturbed allocations are rejected.
//!
//! [`NetSim::verify_allocation`] re-derives, from the per-link flow
//! indexes alone, that the current rate assignment is feasible (no link
//! oversubscribed, no cap exceeded, bytes in range) and max-min fair
//! (every uncapped flow crosses a saturated link on which its share is
//! maximal — the bottleneck characterisation, which holds iff the
//! allocation is the max-min fair one). Both solver modes must certify at
//! every sampling instant of a randomized scenario, and nudging any live
//! flow's rate by ±1e-3 relative must falsify the proof.

#![allow(
    clippy::cast_possible_truncation,
    clippy::float_cmp,
    reason = "test helpers; outside library scope"
)]

use datagrid_simnet::prelude::*;
use proptest::prelude::*;

/// Sampling instants (odd millisecond offsets so they essentially never
/// tie with a completion or fault transition).
const SAMPLES_MS: [u64; 5] = [53, 487, 1_511, 4_211, 9_973];

struct Scenario {
    topo: Topology,
    flows: Vec<(NodeId, NodeId, u64)>,
    plan: FaultPlan,
}

/// Hub-and-spoke clusters around one backbone, mixing intra-cluster flows
/// (disjoint components) with cross-cluster ones (coupled through the
/// backbone) — the same world shape as the solver-equivalence property.
fn build_scenario(
    seed: u64,
    clusters: usize,
    hosts: usize,
    n_flows: usize,
    faults: bool,
) -> Scenario {
    let mut rng = SimRng::seed_from_u64(seed ^ 0xCE_47);
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
        let bytes = 10_000_000 + rng.below(40_000_000);
        flows.push((src, dst, bytes));
    }

    let mut plan = FaultPlan::new();
    if faults {
        let flap = spoke_links[rng.below(spoke_links.len() as u64) as usize];
        plan = FaultPlan::random_link_flaps(
            &mut rng,
            &[flap],
            SimDuration::from_secs(15),
            0.2,
            SimDuration::from_secs(2),
        );
        plan.push(ScheduledFault {
            at: SimTime::from_secs_f64(rng.uniform(0.5, 5.0)),
            duration: SimDuration::from_secs_f64(rng.uniform(1.0, 6.0)),
            kind: FaultKind::HostDegraded {
                node: cluster_hosts[rng.below(clusters as u64) as usize][0],
                factor: rng.uniform(0.2, 0.9),
            },
        });
    }

    Scenario { topo, flows, plan }
}

/// Two flow-disjoint islands bridged through a backbone no flow crosses:
/// a solve for one island always leaves the other island's flow outside
/// its component, which is exactly what the transition certificate's
/// confinement check audits.
fn two_islands() -> (Topology, [NodeId; 4]) {
    let mut topo = Topology::new();
    let a0 = topo.add_node("a0");
    let a1 = topo.add_node("a1");
    let b0 = topo.add_node("b0");
    let b1 = topo.add_node("b1");
    let hub_a = topo.add_node("hubA");
    let hub_b = topo.add_node("hubB");
    let backbone = topo.add_node("backbone");
    let spec = || LinkSpec::new(Bandwidth::from_mbps(100.0), SimDuration::from_millis(1));
    topo.add_duplex_link(a0, hub_a, spec());
    topo.add_duplex_link(a1, hub_a, spec());
    topo.add_duplex_link(b0, hub_b, spec());
    topo.add_duplex_link(b1, hub_b, spec());
    topo.add_duplex_link(hub_a, backbone, spec());
    topo.add_duplex_link(hub_b, backbone, spec());
    (topo, [a0, a1, b0, b1])
}

/// The injection hook corrupts an out-of-component flow's rate right
/// before the transition check: the delta audit must reject the solve and
/// name the corrupted flow in its counterexample.
#[test]
fn injected_transition_fault_is_detected_and_named() {
    let (topo, [a0, a1, b0, b1]) = two_islands();
    let mut sim = NetSim::new(topo, 11);
    sim.set_validation(true);
    let victim = sim.start_flow(FlowSpec::new(a0, a1, 50_000_000));
    sim.inject_transition_fault_for_validation(1e-3);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // Island B's solve never touches island A, so the armed ±1e-3
        // corruption of `victim` must be pinned on the solve's delta.
        sim.start_flow(FlowSpec::new(b0, b1, 50_000_000));
    }))
    .expect_err("corrupted transition must be rejected");
    let msg = err
        .downcast_ref::<String>()
        .expect("panic carries a rendered message")
        .clone();
    assert!(
        msg.contains("transition certificate violated"),
        "unexpected rejection message: {msg}"
    );
    assert!(
        msg.contains(&victim.to_string()),
        "counterexample must name the corrupted flow {victim}: {msg}"
    );
    assert!(
        msg.contains("outside the solved component"),
        "counterexample must state the confinement breach: {msg}"
    );
}

/// Validation is publicly unobservable: same seed with the audit on vs
/// off yields the identical event timeline; only the transition counters
/// (and no other stat) differ.
#[test]
fn transition_counters_count_only_under_validation() {
    let run = |validate: bool| {
        let (topo, [a0, a1, b0, b1]) = two_islands();
        let mut sim = NetSim::new(topo, 23);
        sim.set_validation(validate);
        sim.start_flow(FlowSpec::new(a0, a1, 20_000_000));
        sim.start_flow(FlowSpec::new(b0, b1, 30_000_000));
        sim.start_flow(FlowSpec::new(a0, b1, 10_000_000));
        let mut log = String::new();
        while let Some(ev) = sim.next_event() {
            log.push_str(&format!("{ev:?}\n"));
        }
        (log, sim.stats())
    };
    let (log_on, stats_on) = run(true);
    let (log_off, stats_off) = run(false);
    assert_eq!(log_on, log_off, "validation must not change the timeline");
    assert!(stats_on.transitions_certified > 0);
    assert!(stats_on.transition_flows_checked >= stats_on.transitions_certified);
    assert_eq!(stats_off.transitions_certified, 0);
    assert_eq!(stats_off.transition_flows_checked, 0);
    let mut masked = stats_on;
    masked.transitions_certified = 0;
    masked.transition_flows_checked = 0;
    assert_eq!(masked, stats_off, "only the audit counters may differ");
}

/// Counterexample rendering: every `Violation` variant names the offending
/// flow/link ids and the numbers behind the falsification — a rejected
/// certificate must be debuggable from its message alone.
#[test]
fn violation_messages_name_ids_and_rates() {
    let (mut topo, [a0, a1, ..]) = two_islands();
    let (link, _) = topo.add_duplex_link(
        a0,
        a1,
        LinkSpec::new(Bandwidth::from_mbps(10.0), SimDuration::from_millis(1)),
    );
    let mut sim = NetSim::new(topo, 5);
    let flow = sim.start_flow(FlowSpec::new(a0, a1, 1_000));
    let flow_tag = flow.to_string();
    let link_tag = link.to_string();
    assert!(
        flow_tag.starts_with('f'),
        "flow ids render as fN: {flow_tag}"
    );
    assert!(
        link_tag.starts_with('l'),
        "link ids render as lN: {link_tag}"
    );
    let cases: Vec<(Violation, Vec<String>)> = vec![
        (
            Violation::UnsolvedRate { flow },
            vec![flow_tag.clone(), "never solved".into()],
        ),
        (
            Violation::NegativeRate {
                flow,
                rate_bps: -42.5,
            },
            vec![flow_tag.clone(), "-42.5".into()],
        ),
        (
            Violation::CapExceeded {
                flow,
                rate_bps: 1_250.0,
                cap_bps: 1_000.0,
            },
            vec![flow_tag.clone(), "1250".into(), "1000".into()],
        ),
        (
            Violation::LinkOversubscribed {
                link,
                allocated_bps: 2_000.0,
                capacity_bps: 1_500.0,
            },
            vec![link_tag.clone(), "2000".into(), "1500".into()],
        ),
        (
            Violation::NotBottlenecked {
                flow,
                rate_bps: 640.0,
            },
            vec![flow_tag.clone(), "640".into(), "saturated".into()],
        ),
        (
            Violation::ByteAccounting {
                flow,
                remaining: -3.0,
                total_bytes: 9_000,
            },
            vec![flow_tag.clone(), "-3".into(), "9000".into()],
        ),
        (
            Violation::OutOfComponentRateChange {
                flow,
                before_bps: 100.0,
                after_bps: 101.0,
            },
            vec![
                flow_tag.clone(),
                "100".into(),
                "101".into(),
                "outside the solved component".into(),
            ],
        ),
        (
            Violation::OutOfComponentSettle {
                flow,
                before_remaining: 500.0,
                after_remaining: 400.0,
            },
            vec![
                flow_tag.clone(),
                "500".into(),
                "400".into(),
                "outside the solved component".into(),
            ],
        ),
        (
            Violation::TransitionByteMismatch {
                flow,
                rate_bps: 800.0,
                expected_remaining: 123.0,
                actual_remaining: 321.0,
            },
            vec![
                flow_tag.clone(),
                "800".into(),
                "123".into(),
                "321".into(),
                "re-integration".into(),
            ],
        ),
    ];
    for (violation, needles) in cases {
        let msg = violation.to_string();
        for needle in needles {
            assert!(
                msg.contains(&needle),
                "rendered violation {violation:?} must mention {needle:?}: {msg}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every reachable settled state certifies, in both solver modes, with
    /// faults flexing link capacities mid-run.
    #[test]
    fn every_settle_certifies_in_both_modes(
        seed in 0u64..10_000,
        clusters in 2usize..5,
        hosts in 2usize..4,
        n_flows in 4usize..20,
    ) {
        for mode in [SolverMode::Incremental, SolverMode::Full] {
            let scenario = build_scenario(seed, clusters, hosts, n_flows, true);
            let mut sim = NetSim::new(scenario.topo.clone(), seed);
            sim.set_solver_mode(mode);
            sim.install_fault_plan(scenario.plan.clone());
            for &(src, dst, bytes) in &scenario.flows {
                sim.start_flow(FlowSpec::new(src, dst, bytes));
            }
            let cert = sim.verify_allocation().expect("initial settle certifies");
            prop_assert_eq!(cert.flows, sim.active_flow_count());
            prop_assert!(cert.max_utilization <= 1.0 + 1e-6);
            for (k, &ms) in SAMPLES_MS.iter().enumerate() {
                sim.schedule_timer(SimTime::from_nanos(ms * 1_000_000 + 1), k as u64);
            }
            while let Some(ev) = sim.next_event() {
                if let EventKind::TimerFired(_) = ev.kind {
                    let cert = sim.verify_allocation().unwrap_or_else(|v| {
                        panic!("{mode:?} allocation falsified at {}: {v}", ev.time)
                    });
                    prop_assert_eq!(cert.flows, sim.active_flow_count());
                    prop_assert_eq!(
                        cert.capped_flows + cert.bottlenecked_flows,
                        cert.flows,
                        "every flow needs a cap or bottleneck witness"
                    );
                }
            }
            let done = sim.verify_allocation().expect("drained grid certifies");
            prop_assert_eq!(done.flows, 0);
            prop_assert_eq!(done.bytes_outstanding, 0.0);
        }
    }

    /// Nudging any live flow's rate by ±1e-3 relative falsifies the
    /// certificate in either direction: up breaks conservation on the
    /// flow's bottleneck link, down strips every crossed link of its
    /// saturation witness.
    #[test]
    fn perturbed_allocations_are_rejected(
        seed in 0u64..10_000,
        clusters in 2usize..4,
        hosts in 2usize..4,
        n_flows in 4usize..16,
    ) {
        for mode in [SolverMode::Incremental, SolverMode::Full] {
            let scenario = build_scenario(seed, clusters, hosts, n_flows, false);
            let mut sim = NetSim::new(scenario.topo.clone(), seed);
            sim.set_solver_mode(mode);
            let ids: Vec<FlowId> = scenario
                .flows
                .iter()
                .map(|&(src, dst, bytes)| sim.start_flow(FlowSpec::new(src, dst, bytes)))
                .collect();
            // Let transfers get under way; 10 MB over ≤500 Mbps spokes
            // keeps every flow live at 50 ms.
            sim.run_until(SimTime::from_nanos(50_000_001));
            sim.verify_allocation().expect("mid-run state certifies");
            for &id in &ids {
                let rate = sim.flow_rate(id).expect("flow still live").as_bps();
                prop_assert!(rate > 0.0, "fault-free flow must be running");
                let delta = rate * 1e-3;
                prop_assert!(sim.perturb_rate_for_validation(id, delta));
                prop_assert!(
                    sim.verify_allocation().is_err(),
                    "{mode:?}: +1e-3 perturbation of {id} went undetected"
                );
                prop_assert!(sim.perturb_rate_for_validation(id, -2.0 * delta));
                prop_assert!(
                    sim.verify_allocation().is_err(),
                    "{mode:?}: -1e-3 perturbation of {id} went undetected"
                );
                // Restore the exact solver rate before moving on.
                prop_assert!(sim.perturb_rate_for_validation(id, delta));
                sim.verify_allocation().expect("restored state certifies");
            }
        }
    }
}
