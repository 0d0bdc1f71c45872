//! End-to-end integration tests of the paper's replica selection scenario
//! (Fig. 1) on the simulated three-cluster testbed.

#![allow(clippy::unwrap_used, reason = "test helpers; outside library scope")]

use datagrid::prelude::*;

const MB: u64 = 1 << 20;

fn grid_with_file(seed: u64, size: u64) -> DataGrid {
    let mut grid = paper_testbed(seed).build();
    grid.catalog_mut()
        .register_logical("file-a".parse().unwrap(), size)
        .unwrap();
    for host in ["alpha4", "hit0", "lz02"] {
        grid.place_replica("file-a", canonical_host(host)).unwrap();
    }
    grid.warm_up(SimDuration::from_secs(180));
    grid
}

#[test]
fn table1_score_order_matches_transfer_time_order() {
    let grid = grid_with_file(1, 64 * MB);
    let client = grid.host_id("alpha1").unwrap();
    let candidates = grid.score_candidates(client, "file-a").unwrap();
    assert_eq!(candidates.len(), 3);
    // Paper ordering: alpha4 > gridhit0 > lz02.
    let names: Vec<&str> = candidates.iter().map(|c| c.host_name.as_str()).collect();
    assert_eq!(names, vec!["alpha4", "gridhit0", "lz02"]);

    // Counterfactual transfer times must be ordered the same way.
    let mut durations = Vec::new();
    for c in &candidates {
        let mut probe = grid.clone();
        let report = probe
            .fetch_from(client, "file-a", &c.host_name, FetchOptions::default())
            .unwrap();
        durations.push(report.transfer.duration());
    }
    assert!(
        durations.windows(2).all(|w| w[0] < w[1]),
        "durations {durations:?} must be strictly increasing"
    );
}

#[test]
fn fetch_selects_the_best_and_reports_factors() {
    let mut grid = grid_with_file(2, 64 * MB);
    let client = grid.host_id("alpha1").unwrap();
    let report = grid.fetch(client, "file-a").unwrap();
    assert_eq!(report.chosen_candidate().host_name, "alpha4");
    assert_eq!(report.client, "alpha1");
    assert!(!report.local_hit);
    assert_eq!(report.transfer.payload_bytes, 64 * MB);
    assert!(report.decision_latency.as_millis_f64() >= 5.0);
    for c in &report.candidates {
        assert!((0.0..=1.0).contains(&c.factors.bandwidth_fraction));
        assert!((0.0..=1.0).contains(&c.factors.cpu_idle));
        assert!((0.0..=1.0).contains(&c.factors.io_idle));
        assert!((0.0..=1.0).contains(&c.score));
    }
}

#[test]
fn local_replica_short_circuits_the_scenario() {
    let mut grid = grid_with_file(3, 64 * MB);
    grid.place_replica("file-a", "alpha1").unwrap();
    let client = grid.host_id("alpha1").unwrap();
    let report = grid.fetch(client, "file-a").unwrap();
    assert!(report.local_hit);
    assert_eq!(report.chosen_candidate().host_name, "alpha1");
    assert!(report.transfer.duration().as_secs_f64() < 5.0);
}

#[test]
fn parallel_fetch_is_faster_from_the_lossy_site() {
    let mut a = grid_with_file(4, 64 * MB);
    let mut b = a.clone();
    let client = a.host_id("gridhit1").unwrap();
    let single = a
        .fetch_from(client, "file-a", "lz02", FetchOptions::default())
        .unwrap();
    let parallel = b
        .fetch_from(
            client,
            "file-a",
            "lz02",
            FetchOptions::default().with_parallelism(8),
        )
        .unwrap();
    assert!(
        parallel.transfer.duration().as_secs_f64() < single.transfer.duration().as_secs_f64() * 0.5,
        "8 streams {} vs 1 {}",
        parallel.transfer.duration(),
        single.transfer.duration()
    );
}

#[test]
fn every_selection_policy_completes_the_scenario() {
    for policy in SelectionPolicy::all() {
        let mut grid = grid_with_file(5, 16 * MB);
        grid.selector_mut().set_policy(policy.clone());
        let client = grid.host_id("alpha2").unwrap();
        let report = grid.fetch(client, "file-a").unwrap();
        assert_eq!(
            report.transfer.payload_bytes,
            16 * MB,
            "policy {}",
            policy.name()
        );
    }
}

#[test]
fn weights_change_selection_outcomes() {
    // With IO-only weights the selector follows IO idleness, not bandwidth.
    let mut grid = grid_with_file(6, 16 * MB);
    let client = grid.host_id("alpha1").unwrap();
    let bw_order = grid.score_candidates(client, "file-a").unwrap();
    grid.selector_mut()
        .set_cost_model(CostModel::new(Weights::new(0.0, 0.0, 1.0)));
    let io_order = grid.score_candidates(client, "file-a").unwrap();
    let bw_names: Vec<&str> = bw_order.iter().map(|c| c.host_name.as_str()).collect();
    let io_names: Vec<&str> = io_order.iter().map(|c| c.host_name.as_str()).collect();
    // The IO ranking reflects IO idleness ordering.
    let io_sorted_by_factor = {
        let mut v = io_order.clone();
        v.sort_by(|a, b| b.factors.io_idle.partial_cmp(&a.factors.io_idle).unwrap());
        v.iter().map(|c| c.host_name.clone()).collect::<Vec<_>>()
    };
    assert_eq!(io_names, io_sorted_by_factor);
    // And the scores actually changed relative to the bandwidth model.
    assert_ne!(
        bw_order.iter().map(|c| c.score).collect::<Vec<_>>(),
        io_order.iter().map(|c| c.score).collect::<Vec<_>>(),
        "{bw_names:?} vs {io_names:?}"
    );
}

#[test]
fn fetch_errors_are_reported() {
    let mut grid = paper_testbed(7).build();
    let client = grid.host_id("alpha1").unwrap();
    assert!(matches!(
        grid.fetch(client, "missing").unwrap_err(),
        GridError::Catalog(_)
    ));
    grid.catalog_mut()
        .register_logical("empty".parse().unwrap(), MB)
        .unwrap();
    assert!(matches!(
        grid.fetch(client, "empty").unwrap_err(),
        GridError::NoReplicas { .. }
    ));
}

#[test]
fn attribute_discovery_feeds_the_scenario() {
    use datagrid::catalog::prelude::AttributeSet;
    let mut grid = paper_testbed(8).build();
    let mut attrs = AttributeSet::new();
    attrs.set("experiment".parse().unwrap(), "cms");
    attrs.set("format".parse().unwrap(), "root");
    grid.catalog_mut()
        .register_logical_with_attributes("hep/run42/events".parse().unwrap(), 16 * MB, attrs)
        .unwrap();
    grid.place_replica("hep/run42/events", "alpha4").unwrap();
    grid.warm_up(SimDuration::from_secs(60));

    // The application starts from data characteristics, not a name.
    let found = grid.discover(&[("experiment", "cms")]);
    assert_eq!(found.len(), 1);
    assert!(grid.discover(&[("experiment", "atlas")]).is_empty());

    let client = grid.host_id("alpha2").unwrap();
    let report = grid.fetch(client, found[0].as_str()).unwrap();
    assert_eq!(report.transfer.payload_bytes, 16 * MB);
}

#[test]
fn jobs_stage_compute_and_return_results() {
    use datagrid::core::job::JobSpec;
    let mut grid = grid_with_file(9, 32 * MB);
    let client = grid.host_id("gridhit1").unwrap();
    let job = JobSpec::new("analysis")
        .with_input("file-a")
        .with_compute_work(60.0) // 60 GHz-seconds
        .with_output(4 * MB, "alpha1")
        .with_options(FetchOptions::default().with_parallelism(4));
    let report = grid.run_job(client, &job).unwrap();
    assert_eq!(report.client, "gridhit1");
    assert_eq!(report.staged.len(), 1);
    assert!(report.stage_in > SimDuration::ZERO);
    // gridhit1: 2.8 GHz, 1 core, some load -> compute between 21 s (idle)
    // and ~430 s (5% floor).
    let c = report.compute.as_secs_f64();
    assert!((20.0..450.0).contains(&c), "compute {c}");
    let out = report.stage_out.as_ref().expect("stage-out requested");
    assert_eq!(out.payload_bytes, 4 * MB);
    assert!((0.0..=1.0).contains(&report.data_fraction()));
    assert!(report.total >= report.stage_in + report.compute);
}

#[test]
fn job_with_local_inputs_is_compute_dominated() {
    use datagrid::core::job::JobSpec;
    let mut grid = grid_with_file(10, 32 * MB);
    grid.place_replica("file-a", "alpha1").unwrap();
    let client = grid.host_id("alpha1").unwrap();
    let job = JobSpec::new("local")
        .with_input("file-a")
        .with_compute_work(400.0);
    let report = grid.run_job(client, &job).unwrap();
    assert!(report.staged[0].local_hit);
    assert!(
        report.data_fraction() < 0.5,
        "local staging should not dominate: {}",
        report.data_fraction()
    );
    // No stage-out requested.
    assert!(report.stage_out.is_none());
}

#[test]
fn fetch_with_privacy_protection_costs_cpu_on_the_lan() {
    use datagrid::gridftp::transfer::DataChannelProtection;
    let mut clear_grid = grid_with_file(11, 128 * MB);
    let mut private_grid = clear_grid.clone();
    let client = clear_grid.host_id("alpha1").unwrap();
    let clear = clear_grid
        .fetch_from(client, "file-a", "alpha4", FetchOptions::default())
        .unwrap();
    let private = private_grid
        .fetch_from(
            client,
            "file-a",
            "alpha4",
            FetchOptions::default().with_protection(DataChannelProtection::Private),
        )
        .unwrap();
    assert!(
        private.transfer.duration().as_secs_f64() > clear.transfer.duration().as_secs_f64() * 1.1,
        "PROT P must slow the LAN fetch: {} vs {}",
        private.transfer.duration(),
        clear.transfer.duration()
    );
}
