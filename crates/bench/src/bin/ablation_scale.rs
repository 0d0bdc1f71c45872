//! Ablation — **larger, dynamic grids** (the paper's future work §5,
//! item 3: "extend our Data Grid testbed for analyzing the performance of
//! replica selection in a dynamic and larger number of sites
//! environment").
//!
//! Builds synthetic star grids with a growing number of replica sites
//! whose link speeds, loads and loss rates vary, then compares the paper
//! weights, auto-tuned weights (see [`datagrid_core::tuning`]),
//! bandwidth-only selection and random selection against the oracle.
//! Expected shape: monitored policies beat random, and per-environment
//! tuned weights recover the accuracy the paper's fixed 0.8/0.1/0.1 loses
//! on grids whose BW_P values are crushed by the global normalisation.

#![allow(
    clippy::expect_used,
    clippy::print_stdout,
    reason = "console bin; outside library scope"
)]

use datagrid_bench::{banner, emit_observability, seed_from_args, slug, MB};
use datagrid_core::cost::CostModel;
use datagrid_core::grid::{FetchOptions, GridBuilder};
use datagrid_core::policy::SelectionPolicy;
use datagrid_core::tuning::{Observation, WeightTuner};
use datagrid_simnet::rng::SimRng;
use datagrid_simnet::time::SimDuration;
use datagrid_simnet::topology::{Bandwidth, LinkSpec};
use datagrid_sysmon::host::HostSpec;
use datagrid_sysmon::load::LoadModel;
use datagrid_testbed::experiment::{selection_quality, TextTable};
use datagrid_testbed::par::par_map;
use datagrid_testbed::workload::RequestTrace;

/// A star grid: one client site plus `sites` heterogeneous replica sites.
fn synthetic_grid(sites: usize, seed: u64) -> datagrid_core::grid::DataGrid {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x5CA1E);
    let mut b = GridBuilder::new(seed);
    let client = b.add_host(
        HostSpec::new("client").with_cpu(2, 2.0),
        LoadModel::Constant(0.1),
        LoadModel::Constant(0.1),
    );
    let hub = b.add_switch("hub");
    let mut replica_hosts = Vec::new();
    for i in 0..sites {
        let name = format!("site{i:02}");
        let cpu_mean = rng.uniform(0.1, 0.8);
        let io_mean = rng.uniform(0.1, 0.6);
        let node = b.add_host(
            HostSpec::new(&name).with_cpu(1, rng.uniform(0.9, 3.0)),
            LoadModel::Ar1 {
                mean: cpu_mean,
                phi: 0.9,
                sigma: 0.1,
            },
            LoadModel::Ar1 {
                mean: io_mean,
                phi: 0.9,
                sigma: 0.1,
            },
        );
        let capacity = Bandwidth::from_mbps(rng.uniform(10.0, 600.0));
        let latency = SimDuration::from_secs_f64(rng.uniform(0.002, 0.030));
        let loss = rng.uniform(0.0, 0.01);
        b.topology_mut().add_duplex_link(
            node,
            hub,
            LinkSpec::new(capacity, latency).with_loss(loss),
        );
        b.monitor_path(node, client);
        replica_hosts.push(name);
    }
    b.topology_mut().add_duplex_link(
        client,
        hub,
        LinkSpec::new(Bandwidth::from_gbps(1.0), SimDuration::from_millis(1)),
    );
    b.catalog_host("client");
    let mut grid = b.build();
    grid.catalog_mut()
        .register_logical("file-s".parse().expect("valid lfn"), 128 * MB)
        .expect("fresh catalog");
    for name in &replica_hosts {
        grid.place_replica("file-s", name)
            .expect("replica placement");
    }
    grid.warm_up(SimDuration::from_secs(300));
    grid
}

fn main() {
    let seed = seed_from_args();
    banner(
        "Ablation: scaling to larger dynamic grids (future work #3)",
        seed,
    );

    let mut table = TextTable::new([
        "replica sites",
        "policy",
        "oracle accuracy",
        "mean regret",
        "mean fetch (s)",
    ]);

    // One cell per (site count, policy) plus a tuned-weights cell per site
    // count. Every cell builds its own grid from the seed, so cells fan out
    // across workers; par_map returns rows in input order, byte-identical
    // to the serial sweep.
    let mut cells: Vec<(usize, Option<SelectionPolicy>)> = Vec::new();
    for sites in [3usize, 6, 12] {
        for policy in [
            SelectionPolicy::CostModel,
            SelectionPolicy::BandwidthOnly,
            SelectionPolicy::Random,
        ] {
            cells.push((sites, Some(policy)));
        }
        cells.push((sites, None)); // auto-tuned weights
    }

    let rows = par_map(cells, |(sites, policy)| -> [String; 5] {
        let trace = RequestTrace::poisson(
            &["client"],
            &["file-s"],
            1.0 / 90.0,
            SimDuration::from_secs(1500),
            seed ^ sites as u64,
        );
        match policy {
            Some(policy) => {
                let mut grid = synthetic_grid(sites, seed);
                let stats = selection_quality(
                    &mut grid,
                    &trace,
                    policy,
                    FetchOptions::default().with_parallelism(4),
                );
                emit_observability(
                    &grid,
                    &format!("ablation_scale_s{sites}_{}", slug(stats.policy)),
                );
                [
                    format!("{sites}"),
                    stats.policy.to_string(),
                    format!("{:.2}", stats.oracle_accuracy),
                    format!("{:.2}", stats.mean_regret),
                    format!("{:.1}", stats.mean_duration_s),
                ]
            }
            None => {
                // Cost model with per-environment auto-tuned weights
                // (future work #2 applied to future work #3).
                let mut grid = synthetic_grid(sites, seed);
                let client = grid.host_id("client").expect("client host");
                let mut tuner = WeightTuner::new();
                for _ in 0..2 {
                    grid.warm_up(SimDuration::from_secs(60));
                    for c in grid
                        .score_candidates(client, "file-s")
                        .expect("scoring succeeds")
                    {
                        let mut probe = grid.clone();
                        let secs = probe
                            .fetch_from(
                                client,
                                "file-s",
                                &c.host_name,
                                FetchOptions::default().with_parallelism(4),
                            )
                            .expect("oracle fetch")
                            .transfer
                            .duration()
                            .as_secs_f64();
                        tuner.record(Observation::new(c.factors, secs));
                    }
                }
                let (weights, _) = tuner.tune(10).expect("enough observations");
                let mut grid = synthetic_grid(sites, seed);
                grid.selector_mut().set_cost_model(CostModel::new(weights));
                let stats = selection_quality(
                    &mut grid,
                    &trace,
                    SelectionPolicy::CostModel,
                    FetchOptions::default().with_parallelism(4),
                );
                emit_observability(&grid, &format!("ablation_scale_s{sites}_tuned"));
                [
                    format!("{sites}"),
                    format!(
                        "tuned ({:.2}/{:.2}/{:.2})",
                        weights.bandwidth, weights.cpu, weights.io
                    ),
                    format!("{:.2}", stats.oracle_accuracy),
                    format!("{:.2}", stats.mean_regret),
                    format!("{:.1}", stats.mean_duration_s),
                ]
            }
        }
    });
    for row in rows {
        table.row(row);
    }

    print!("{}", table.render());
    println!();
    println!(
        "expected shape: monitored policies beat random selection, and the gap grows with \
         the number and heterogeneity of candidate sites. The run also exposes a genuine \
         limitation of the paper's fixed weights: BW_P is normalised by the grid-wide \
         maximum bandwidth, so on large grids full of long-RTT paths the bandwidth term is \
         crushed below the CPU/IO terms and 0.8/0.1/0.1 can misrank -- bandwidth-only \
         selection (or weights tuned per environment, see ablation_weights) recovers the \
         accuracy. This is exactly the weight-determination problem the paper defers to \
         future work."
    );
}
