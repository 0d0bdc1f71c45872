//! Ablation — **selection policy comparison**.
//!
//! Runs the same request trace under every implemented policy and scores
//! each against the clone-based oracle. Expected shape: the paper's cost
//! model ties or beats bandwidth-only selection and clearly beats the
//! monitoring-free baselines (random, round-robin) and the network-blind
//! least-loaded policy.

#![allow(
    clippy::expect_used,
    clippy::print_stdout,
    reason = "console bin; outside library scope"
)]

use datagrid_bench::{banner, emit_observability, seed_from_args, slug, warmed_paper_grid, MB};
use datagrid_core::grid::FetchOptions;
use datagrid_core::policy::SelectionPolicy;
use datagrid_simnet::time::SimDuration;
use datagrid_testbed::experiment::{selection_quality, TextTable};
use datagrid_testbed::par::par_map;
use datagrid_testbed::sites::canonical_host;
use datagrid_testbed::workload::RequestTrace;

fn main() {
    let seed = seed_from_args();
    banner("Ablation: selection policies vs the oracle", seed);

    let mut table = TextTable::new(["policy", "oracle accuracy", "mean regret", "mean fetch (s)"]);

    // Each policy runs on its own freshly built grid, so the sweep fans
    // out across workers; par_map keeps rows in input order
    // (byte-identical to serial).
    let rows = par_map(SelectionPolicy::all().to_vec(), |policy| {
        let mut grid = warmed_paper_grid(seed, SimDuration::from_secs(300));
        grid.catalog_mut()
            .register_logical("file-p".parse().expect("valid lfn"), 256 * MB)
            .expect("fresh catalog");
        for host in ["alpha4", "hit0", "lz02"] {
            grid.place_replica("file-p", canonical_host(host))
                .expect("replica placement");
        }
        let trace = RequestTrace::poisson(
            &["alpha1", "alpha3", "gridhit1", "lz03"],
            &["file-p"],
            1.0 / 120.0,
            SimDuration::from_secs(2400),
            seed ^ 0x9017,
        );
        let stats = selection_quality(
            &mut grid,
            &trace,
            policy,
            FetchOptions::default().with_parallelism(4),
        );
        emit_observability(&grid, &format!("ablation_policies_{}", slug(stats.policy)));
        [
            stats.policy.to_string(),
            format!("{:.2}", stats.oracle_accuracy),
            format!("{:.2}", stats.mean_regret),
            format!("{:.1}", stats.mean_duration_s),
        ]
    });
    for row in rows {
        table.row(row);
    }

    print!("{}", table.render());
    println!();
    println!(
        "expected shape: the cost model (and its bandwidth-dominant core) picks the truly \
         fastest replica far more often than random/round-robin, and avoids the pathologies \
         of host-state-only selection."
    );
}
