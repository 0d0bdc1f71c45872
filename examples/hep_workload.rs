//! High-energy-physics workload: many event files, many clients, and a
//! live comparison of the cost-model policy against random selection.
//!
//! The paper's introduction motivates Data Grids with high-energy physics:
//! geographically distributed analysis jobs pulling large shared event
//! files. This example replays the same Poisson/Zipf request trace under
//! two selection policies and reports the aggregate difference.
//!
//! ```sh
//! cargo run --release --example hep_workload
//! ```

#![allow(
    clippy::print_stdout,
    reason = "example program; outside library scope"
)]

use datagrid::prelude::*;

fn build_grid(seed: u64) -> Result<DataGrid, Box<dyn std::error::Error>> {
    let mut grid = paper_testbed(seed).build();
    // A dozen 256 MiB event files, replicated at one host per site.
    for i in 0..12 {
        let name = format!("hep/run42/events-{i:02}");
        grid.catalog_mut()
            .register_logical(name.parse()?, 256 << 20)?;
        for host in ["alpha4", "gridhit0", "lz02"] {
            grid.place_replica(&name, host)?;
        }
    }
    grid.warm_up(SimDuration::from_secs(300));
    Ok(grid)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = 2005;
    let files: Vec<String> = (0..12)
        .map(|i| format!("hep/run42/events-{i:02}"))
        .collect();
    let file_refs: Vec<&str> = files.iter().map(String::as_str).collect();
    let clients = ["alpha1", "alpha2", "gridhit1", "gridhit3"];
    let trace = RequestTrace::poisson(
        &clients,
        &file_refs,
        1.0 / 150.0,
        SimDuration::from_secs(3000),
        seed,
    );
    println!(
        "replaying {} analysis-job requests from {} client hosts under two policies\n",
        trace.len(),
        clients.len()
    );

    for policy in [SelectionPolicy::CostModel, SelectionPolicy::Random] {
        let mut grid = build_grid(seed)?;
        let stats = selection_quality(
            &mut grid,
            &trace,
            policy,
            FetchOptions::default().with_parallelism(4),
        );
        println!(
            "{:<14} mean fetch {:>7.1} s   picked the fastest replica {:>5.1}% of the time   mean regret {:>5.2}",
            stats.policy,
            stats.mean_duration_s,
            stats.oracle_accuracy * 100.0,
            stats.mean_regret,
        );
    }

    println!(
        "\nthe cost model avoids the 30 Mbps Li-Zen replica unless the fast sites are\n\
         loaded, which is exactly the behaviour the paper's Table 1 demonstrates."
    );
    Ok(())
}
