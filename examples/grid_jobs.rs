//! Data-intensive jobs on the grid — the paper's complete Fig. 1 story.
//!
//! "Most of these Data Grid applications are executed simultaneously and
//! access a large number of shared data files": this example runs a batch
//! of analysis jobs at different sites, each staging its inputs through
//! the cost-model replica selector, computing, and shipping results back
//! to THU. It then reports how much of each job's makespan went to data
//! movement — the quantity replica selection exists to shrink.
//!
//! ```sh
//! cargo run --release --example grid_jobs
//! ```

#![allow(
    clippy::expect_used,
    clippy::print_stdout,
    reason = "example program; outside library scope"
)]

use datagrid::core::job::JobSpec;
use datagrid::prelude::*;

const MB: u64 = 1 << 20;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut grid = paper_testbed(31).build();

    // A shared event dataset, replicated at THU and HIT.
    for i in 0..4 {
        let lfn = format!("hep/run7/events-{i}");
        grid.catalog_mut()
            .register_logical(lfn.parse()?, 256 * MB)?;
        grid.place_replica(&lfn, "alpha4")?;
        grid.place_replica(&lfn, "gridhit0")?;
    }
    grid.warm_up(SimDuration::from_secs(300));

    // Four analysis jobs land on different hosts; each reads one slice and
    // sends a summary back to alpha1.
    let placements = [
        ("alpha2", 0),
        ("alpha3", 1),
        ("gridhit2", 2),
        ("lz03", 3), // the thin site: data movement will dominate here
    ];

    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>10}  input came from",
        "host", "stage-in", "compute", "total", "data %"
    );
    for (host, slice) in placements {
        let client = grid.host_id(host).expect("testbed host");
        let job = JobSpec::new(format!("analysis-{slice}"))
            .with_input(format!("hep/run7/events-{slice}"))
            .with_compute_work(200.0) // 200 GHz-seconds of number crunching
            .with_output(8 * MB, "alpha1")
            .with_options(FetchOptions::default().with_parallelism(4));
        let report = grid.run_job(client, &job)?;
        println!(
            "{:<10} {:>9.1}s {:>9.1}s {:>9.1}s {:>9.1}%  {}",
            report.client,
            report.stage_in.as_secs_f64(),
            report.compute.as_secs_f64(),
            report.total.as_secs_f64(),
            report.data_fraction() * 100.0,
            report.staged[0].chosen_candidate().host_name,
        );
    }

    println!(
        "\nthe selector keeps THU jobs on the LAN replica and HIT jobs on the local-site\n\
         replica; only the Li-Zen job pays serious staging time, because every path into\n\
         that site crosses its lossy 30 Mbps uplink."
    );
    Ok(())
}
