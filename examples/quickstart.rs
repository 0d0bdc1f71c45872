//! Quickstart: build the paper's three-cluster testbed, replicate a file,
//! and let the cost model pick the best replica.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

#![allow(
    clippy::expect_used,
    clippy::print_stdout,
    reason = "example program; outside library scope"
)]

use datagrid::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build the simulated testbed from the paper: THU, Li-Zen and HIT
    //    clusters behind a TANet backbone, with background traffic, NWS
    //    bandwidth monitoring and MDS/sysstat host monitoring.
    let mut grid = paper_testbed(42).build();

    // 2. Register a 1 GiB logical file and place replicas at one host per
    //    site (the paper's §4.3 scenario).
    grid.catalog_mut()
        .register_logical("file-a".parse()?, 1 << 30)?;
    for host in ["alpha4", "hit0", "lz02"] {
        let pfn = grid.place_replica("file-a", canonical_host(host))?;
        println!("replica registered: {pfn}");
    }

    // 3. Let monitoring warm up so NWS forecasts exist.
    grid.warm_up(SimDuration::from_secs(300));

    // 4. A client at alpha1 fetches the file: catalog lookup, factor
    //    gathering, cost-model ranking, GridFTP transfer.
    let client = grid.host_id("alpha1").expect("testbed host");
    let report = grid.fetch(client, "file-a")?;

    println!("\ncandidates (ranked by cost-model score):");
    for (i, c) in report.candidates.iter().enumerate() {
        println!(
            "  {}. {:<9} BW_P={:.3} CPU_P={:.3} IO_P={:.3} -> score {:.3}{}",
            i + 1,
            c.host_name,
            c.factors.bandwidth_fraction,
            c.factors.cpu_idle,
            c.factors.io_idle,
            c.score,
            if i == report.chosen {
                "   <- chosen"
            } else {
                ""
            },
        );
    }
    println!(
        "\nfetched {} ({} MiB) from {} in {:.1} s ({:.1} Mbps); decision latency {:.1} ms",
        report.lfn,
        report.transfer.payload_bytes >> 20,
        report.chosen_candidate().host_name,
        report.transfer.duration().as_secs_f64(),
        report.transfer.avg_throughput().as_mbps(),
        report.decision_latency.as_millis_f64(),
    );
    Ok(())
}
