//! Ablation — **striped data transfer** (the paper's future work §5,
//! item 1: "there is another striped data transfer feature that can
//! improve aggregate bandwidth").
//!
//! Fetches a large file to THU `alpha1` from 1, 2 or 4 HIT stripe servers
//! (each opening the same per-server parallelism). Expected shape: stripes
//! multiply aggregate bandwidth while per-stream TCP is the bottleneck,
//! then flatten once the shared HIT uplink saturates.

#![allow(
    clippy::expect_used,
    clippy::print_stdout,
    reason = "console bin; outside library scope"
)]

use datagrid_bench::{banner, emit_observability, seed_from_args, warmed_paper_grid, MB};
use datagrid_gridftp::transfer::TransferRequest;
use datagrid_simnet::time::SimDuration;
use datagrid_sysmon::host::HostId;
use datagrid_testbed::experiment::TextTable;
use datagrid_testbed::par::par_map;

fn main() {
    let seed = seed_from_args();
    banner(
        "Ablation: striped transfers from HIT stripe servers (future work #1)",
        seed,
    );

    let mut table = TextTable::new([
        "stripe servers",
        "streams/server",
        "time 1024 MB (s)",
        "aggregate (Mbps)",
    ]);

    // Fresh grid per cell, so the stripes x parallelism sweep fans out
    // across workers; par_map keeps rows in input order.
    let cells: Vec<(usize, u32)> = [1usize, 2, 4]
        .iter()
        .flat_map(|&stripes| [1u32, 4].map(|parallelism| (stripes, parallelism)))
        .collect();
    let rows = par_map(cells, |(stripes, parallelism)| {
        let mut grid = warmed_paper_grid(seed, SimDuration::from_secs(60));
        let client = grid.host_id("alpha1").expect("alpha1");
        let sources: Vec<HostId> = (0..stripes)
            .map(|i| grid.host_id(&format!("gridhit{i}")).expect("hit host"))
            .collect();
        let req = TransferRequest::new(1024 * MB).with_parallelism(parallelism);
        let outcome = grid
            .striped_transfer_between(&sources, client, req)
            .expect("striped transfer runs");
        let secs = outcome.duration().as_secs_f64();
        emit_observability(
            &grid,
            &format!("ablation_striped_s{stripes}_p{parallelism}"),
        );
        [
            format!("{stripes}"),
            format!("{parallelism}"),
            format!("{secs:.1}"),
            format!("{:.1}", outcome.avg_throughput().as_mbps()),
        ]
    });
    for row in rows {
        table.row(row);
    }

    print!("{}", table.render());
    println!();
    println!(
        "expected shape: aggregate bandwidth grows with stripe servers (each brings its own \
         disk and TCP streams) until the shared site uplink saturates -- the improvement the \
         paper anticipated from GridFTP's striped transfer feature."
    );
}
