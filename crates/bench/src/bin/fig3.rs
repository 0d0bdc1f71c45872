//! Fig. 3 — **FTP versus GridFTP** file transfer time.
//!
//! Reproduces the paper's first experiment: transfer 256/512/1024/2048 MB
//! from THU `alpha01` to HIT `gridhit3` with plain FTP and with GridFTP
//! (stream mode), and compare transfer times. Expected shape: the two
//! protocols track each other, GridFTP paying a small constant GSI
//! authentication overhead that vanishes in relative terms as files grow.

#![allow(
    clippy::expect_used,
    clippy::print_stdout,
    reason = "console bin; outside library scope"
)]

use datagrid_bench::{
    banner, emit_observability, seed_from_args, warmed_paper_grid, MB, PAPER_SIZES_MB,
};
use datagrid_gridftp::transfer::{Protocol, TransferRequest};
use datagrid_simnet::time::SimDuration;
use datagrid_testbed::experiment::TextTable;
use datagrid_testbed::par::par_map;
use datagrid_testbed::sites::canonical_host;

fn main() {
    let seed = seed_from_args();
    banner("Fig. 3: FTP versus GridFTP (alpha01 -> gridhit3)", seed);

    let mut table = TextTable::new([
        "file size (MB)",
        "FTP (s)",
        "GridFTP (s)",
        "overhead (s)",
        "overhead (%)",
    ]);

    // Every cell builds a fresh grid from the same seed, so cells are
    // independent and identically distributed (same background traffic
    // sample) and can run on worker threads; par_map returns results in
    // input order, keeping the sweep byte-identical to a serial run.
    let cells: Vec<(u64, Protocol)> = PAPER_SIZES_MB
        .iter()
        .flat_map(|&size_mb| [(size_mb, Protocol::Ftp), (size_mb, Protocol::GridFtp)])
        .collect();
    let results = par_map(cells, |(size_mb, protocol)| {
        let mut grid = warmed_paper_grid(seed, SimDuration::from_secs(60));
        let src = grid.host_id(canonical_host("alpha01")).expect("alpha01");
        let dst = grid.host_id(canonical_host("gridhit3")).expect("gridhit3");
        let req = TransferRequest::new(size_mb * MB).with_protocol(protocol);
        let secs = grid
            .transfer_between(src, dst, req)
            .expect("transfer runs")
            .duration()
            .as_secs_f64();
        (secs, grid)
    });

    for (size_mb, pair) in PAPER_SIZES_MB.iter().zip(results.chunks(2)) {
        let ftp = pair[0].0;
        let gftp = pair[1].0;
        table.row([
            format!("{size_mb}"),
            format!("{ftp:.1}"),
            format!("{gftp:.1}"),
            format!("{:.2}", gftp - ftp),
            format!("{:.2}", (gftp - ftp) / ftp * 100.0),
        ]);
    }

    print!("{}", table.render());
    println!();
    println!(
        "paper finding: transfer times are similar for all sizes; GridFTP pays only a \
         constant authentication overhead (\"even [when] file size is 2 gigabytes, the data \
         transfer time is similar\")."
    );
    if let Some((_, grid)) = results.last() {
        emit_observability(grid, "fig3");
    }
}
