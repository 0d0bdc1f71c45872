//! Fig. 4 — **GridFTP parallel data transfer**.
//!
//! Reproduces the paper's second experiment: transfer 256/512/1024/2048 MB
//! from THU `alpha02` to Li-Zen `lz04` (the lossy 30 Mbps site) with no
//! parallelism (stream mode) and with MODE E at 1/2/4/8/16 TCP streams.
//! Expected shape: parallel streams cut transfer time substantially, more
//! so for large files, with diminishing returns at high stream counts; one
//! MODE E stream is *not* identical to stream mode (block framing).

#![allow(
    clippy::expect_used,
    clippy::print_stdout,
    reason = "console bin; outside library scope"
)]

use datagrid_bench::{
    banner, emit_observability, seed_from_args, warmed_paper_grid, MB, PAPER_SIZES_MB,
};
use datagrid_gridftp::transfer::TransferRequest;
use datagrid_simnet::time::SimDuration;
use datagrid_testbed::experiment::TextTable;
use datagrid_testbed::par::par_map;
use datagrid_testbed::sites::canonical_host;

const STREAMS: [u32; 5] = [1, 2, 4, 8, 16];

fn main() {
    let seed = seed_from_args();
    banner(
        "Fig. 4: GridFTP with parallel data transfer (alpha02 -> lz04, 30 Mbps WAN)",
        seed,
    );

    let mut table = TextTable::new([
        "file size (MB)",
        "no parallel (s)",
        "1 stream (s)",
        "2 streams (s)",
        "4 streams (s)",
        "8 streams (s)",
        "16 streams (s)",
    ]);

    // Fresh grid per cell: cells are independent, so the whole
    // size x parallelism sweep fans out across workers; par_map keeps the
    // results in input order (byte-identical to serial).
    let configs_per_size = 1 + STREAMS.len();
    let cells: Vec<(u64, Option<u32>)> = PAPER_SIZES_MB
        .iter()
        .flat_map(|&size_mb| {
            std::iter::once((size_mb, None)).chain(STREAMS.iter().map(move |&p| (size_mb, Some(p))))
        })
        .collect();
    let results = par_map(cells, |(size_mb, parallelism)| {
        let mut grid = warmed_paper_grid(seed, SimDuration::from_secs(60));
        let src = grid.host_id(canonical_host("alpha02")).expect("alpha02");
        let dst = grid.host_id(canonical_host("lz04")).expect("lz04");
        let mut req = TransferRequest::new(size_mb * MB);
        if let Some(p) = parallelism {
            req = req.with_parallelism(p);
        }
        let secs = grid
            .transfer_between(src, dst, req)
            .expect("transfer runs")
            .duration()
            .as_secs_f64();
        (secs, grid)
    });

    for (size_mb, row) in PAPER_SIZES_MB.iter().zip(results.chunks(configs_per_size)) {
        let mut cells = vec![format!("{size_mb}")];
        for (secs, _) in row {
            cells.push(format!("{secs:.1}"));
        }
        table.row(cells);
    }

    print!("{}", table.render());
    println!();
    println!(
        "paper finding: \"parallel data transfer technique showed better performance for \
         larger file sizes\" -- multiple TCP streams aggregate bandwidth on the lossy WAN \
         path, with diminishing returns once the 30 Mbps link saturates."
    );
    if let Some((_, grid)) = results.last() {
        emit_observability(grid, "fig4");
    }
}
