//! Ablation — **security versus speed**.
//!
//! The paper's Data Grid rests on "a secure, reliable, efficient data
//! transport protocol"; GSI secures the control channel and GridFTP's
//! `PROT` command optionally protects the data channel. This binary
//! quantifies what each level costs on the testbed: plain FTP, GridFTP
//! with a clear data channel (the Globus default the paper measured),
//! integrity protection (`PROT S`) and full privacy (`PROT P`), from a
//! CPU-modest HIT server and from the dual-CPU THU server.

#![allow(
    clippy::expect_used,
    clippy::print_stdout,
    reason = "console bin; outside library scope"
)]

use datagrid_bench::{banner, emit_observability, seed_from_args, slug, warmed_paper_grid, MB};
use datagrid_gridftp::transfer::{DataChannelProtection, Protocol, TransferRequest};
use datagrid_simnet::time::SimDuration;
use datagrid_testbed::experiment::TextTable;
use datagrid_testbed::par::par_map;
use datagrid_testbed::sites::canonical_host;

fn main() {
    let seed = seed_from_args();
    banner(
        "Ablation: transport security levels (FTP / GridFTP PROT C,S,P)",
        seed,
    );

    let mut table = TextTable::new(["configuration", "from gridhit0 (s)", "from alpha4 (s)"]);

    let cases: [(&str, Protocol, DataChannelProtection); 4] = [
        (
            "FTP (no security)",
            Protocol::Ftp,
            DataChannelProtection::Clear,
        ),
        (
            "GridFTP PROT C (clear)",
            Protocol::GridFtp,
            DataChannelProtection::Clear,
        ),
        (
            "GridFTP PROT S (integrity)",
            Protocol::GridFtp,
            DataChannelProtection::Safe,
        ),
        (
            "GridFTP PROT P (privacy)",
            Protocol::GridFtp,
            DataChannelProtection::Private,
        ),
    ];

    // Two independent transfers per configuration (fresh grid each), so
    // the whole case x source sweep fans out across workers; par_map
    // keeps results in input order.
    let cells: Vec<(Protocol, DataChannelProtection, &str)> = cases
        .iter()
        .flat_map(|&(_, protocol, protection)| {
            ["hit0", "alpha4"].map(|src| (protocol, protection, src))
        })
        .collect();
    let secs = par_map(cells, |(protocol, protection, src_name)| {
        let mut grid = warmed_paper_grid(seed, SimDuration::from_secs(60));
        let src = grid.host_id(canonical_host(src_name)).expect("host");
        let dst = grid.host_id("alpha1").expect("alpha1");
        let req = TransferRequest::new(256 * MB)
            .with_protocol(protocol)
            .with_protection(protection);
        let secs = grid
            .transfer_between(src, dst, req)
            .expect("transfer runs")
            .duration()
            .as_secs_f64();
        emit_observability(
            &grid,
            &format!(
                "ablation_security_{}_{}",
                slug(src_name),
                slug(&format!("{protocol:?}_{protection:?}")),
            ),
        );
        secs
    });
    for ((label, _, _), pair) in cases.iter().zip(secs.chunks(2)) {
        table.row([
            label.to_string(),
            format!("{:.1}", pair[0]),
            format!("{:.1}", pair[1]),
        ]);
    }

    print!("{}", table.render());
    println!();
    println!(
        "expected shape: on WAN paths the network is the bottleneck and even PROT P is \
         nearly free, while on the fast LAN path (alpha4 -> alpha1) encryption becomes \
         CPU-bound and visibly slows the transfer -- why Globus defaults the data channel \
         to clear and the paper measured it that way."
    );
}
