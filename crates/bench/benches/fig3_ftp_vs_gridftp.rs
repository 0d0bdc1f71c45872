//! Criterion bench for the Fig. 3 experiment: how fast the simulator
//! reproduces one FTP vs GridFTP transfer cell.

#![allow(
    clippy::unwrap_used,
    reason = "benchmark harness; outside library scope"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use datagrid_bench::{warmed_paper_grid, MB};
use datagrid_gridftp::transfer::{Protocol, TransferRequest};
use datagrid_simnet::time::SimDuration;
use datagrid_testbed::sites::canonical_host;
use std::hint::black_box;

fn bench_fig3(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3");
    group.sample_size(10);
    for protocol in [Protocol::Ftp, Protocol::GridFtp] {
        let name = match protocol {
            Protocol::Ftp => "ftp_256mb",
            Protocol::GridFtp => "gridftp_256mb",
        };
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut grid = warmed_paper_grid(1, SimDuration::from_secs(30));
                let src = grid.host_id(canonical_host("alpha01")).unwrap();
                let dst = grid.host_id(canonical_host("gridhit3")).unwrap();
                let req = TransferRequest::new(256 * MB).with_protocol(protocol);
                black_box(grid.transfer_between(src, dst, req).unwrap())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig3);
criterion_main!(benches);
