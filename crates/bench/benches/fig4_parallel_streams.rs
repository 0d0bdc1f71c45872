//! Criterion bench for the Fig. 4 experiment: simulating parallel-stream
//! transfers over the lossy 30 Mbps path.

#![allow(
    clippy::unwrap_used,
    reason = "benchmark harness; outside library scope"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use datagrid_bench::{warmed_paper_grid, MB};
use datagrid_gridftp::transfer::TransferRequest;
use datagrid_simnet::time::SimDuration;
use datagrid_testbed::sites::canonical_host;
use std::hint::black_box;

fn bench_fig4(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4");
    group.sample_size(10);
    for streams in [1u32, 8] {
        group.bench_function(&format!("streams_{streams}_256mb"), |b| {
            b.iter(|| {
                let mut grid = warmed_paper_grid(1, SimDuration::from_secs(30));
                let src = grid.host_id(canonical_host("alpha02")).unwrap();
                let dst = grid.host_id(canonical_host("lz04")).unwrap();
                let req = TransferRequest::new(256 * MB).with_parallelism(streams);
                black_box(grid.transfer_between(src, dst, req).unwrap())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
