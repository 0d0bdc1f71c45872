//! Criterion bench for the Table 1 scenario: factor gathering, scoring
//! and the full Fig. 1 fetch.

#![allow(
    clippy::unwrap_used,
    reason = "benchmark harness; outside library scope"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use datagrid_bench::{warmed_paper_grid, MB};
use datagrid_simnet::time::SimDuration;
use datagrid_testbed::sites::canonical_host;
use std::hint::black_box;

fn bench_table1(c: &mut Criterion) {
    let mut grid = warmed_paper_grid(1, SimDuration::from_secs(120));
    grid.catalog_mut()
        .register_logical("file-a".parse().unwrap(), 64 * MB)
        .unwrap();
    for host in ["alpha4", "hit0", "lz02"] {
        grid.place_replica("file-a", canonical_host(host)).unwrap();
    }
    let client = grid.host_id("alpha1").unwrap();

    c.bench_function("table1/score_candidates", |b| {
        b.iter(|| black_box(grid.score_candidates(client, "file-a").unwrap()));
    });

    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    group.bench_function("full_fetch_64mb", |b| {
        b.iter(|| {
            let mut probe = grid.clone();
            black_box(probe.fetch(client, "file-a").unwrap())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
