//! Criterion micro-benchmarks of the replica catalog.

#![allow(
    clippy::unwrap_used,
    reason = "benchmark harness; outside library scope"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use datagrid_catalog::ReplicaCatalog;
use std::hint::black_box;

fn bench_catalog(c: &mut Criterion) {
    c.bench_function("catalog/register_1000_files", |b| {
        b.iter(|| {
            let mut cat = ReplicaCatalog::new();
            for i in 0..1000 {
                let lfn = format!("dataset/file-{i:04}").parse().unwrap();
                cat.register_logical(lfn, 1 << 20).unwrap();
            }
            black_box(cat.file_count())
        });
    });

    let mut cat = ReplicaCatalog::new();
    for i in 0..1000 {
        let lfn: datagrid_catalog::LogicalFileName =
            format!("dataset/file-{i:04}").parse().unwrap();
        cat.register_logical(lfn.clone(), 1 << 20).unwrap();
        for h in ["alpha4", "gridhit0", "lz02"] {
            cat.add_replica(&lfn, format!("gsiftp://{h}/s/f{i}").parse().unwrap())
                .unwrap();
        }
    }
    c.bench_function("catalog/lookup_replicas", |b| {
        let lfn: datagrid_catalog::LogicalFileName = "dataset/file-0500".parse().unwrap();
        b.iter(|| black_box(cat.replicas(&lfn).unwrap().len()));
    });
    c.bench_function("catalog/list_prefix", |b| {
        b.iter(|| black_box(cat.list("dataset/file-09").len()));
    });
}

criterion_group!(benches, bench_catalog);
criterion_main!(benches);
