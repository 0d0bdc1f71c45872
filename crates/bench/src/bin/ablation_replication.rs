//! Ablation — **dynamic replica creation strategies**.
//!
//! Replica *selection* (the paper) and replica *creation* (its companion
//! problem) interact: once hot files are replicated close to demand, the
//! selector serves local or near reads. This binary replays the same
//! Zipf workload under three strategies from
//! [`datagrid_core::replication`] and reports mean fetch time, the local
//! hit rate and how many replica copies were created (the storage price).

#![allow(
    clippy::expect_used,
    clippy::print_stdout,
    reason = "console bin; outside library scope"
)]

use datagrid_bench::{banner, emit_observability, seed_from_args, slug, warmed_paper_grid, MB};
use datagrid_core::grid::FetchOptions;
use datagrid_core::replication::{ReplicationManager, ReplicationStrategy};
use datagrid_simnet::time::{SimDuration, SimTime};
use datagrid_testbed::experiment::TextTable;
use datagrid_testbed::par::par_map;
use datagrid_testbed::sites::canonical_host;
use datagrid_testbed::workload::RequestTrace;

fn main() {
    let seed = seed_from_args();
    banner(
        "Ablation: dynamic replication strategies over a Zipf workload",
        seed,
    );

    let strategies: [(&str, ReplicationStrategy); 3] = [
        ("never (paper: selection only)", ReplicationStrategy::Never),
        (
            "fetch-count >= 2",
            ReplicationStrategy::FetchCount { threshold: 2 },
        ),
        (
            "slow-fetch > 30 s",
            ReplicationStrategy::SlowFetch { threshold_s: 30.0 },
        ),
    ];

    let files: Vec<String> = (0..4).map(|i| format!("dataset/file-{i}")).collect();
    let file_refs: Vec<&str> = files.iter().map(String::as_str).collect();
    let clients = ["gridhit1", "gridhit2", "lz01", "lz03"];
    let trace = RequestTrace::poisson(
        &clients,
        &file_refs,
        1.0 / 100.0,
        SimDuration::from_secs(4000),
        seed ^ 0x4EB,
    );

    let mut table = TextTable::new([
        "strategy",
        "requests",
        "mean fetch (s)",
        "local hits",
        "replicas created",
    ]);

    // Each strategy replays the trace on its own grid, so the three
    // strategies fan out across workers; par_map keeps rows in input
    // order (byte-identical to serial).
    let rows = par_map(strategies.to_vec(), |(label, strategy)| {
        let mut grid = warmed_paper_grid(seed, SimDuration::from_secs(300));
        for f in &files {
            grid.catalog_mut()
                .register_logical(f.parse().expect("valid lfn"), 128 * MB)
                .expect("fresh catalog");
            grid.place_replica(f, canonical_host("alpha4"))
                .expect("replica placement");
        }
        let mut mgr = ReplicationManager::new(strategy);
        let mut durations = Vec::new();
        let mut local_hits = 0usize;
        let mut created = 0usize;
        for req in trace.requests() {
            let at = SimTime::from_nanos(req.at.as_nanos().max(grid.now().as_nanos()));
            grid.advance_to(at);
            let client = grid.host_id(&req.client).expect("testbed host");
            let report = grid
                .fetch_with(
                    client,
                    &req.lfn,
                    FetchOptions::default().with_parallelism(4),
                )
                .expect("fetch succeeds");
            durations.push(report.transfer.duration().as_secs_f64());
            if report.local_hit {
                local_hits += 1;
            }
            if let Some(advice) = mgr.observe(&report) {
                grid.replicate(&advice.lfn, &advice.to_host, 4)
                    .expect("replication succeeds");
                created += 1;
            }
        }
        let mean = durations.iter().sum::<f64>() / durations.len().max(1) as f64;
        emit_observability(&grid, &format!("ablation_replication_{}", slug(label)));
        [
            label.to_string(),
            format!("{}", durations.len()),
            format!("{mean:.1}"),
            format!("{local_hits}"),
            format!("{created}"),
        ]
    });
    for row in rows {
        table.row(row);
    }

    print!("{}", table.render());
    println!();
    println!(
        "expected shape: replication strategies trade storage (replicas created) for time \
         -- repeat customers at HIT and the slow Li-Zen site turn remote WAN fetches into \
         local reads, shrinking the mean fetch far below selection-only."
    );
}
