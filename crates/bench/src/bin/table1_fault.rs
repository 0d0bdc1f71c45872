//! Table 1 under injected faults — **replica selection with failover**.
//!
//! Reruns the paper's §4.3 scenario (client `alpha1` fetching `file-a`,
//! 1024 MB, replicas at `alpha4`, `hit0`, `lz02`) on a grid where the
//! top-ranked replica server blacks out mid-transfer. The client's
//! recovery ladder — stall watchdog, seeded exponential-backoff retries
//! with MODE E restart markers, suspect marking and next-best-replica
//! failover — must still deliver the file, and the whole episode is
//! recorded through the observability layer (`DATAGRID_OBS_DIR` dumps
//! `table1_fault.*`).

#![allow(
    clippy::expect_used,
    clippy::print_stdout,
    reason = "console bin; outside library scope"
)]

use datagrid_bench::{banner, emit_observability, seed_from_args, warmed_paper_grid, MB};
use datagrid_core::grid::FetchOptions;
use datagrid_core::recovery::RecoveryOptions;
use datagrid_gridftp::retry::RetryPolicy;
use datagrid_simnet::fault::FaultPlan;
use datagrid_simnet::time::SimDuration;
use datagrid_testbed::experiment::TextTable;
use datagrid_testbed::sites::canonical_host;

fn main() {
    let seed = seed_from_args();
    banner(
        "Table 1 under faults: top-ranked replica blacks out mid-transfer (client alpha1, file-a 1024 MB)",
        seed,
    );

    let mut grid = warmed_paper_grid(seed, SimDuration::from_secs(300));
    grid.catalog_mut()
        .register_logical("file-a".parse().expect("valid lfn"), 1024 * MB)
        .expect("fresh catalog");
    for host in ["alpha4", "hit0", "lz02"] {
        grid.place_replica("file-a", canonical_host(host))
            .expect("replica placement");
    }
    let client = grid.host_id("alpha1").expect("alpha1");

    let healthy = grid
        .score_candidates(client, "file-a")
        .expect("scoring succeeds");
    let mut table = TextTable::new(["replica", "BW_P", "CPU_P", "IO_P", "score"]);
    for c in &healthy {
        table.row([
            c.host_name.clone(),
            format!("{:.3}", c.factors.bandwidth_fraction),
            format!("{:.3}", c.factors.cpu_idle),
            format!("{:.3}", c.factors.io_idle),
            format!("{:.3}", c.score),
        ]);
    }
    println!("healthy ranking:");
    print!("{}", table.render());
    println!();

    // The fault: the best candidate's host goes dark 4 s into the episode
    // (mid-transfer: 1024 MB needs ~9 s of data time) and stays dark far
    // longer than any retry budget.
    let top = healthy[0].clone();
    let fault_at = grid.now() + SimDuration::from_secs(4);
    let outage = SimDuration::from_secs(3600);
    grid.install_fault_plan(FaultPlan::new().host_blackout(
        fault_at,
        outage,
        grid.node_of(top.host),
    ));
    println!(
        "fault plan: host_blackout({}) at t={:.0} s for {:.0} s — the selected replica dies mid-transfer.",
        top.host_name,
        fault_at.as_secs_f64(),
        outage.as_secs_f64(),
    );

    let recovery = RecoveryOptions::default()
        .with_retry(
            RetryPolicy::default()
                .with_max_attempts(2)
                .with_base_backoff(SimDuration::from_secs(2)),
        )
        .with_stall_timeout(SimDuration::from_secs(2));
    let rec = grid
        .fetch_with_recovery(
            client,
            "file-a",
            FetchOptions::default().with_parallelism(4),
            &recovery,
        )
        .expect("the fetch survives the blackout via failover");

    println!();
    println!("recovery episode:");
    println!(
        "  sessions started:   {} (across {} replica{})",
        rec.attempts,
        rec.failovers() + 1,
        if rec.failovers() == 0 { "" } else { "s" },
    );
    println!("  replicas abandoned: {}", rec.failed_over.join(", "));
    println!(
        "  backoff waited:     {:.1} s",
        rec.backoff_total.as_secs_f64()
    );
    println!(
        "  payload moved:      {} MB (file is {} MB; the surplus was lost to the fault)",
        rec.payload_moved / MB,
        1024,
    );
    println!(
        "  final winner:       {} — transfer took {:.1} s end to end",
        rec.report.chosen_candidate().host_name,
        rec.report.transfer.duration().as_secs_f64(),
    );
    println!();

    let reranked = &rec.report.candidates;
    let mut table = TextTable::new(["replica", "score after failover", "note"]);
    for c in reranked {
        let note = if rec.failed_over.contains(&c.host_name) {
            "suspect (abandoned)"
        } else if c.host_name == rec.report.chosen_candidate().host_name {
            "winner"
        } else {
            ""
        };
        table.row([c.host_name.clone(), format!("{:.3}", c.score), note.into()]);
    }
    println!("post-failover ranking (suspect sites are penalised):");
    print!("{}", table.render());

    let m = grid.metrics_snapshot();
    println!();
    println!(
        "observability: {} stalls, {} retries, {} abandoned, {} failovers, {} fault transitions recorded.",
        m.counter("transfer.stalls"),
        m.counter("transfer.retries"),
        m.counter("transfer.abandoned"),
        m.counter("selection.failovers"),
        m.counter("fault.transitions"),
    );
    if let Some(decision) = grid.audit().last() {
        println!("\nfailover selection audit:\n{}", decision.render_text());
    }
    emit_observability(&grid, "table1_fault");
}
