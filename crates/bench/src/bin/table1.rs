//! Table 1 — **replica selection cost model versus measured transfer
//! time**.
//!
//! Reproduces the paper's §4.3 scenario: the user at THU `alpha1` requests
//! logical file `file-a` (1024 MB) whose replicas live at `alpha4` (same
//! cluster), `hit0` (fast remote site) and `lz02` (slow remote site). The
//! selection server gathers the three system factors per candidate, scores
//! them with weights 0.8/0.1/0.1, and the table compares scores against
//! the transfer time each candidate would actually take (measured by
//! counterfactual replay on cloned grids). Expected shape: score order ==
//! speed order, alpha4 best, lz02 worst.

#![allow(
    clippy::expect_used,
    clippy::print_stdout,
    reason = "console bin; outside library scope"
)]

use datagrid_bench::{banner, emit_observability, seed_from_args, warmed_paper_grid, MB};
use datagrid_core::grid::FetchOptions;
use datagrid_simnet::time::SimDuration;
use datagrid_testbed::experiment::TextTable;
use datagrid_testbed::par::par_map;
use datagrid_testbed::sites::canonical_host;

fn main() {
    let seed = seed_from_args();
    banner(
        "Table 1: replica selection cost model and file transfer time (client alpha1, file-a 1024 MB)",
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

    let candidates = grid
        .score_candidates(client, "file-a")
        .expect("scoring succeeds");

    let mut table = TextTable::new([
        "replica",
        "BW_P",
        "CPU_P",
        "IO_P",
        "score",
        "transfer time (s)",
    ]);

    // Counterfactual: replay the fetch with each candidate forced, on a
    // clone (identical randomness), as the paper measured every candidate's
    // physical transfer time. Clones are independent, so the probes fan out
    // across workers; par_map keeps input order (byte-identical to serial).
    let probes: Vec<_> = candidates
        .iter()
        .map(|c| (c.host_name.clone(), grid.clone()))
        .collect();
    let measured = par_map(probes, |(host, mut probe)| {
        probe
            .fetch_from(client, "file-a", &host, FetchOptions::default())
            .expect("forced fetch succeeds")
            .transfer
            .duration()
            .as_secs_f64()
    });

    let mut rows: Vec<(String, f64, f64)> = Vec::new();
    for (c, &secs) in candidates.iter().zip(&measured) {
        table.row([
            c.host_name.clone(),
            format!("{:.3}", c.factors.bandwidth_fraction),
            format!("{:.3}", c.factors.cpu_idle),
            format!("{:.3}", c.factors.io_idle),
            format!("{:.3}", c.score),
            format!("{secs:.1}"),
        ]);
        rows.push((c.host_name.clone(), c.score, secs));
    }

    print!("{}", table.render());
    println!();

    // The paper's claim: the score ranking matches the transfer-time
    // ranking, so the cost model picks the best replica.
    let mut by_score = rows.clone();
    by_score.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    let mut by_time = rows.clone();
    by_time.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("finite"));
    let agree = by_score.iter().zip(&by_time).all(|(s, t)| s.0 == t.0);
    println!(
        "score order:        {}",
        by_score
            .iter()
            .map(|r| r.0.as_str())
            .collect::<Vec<_>>()
            .join(" > ")
    );
    println!(
        "measured-time order: {}",
        by_time
            .iter()
            .map(|r| r.0.as_str())
            .collect::<Vec<_>>()
            .join(" < ")
    );
    println!(
        "cost model ranking {} the measured transfer-time ranking (paper: they match).",
        if agree { "MATCHES" } else { "DOES NOT MATCH" }
    );

    // And run the actual scenario end to end with the selector free.
    let report = grid.fetch(client, "file-a").expect("scenario fetch");
    println!(
        "\nfull Fig. 1 scenario: selection server chose {} (score {:.3}); transfer took {:.1} s \
         (decision latency {:.1} ms).",
        report.chosen_candidate().host_name,
        report.chosen_candidate().score,
        report.transfer.duration().as_secs_f64(),
        report.decision_latency.as_millis_f64(),
    );

    // Feed the counterfactual measurements back into the decision's audit
    // entry so its rank/measured-time agreement covers all candidates.
    if let Some(decision) = grid.recorder_mut().audit_mut().last_mut() {
        for (host, _score, secs) in &rows {
            decision.attach_measured(host, *secs);
        }
    }
    if let Some(decision) = grid.audit().last() {
        println!("\nselection audit:\n{}", decision.render_text());
        if let Some(agreement) = decision.rank_agreement() {
            println!(
                "rank vs measured-time agreement: {:.0}% of candidate pairs ordered consistently.",
                agreement * 100.0
            );
        }
    }
    emit_observability(&grid, "table1");
}
