//! Fig. 5 — the **replica selection cost model program**.
//!
//! The paper's Java GUI polls the information services, shows each remote
//! site's cost toward `alpha1` over time (Fig. 5a), averages over a
//! selectable time scale (Fig. 5b's scroll bar), and sorts sites on the
//! *Cost* button. This binary renders the same three views as text.

#![allow(
    clippy::expect_used,
    clippy::print_stdout,
    reason = "console bin; outside library scope"
)]

use datagrid_bench::{banner, emit_observability, seed_from_args, warmed_paper_grid, MB};
use datagrid_core::history::CostHistory;
use datagrid_simnet::time::SimDuration;
use datagrid_testbed::experiment::TextTable;
use datagrid_testbed::sites::canonical_host;

fn main() {
    let seed = seed_from_args();
    banner(
        "Fig. 5: cost model program (scores of replica sites toward alpha1)",
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

    // Poll the selection server every 10 s for 10 minutes, like the GUI.
    let mut history = CostHistory::new();
    let poll = SimDuration::from_secs(10);
    let polls = 60;
    for _ in 0..polls {
        grid.warm_up(poll);
        let now = grid.now();
        for c in grid
            .score_candidates(client, "file-a")
            .expect("scoring succeeds")
        {
            history.record(&c.host_name, now, c.score);
        }
    }
    let now = grid.now();

    // Fig. 5a: the per-site cost traces (sampled every 60 s).
    let mut series = TextTable::new(["t (s)", "alpha4", "gridhit0", "lz02"]);
    let window = SimDuration::from_secs(10);
    for minute in 1..=10 {
        let t = datagrid_simnet::time::SimTime::from_secs_f64(300.0 + 60.0 * minute as f64);
        let cell = |site: &str| {
            history
                .average(site, t, window)
                .map_or("-".to_string(), |v| format!("{v:.3}"))
        };
        series.row([
            format!("{}", 300 + 60 * minute),
            cell("alpha4"),
            cell("gridhit0"),
            cell("lz02"),
        ]);
    }
    println!("cost over time (instantaneous, sampled each minute):");
    print!("{}", series.render());
    println!();

    // Fig. 5b: averages over two selectable time scales.
    for window_s in [30u64, 300u64] {
        let mut avg = TextTable::new(["site", &format!("avg score ({window_s} s window)")]);
        for (site, score) in history.sorted(now, SimDuration::from_secs(window_s)) {
            avg.row([site, format!("{score:.3}")]);
        }
        println!("averaged over a {window_s} s time scale:");
        print!("{}", avg.render());
        println!();
    }

    // The Cost button: the sorted list the user sees.
    let sorted = history.sorted(now, SimDuration::from_secs(300));
    println!("sorted cost list (best replica first):");
    for (rank, (site, score)) in sorted.iter().enumerate() {
        println!("  {}. {site}  (score {score:.3})", rank + 1);
    }
    println!(
        "\npaper finding: \"after calculating the score of replica selection cost model, we \
         can sort a list of replicas from the most efficient replica to worst one\"."
    );
    emit_observability(&grid, "fig5");
}
