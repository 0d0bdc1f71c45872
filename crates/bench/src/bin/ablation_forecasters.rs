//! Ablation — **NWS forecaster accuracy**.
//!
//! The cost model consumes NWS *forecasts* of path bandwidth, so forecast
//! quality bounds selection quality. This binary lets the testbed run for
//! half an hour of simulated time, then reports every battery member's
//! cumulative error on the volatile Li-Zen path and the stable HIT path,
//! plus which member the dynamic selection currently trusts.

#![allow(
    clippy::expect_used,
    clippy::print_stdout,
    reason = "console bin; outside library scope"
)]

use datagrid_bench::{banner, emit_observability, seed_from_args, warmed_paper_grid};
use datagrid_simnet::time::SimDuration;
use datagrid_testbed::experiment::TextTable;
use datagrid_testbed::sites::canonical_host;

fn main() {
    let seed = seed_from_args();
    banner("Ablation: NWS forecaster battery accuracy", seed);

    let grid = warmed_paper_grid(seed, SimDuration::from_secs(1800));
    let alpha1 = grid.host_id("alpha1").expect("alpha1");

    for remote in ["lz02", "hit0"] {
        let host = grid.host_id(canonical_host(remote)).expect("remote host");
        let sensor = grid
            .nws()
            .sensor(grid.node_of(host), grid.node_of(alpha1))
            .expect("monitored path");
        println!(
            "path {} -> alpha1: {} samples, selected forecaster: {}",
            remote,
            sensor.series().len(),
            sensor.battery().selected().unwrap_or("<none>"),
        );
        let mut table = TextTable::new(["forecaster", "MAE (Mbps)", "RMSE (Mbps)", "predictions"]);
        let mut scores: Vec<_> = sensor.battery().scores().to_vec();
        scores.sort_by(|a, b| a.mae().partial_cmp(&b.mae()).expect("finite"));
        for s in scores {
            table.row([
                s.name.to_string(),
                format!("{:.3}", s.mae() / 1e6),
                format!("{:.3}", s.mse().sqrt() / 1e6),
                format!("{}", s.predictions),
            ]);
        }
        print!("{}", table.render());
        println!();
    }

    println!(
        "expected shape: smoothing/median forecasters beat last-value on the noisy Li-Zen \
         path; the dynamic meta-selection picks a low-MAE member, which is why NWS uses a \
         battery rather than a single predictor."
    );
    emit_observability(&grid, "ablation_forecasters");
}
