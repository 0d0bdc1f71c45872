//! Weight determination (the paper's future work §5, item 2), answered.
//!
//! The paper hand-picks the cost-model weights (0.8/0.1/0.1) after manual
//! measurements. This example shows the `WeightTuner` learning weights
//! automatically: it gathers `(factors, measured transfer time)`
//! observations by counterfactually replaying fetches from every
//! candidate (possible because the whole grid is cloneable and
//! deterministic), then searches the weight simplex for the best rank
//! agreement.
//!
//! ```sh
//! cargo run --release --example weight_tuning
//! ```

#![allow(
    clippy::expect_used,
    clippy::print_stdout,
    reason = "example program; outside library scope"
)]

use datagrid::prelude::*;

const MB: u64 = 1 << 20;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut grid = paper_testbed(77).build();
    grid.catalog_mut()
        .register_logical("file-a".parse()?, 256 * MB)?;
    for host in ["alpha4", "hit0", "lz02"] {
        grid.place_replica("file-a", canonical_host(host))?;
    }
    grid.warm_up(SimDuration::from_secs(300));

    // Gather observations: for several clients and points in time, replay
    // the fetch from every candidate and record (factors, duration).
    let mut tuner = WeightTuner::new();
    for round in 0..6 {
        grid.warm_up(SimDuration::from_secs(60));
        let client_name = ["alpha1", "alpha2", "gridhit1"][round % 3];
        let client = grid.host_id(client_name).expect("testbed host");
        for c in grid.score_candidates(client, "file-a")? {
            let mut probe = grid.clone();
            let report = probe.fetch_from(
                client,
                "file-a",
                &c.host_name,
                FetchOptions::default().with_parallelism(4),
            )?;
            let secs = report.transfer.duration().as_secs_f64();
            println!(
                "observation: client {client_name:<9} replica {:<9} BW_P {:.4} -> {:>7.1} s",
                c.host_name, c.factors.bandwidth_fraction, secs
            );
            tuner.record(Observation::new(c.factors, secs));
        }
    }

    let (weights, agreement) = tuner.tune(20).expect("enough observations");
    println!(
        "\nlearned weights: BW={:.2} CPU={:.2} IO={:.2} (rank agreement {:.2})",
        weights.bandwidth, weights.cpu, weights.io, agreement
    );
    println!("paper's hand-picked weights: BW=0.80 CPU=0.10 IO=0.10");

    // Install the learned weights into the live selection server.
    grid.selector_mut().set_cost_model(CostModel::new(weights));
    let client = grid.host_id("alpha1").expect("testbed host");
    let report = grid.fetch(client, "file-a")?;
    println!(
        "with learned weights the selector fetches from {} in {:.1} s",
        report.chosen_candidate().host_name,
        report.transfer.duration().as_secs_f64()
    );
    Ok(())
}
