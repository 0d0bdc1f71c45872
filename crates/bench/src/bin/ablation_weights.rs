//! Ablation — **cost-model weight sweep** (the paper's future work §5,
//! item 2: "how to determine the system factors weight").
//!
//! Sweeps the `(BW_W, CPU_W, IO_W)` weights over a grid of proportions and
//! measures, against the clone-based oracle, how often the cost model
//! picks the truly fastest replica and how much time a wrong pick costs.
//! Expected shape: bandwidth-dominant weights (like the paper's 0.8/0.1/
//! 0.1) maximise accuracy; ignoring bandwidth entirely is much worse.

#![allow(
    clippy::expect_used,
    clippy::print_stdout,
    reason = "console bin; outside library scope"
)]

use datagrid_bench::{banner, emit_observability, seed_from_args, warmed_paper_grid, MB};
use datagrid_core::cost::{CostModel, Weights};
use datagrid_core::grid::FetchOptions;
use datagrid_core::policy::SelectionPolicy;
use datagrid_core::tuning::{Observation, WeightTuner};
use datagrid_simnet::time::SimDuration;
use datagrid_testbed::experiment::{selection_quality, TextTable};
use datagrid_testbed::par::par_map;
use datagrid_testbed::sites::canonical_host;
use datagrid_testbed::workload::RequestTrace;

const SWEEP: [(f64, f64, f64); 7] = [
    (1.0, 0.0, 0.0),
    (0.8, 0.1, 0.1), // the paper's choice
    (0.6, 0.2, 0.2),
    (1.0, 1.0, 1.0), // equal thirds (normalised)
    (0.2, 0.4, 0.4),
    (0.0, 0.5, 0.5), // network-blind
    (0.0, 1.0, 0.0), // CPU only
];

fn main() {
    let seed = seed_from_args();
    banner("Ablation: cost-model weight sweep (future work #2)", seed);

    let mut table = TextTable::new([
        "weights (BW/CPU/IO)",
        "oracle accuracy",
        "mean regret",
        "mean fetch (s)",
    ]);

    // One fresh grid per weight vector, so the sweep fans out across
    // workers; par_map keeps rows in input order (byte-identical to
    // serial).
    let rows = par_map(SWEEP.to_vec(), |(bw, cpu, io)| {
        let weights = Weights::normalized(bw, cpu, io);
        let mut grid = warmed_paper_grid(seed, SimDuration::from_secs(300));
        grid.catalog_mut()
            .register_logical("file-w".parse().expect("valid lfn"), 256 * MB)
            .expect("fresh catalog");
        for host in ["alpha4", "hit0", "lz02"] {
            grid.place_replica("file-w", canonical_host(host))
                .expect("replica placement");
        }
        grid.selector_mut().set_cost_model(CostModel::new(weights));
        let trace = RequestTrace::poisson(
            &["alpha1", "alpha2", "gridhit1", "gridhit2"],
            &["file-w"],
            1.0 / 120.0,
            SimDuration::from_secs(2400),
            seed ^ 0xABBA,
        );
        let stats = selection_quality(
            &mut grid,
            &trace,
            SelectionPolicy::CostModel,
            FetchOptions::default().with_parallelism(4),
        );
        emit_observability(
            &grid,
            &format!(
                "ablation_weights_bw{:02.0}_cpu{:02.0}_io{:02.0}",
                weights.bandwidth * 100.0,
                weights.cpu * 100.0,
                weights.io * 100.0
            ),
        );
        [
            format!(
                "{:.2}/{:.2}/{:.2}",
                weights.bandwidth, weights.cpu, weights.io
            ),
            format!("{:.2}", stats.oracle_accuracy),
            format!("{:.2}", stats.mean_regret),
            format!("{:.1}", stats.mean_duration_s),
        ]
    });
    for row in rows {
        table.row(row);
    }

    print!("{}", table.render());
    println!();
    println!(
        "expected shape: bandwidth-dominant weights (the paper fixes 0.8/0.1/0.1 after \
         observing that CPU and I/O only slightly affect GridFTP throughput) select the \
         fastest replica most often; dropping the bandwidth factor is far worse."
    );

    // Future work #2, answered: learn the weights from oracle observations.
    let mut grid = warmed_paper_grid(seed, SimDuration::from_secs(300));
    grid.catalog_mut()
        .register_logical("file-w".parse().expect("valid lfn"), 256 * MB)
        .expect("fresh catalog");
    for host in ["alpha4", "hit0", "lz02"] {
        grid.place_replica("file-w", canonical_host(host))
            .expect("replica placement");
    }
    let mut tuner = WeightTuner::new();
    for round in 0..6 {
        grid.warm_up(SimDuration::from_secs(60));
        let client = grid
            .host_id(["alpha1", "gridhit1"][round % 2])
            .expect("client host");
        for c in grid
            .score_candidates(client, "file-w")
            .expect("scoring succeeds")
        {
            let mut probe = grid.clone();
            let secs = probe
                .fetch_from(
                    client,
                    "file-w",
                    &c.host_name,
                    FetchOptions::default().with_parallelism(4),
                )
                .expect("oracle fetch")
                .transfer
                .duration()
                .as_secs_f64();
            tuner.record(Observation::new(c.factors, secs));
        }
    }
    let (weights, agreement) = tuner.tune(10).expect("enough observations");
    println!(
        "\nauto-tuned weights from {} oracle observations: BW={:.2} CPU={:.2} IO={:.2} \
         (rank agreement {:.2}) -- compare the paper's hand-picked 0.80/0.10/0.10.",
        tuner.len(),
        weights.bandwidth,
        weights.cpu,
        weights.io,
        agreement,
    );
    emit_observability(&grid, "ablation_weights_tuned");
}
