//! Regression: a bench-style sweep run through [`par_map`] with several
//! workers produces output byte-identical to the serial run.
//!
//! This is the contract the reproducer binaries (`fig3`, `fig4`,
//! `table1`, `ablation_*`) rely on: every sweep cell builds its own grid
//! from the shared seed, so worker scheduling must never leak into the
//! rendered tables. The test lives in its own integration-test binary so
//! setting `DATAGRID_JOBS` cannot race with other tests.

#![allow(clippy::expect_used, reason = "test helpers; outside library scope")]

use datagrid_core::grid::DataGrid;
use datagrid_gridftp::transfer::TransferRequest;
use datagrid_simnet::time::SimDuration;
use datagrid_testbed::par::{par_map, worker_count};
use datagrid_testbed::sites::{canonical_host, paper_testbed};

const MB: u64 = 1 << 20;

fn grid(seed: u64) -> DataGrid {
    let mut grid = paper_testbed(seed).build();
    grid.warm_up(SimDuration::from_secs(5));
    grid
}

fn run_cell(seed: u64, (size_mb, parallelism): (u64, u32)) -> String {
    let mut grid = grid(seed);
    let src = grid.host_id(canonical_host("alpha01")).expect("alpha01");
    let dst = grid.host_id(canonical_host("gridhit3")).expect("gridhit3");
    let secs = grid
        .transfer_between(
            src,
            dst,
            TransferRequest::new(size_mb * MB).with_parallelism(parallelism),
        )
        .expect("transfer runs")
        .duration()
        .as_secs_f64();
    format!("{size_mb} MB x{parallelism}: {secs:.3} s")
}

#[test]
fn parallel_sweep_output_is_byte_identical_to_serial() {
    let seed = 20050905;
    let cells: Vec<(u64, u32)> = [8u64, 16]
        .iter()
        .flat_map(|&mb| [1u32, 4].map(|p| (mb, p)))
        .collect();

    let serial: Vec<String> = cells.iter().map(|&cell| run_cell(seed, cell)).collect();

    std::env::set_var("DATAGRID_JOBS", "3");
    assert_eq!(worker_count(), 3, "DATAGRID_JOBS override in effect");
    let parallel = par_map(cells, |cell| run_cell(seed, cell));
    std::env::remove_var("DATAGRID_JOBS");

    assert_eq!(serial, parallel);
}
