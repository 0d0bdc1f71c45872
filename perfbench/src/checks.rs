//! Output checks. A run that fails any of them reports `correct: false`
//! and no metric values.

use std::collections::HashMap;
use std::fmt::Write as _;

use datagrid_simnet::engine::NetSim;

use crate::run::{JobRecord, Outcome};
use crate::workload::{fnv1a, Inputs, Shape, Workload, DEFAULT_SEED};

/// The simulated numbers of the 4096-client contention-aware cell of
/// `BENCH_profile.json` at [`DEFAULT_SEED`]: makespan (printed to six
/// decimals), completed and failed fetches.
pub const REFERENCE_4096: (&str, usize, usize) = ("739.339040", 4096, 0);

/// A failed check: how many jobs it concerns and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Jobs the check found wrong (the whole run counts for run-level
    /// checks).
    pub jobs: usize,
    /// The first problem found.
    pub message: String,
}

impl Failure {
    /// A failure of the whole run rather than of particular jobs.
    pub fn run(message: impl Into<String>) -> Self {
        Failure {
            jobs: 0,
            message: message.into(),
        }
    }
}

/// Every job has a record, and every completed fetch delivered its
/// catalog size. A failed fetch is a valid terminal state.
pub fn check_jobs(
    expected: usize,
    records: &[JobRecord],
    sizes: &HashMap<String, u64>,
) -> Result<(), Failure> {
    if records.len() != expected {
        return Err(Failure {
            jobs: expected.abs_diff(records.len()),
            message: format!(
                "{} of {expected} jobs reached a terminal state",
                records.len()
            ),
        });
    }
    let mut bad = 0;
    let mut first = None;
    for (i, r) in records.iter().enumerate() {
        let Outcome::Completed { delivered, .. } = &r.outcome else {
            continue;
        };
        let problem = match sizes.get(&r.lfn) {
            None => Some(format!("job {i}: {} is not in the catalog", r.lfn)),
            Some(&size) if delivered.is_some_and(|d| d != size) => Some(format!(
                "job {i}: delivered {} of {size} bytes of {}",
                delivered.unwrap_or(0),
                r.lfn
            )),
            Some(&size) if r.payload_moved < size => Some(format!(
                "job {i}: moved {} bytes, short of the {size}-byte {}",
                r.payload_moved, r.lfn
            )),
            Some(_) => None,
        };
        if let Some(p) = problem {
            bad += 1;
            first.get_or_insert(p);
        }
    }
    match first {
        None => Ok(()),
        Some(message) => Err(Failure { jobs: bad, message }),
    }
}

/// The settled network still carries its max-min certificate.
pub fn check_allocation(network: &NetSim) -> Result<(), Failure> {
    network
        .verify_allocation()
        .map(|_| ())
        .map_err(|v| Failure::run(format!("verify_allocation: {v}")))
}

/// Two runs of one seed produced the same outcome digest.
pub fn check_digests(what: &str, a: u64, b: u64) -> Result<(), Failure> {
    if a == b {
        Ok(())
    } else {
        Err(Failure::run(format!(
            "{what}: outcome digest {a:016x} != {b:016x}"
        )))
    }
}

/// `contended-4096` at the reference seed reproduces the simulated
/// numbers of `BENCH_profile.json`. Other workloads, seeds and shapes
/// have no reference and pass.
pub fn check_reference(
    workload: Workload,
    shape: &Shape,
    seed: u64,
    makespan_s: f64,
    records: &[JobRecord],
) -> Result<(), Failure> {
    if workload != Workload::Contended || *shape != workload.shape() || seed != DEFAULT_SEED {
        return Ok(());
    }
    let completed = completed(records);
    let got = (
        format!("{makespan_s:.6}"),
        completed,
        records.len() - completed,
    );
    let (makespan, done, failed) = REFERENCE_4096;
    if got == (makespan.to_string(), done, failed) {
        Ok(())
    } else {
        Err(Failure::run(format!(
            "reference cell: makespan {} s, {} completed, {} failed; \
             BENCH_profile.json has {makespan} s, {done}, {failed}",
            got.0, got.1, got.2
        )))
    }
}

/// Both long-haul workloads receive the same trace and fault plan at
/// `seed`.
pub fn check_longhaul_inputs(seed: u64) -> Result<(), Failure> {
    let a = Inputs::generate(&Workload::LonghaulReplay.shape(), seed);
    let b = Inputs::generate(&Workload::LonghaulBlocking.shape(), seed);
    check_inputs(&a, &b)
}

/// `a` and `b` are the same trace and plan.
pub fn check_inputs(a: &Inputs, b: &Inputs) -> Result<(), Failure> {
    if a.digest() == b.digest() {
        Ok(())
    } else {
        Err(Failure::run(format!(
            "long-haul inputs differ: {:016x} vs {:016x}",
            a.digest(),
            b.digest()
        )))
    }
}

/// Completed fetches among `records`.
pub fn completed(records: &[JobRecord]) -> usize {
    records
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Completed { .. }))
        .count()
}

/// FNV-1a over each job's winner (or `failed`) and the exact bits of its
/// simulated latency.
pub fn outcome_digest(records: &[JobRecord]) -> u64 {
    let mut text = String::with_capacity(records.len() * 32);
    for r in records {
        let winner = match &r.outcome {
            Outcome::Completed { winner, .. } => winner.as_str(),
            Outcome::Failed => "failed",
        };
        let _ = writeln!(text, "{winner} {:016x}", r.latency_s.to_bits());
    }
    fnv1a(text.as_bytes())
}
