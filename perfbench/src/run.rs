//! One repetition of a workload: set-up, the timed phase, and the raw
//! per-job records the checks and metrics are computed from.

use std::collections::HashMap;
use std::time::Instant;

use datagrid_core::prelude::{
    DataGrid, FetchOptions, GridError, RecoveryOptions, ReplayJob, ReplayStatus,
};
use datagrid_simnet::time::SimDuration;
use datagrid_testbed::sites::paper_testbed;

use crate::probe::{Counters, Tracer};
use crate::workload::{Driver, Inputs, Shape, MODE, WARM_UP};

/// Window of the health timeline attached in traced runs.
pub const TIMELINE_WINDOW: SimDuration = SimDuration::from_secs(30);

/// How one job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The file arrived.
    Completed {
        /// Host that served the winning replica.
        winner: String,
        /// Payload bytes the driver reports delivered, when it reports
        /// them: always for the replay driver; for the blocking path only
        /// on single-session fetches, because `RecoveredFetch` does not
        /// expose the restart offset a resumed session started from.
        delivered: Option<u64>,
    },
    /// Every candidate was abandoned.
    Failed,
}

/// The benchmark's record of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The requested logical file.
    pub lfn: String,
    /// How the job ended.
    pub outcome: Outcome,
    /// Simulated seconds: submission to terminal state for the replay
    /// driver, `grid.now()` before and after the call for the blocking
    /// path.
    pub latency_s: f64,
    /// Payload bytes moved across every attempt, lost work included.
    pub payload_moved: u64,
    /// Simulated seconds the request was issued after its trace time:
    /// jobs due before the timed phase start with it, and on the closed
    /// blocking loop an overrunning fetch delays the next call.
    pub lag_s: f64,
}

/// A grid that is set up and ready for the timed phase.
pub struct Prepared {
    /// The warmed grid with catalog and fault plan installed.
    pub grid: DataGrid,
    /// The resolved request trace.
    pub jobs: Vec<ReplayJob>,
    /// Catalog size of every logical file.
    pub sizes: HashMap<String, u64>,
    /// Host seconds the set-up took.
    pub setup_s: f64,
}

/// Builds, installs and warms a grid for `shape` at `seed`. Each stage is
/// one span when `tracer` records.
pub fn prepare(shape: &Shape, seed: u64, tracer: &mut Tracer) -> Result<Prepared, String> {
    let t0 = Instant::now();
    let span = tracer.open("testbed.build");
    let mut builder = paper_testbed(shape.grid_seed());
    builder.selection_mode(MODE);
    let mut grid = builder.build();
    tracer.close(span, traced_counters(tracer, &grid, None));

    let span = tracer.open("testbed.workload");
    let inputs = Inputs::generate(shape, seed);
    tracer.close(span, Counters::default());

    let before = traced_counters(tracer, &grid, None);
    let span = tracer.open("catalog.install");
    inputs
        .workload
        .install(&mut grid)
        .map_err(|e| format!("catalog install: {e}"))?;
    tracer.close(span, traced_counters(tracer, &grid, Some(&before)));

    tracer.call("sysmon.warm_up", &mut grid, |g| g.warm_up(WARM_UP));
    if tracer.enabled() {
        grid.enable_timeline(TIMELINE_WINDOW);
    }

    let span = tracer.open("testbed.jobs");
    let jobs = inputs.workload.jobs(&grid);
    tracer.close(span, Counters::default());

    if !inputs.blackouts.is_empty() {
        let plan = inputs.fault_plan(|h| grid.host_id(h).map(|id| grid.node_of(id)))?;
        tracer.call("core.install_fault_plan", &mut grid, |g| {
            g.install_fault_plan(plan)
        });
    }
    let sizes = inputs.workload.files.iter().cloned().collect();
    Ok(Prepared {
        grid,
        jobs,
        sizes,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

fn traced_counters(tracer: &Tracer, grid: &DataGrid, before: Option<&Counters>) -> Counters {
    if !tracer.enabled() {
        return Counters::default();
    }
    let now = Counters::read(grid);
    before.map_or(now, |b| now.since(b))
}

/// What the timed phase produced.
#[derive(Debug, Clone)]
pub struct Timed {
    /// Host seconds of the timed calls.
    pub wall_s: f64,
    /// Simulated seconds from the first call to the last terminal state.
    pub makespan_s: f64,
    /// One record per job, in trace order.
    pub records: Vec<JobRecord>,
    /// Counter movement across the timed phase.
    pub delta: Counters,
}

/// Serves every job of `prep` through `driver`.
///
/// # Errors
///
/// Any error other than a fetch that exhausted its replicas: those end
/// the job as [`Outcome::Failed`].
pub fn drive(prep: &mut Prepared, driver: Driver, tracer: &mut Tracer) -> Result<Timed, String> {
    let grid = &mut prep.grid;
    let before = Counters::read(grid);
    let started = grid.now();
    let options = FetchOptions::default();
    let recovery = RecoveryOptions::default();
    let t0 = Instant::now();
    let records = match driver {
        Driver::Replay => {
            let report = tracer
                .call("core.replay", grid, |g| {
                    g.replay_concurrent(&prep.jobs, options, &recovery)
                })
                .map_err(|e| format!("replay: {e}"))?;
            report
                .outcomes
                .into_iter()
                .zip(&prep.jobs)
                .map(|(o, job)| JobRecord {
                    latency_s: o.latency().as_secs_f64(),
                    lag_s: o.submitted.saturating_since(job.at).as_secs_f64(),
                    payload_moved: o.payload_moved,
                    outcome: match o.status {
                        ReplayStatus::Completed { winner, bytes, .. } => Outcome::Completed {
                            winner,
                            delivered: Some(bytes),
                        },
                        ReplayStatus::Failed { .. } => Outcome::Failed,
                    },
                    lfn: o.lfn,
                })
                .collect()
        }
        Driver::Blocking => {
            let loop_span = tracer.open("bench.blocking_loop");
            let mut records = Vec::with_capacity(prep.jobs.len());
            for (i, job) in prep.jobs.iter().enumerate() {
                tracer.set_request(Some(i));
                tracer.call("simnet.advance_to", grid, |g| g.advance_to(job.at));
                let t = grid.now();
                let lag_s = t.saturating_since(job.at).as_secs_f64();
                let result = tracer.call("core.fetch_with_recovery", grid, |g| {
                    g.fetch_with_recovery(job.client, &job.lfn, options, &recovery)
                });
                let latency_s = (grid.now() - t).as_secs_f64();
                records.push(match result {
                    Ok(f) => JobRecord {
                        lfn: job.lfn.clone(),
                        outcome: Outcome::Completed {
                            winner: f.report.chosen_candidate().host_name.clone(),
                            delivered: (f.attempts == 1).then_some(f.report.transfer.payload_bytes),
                        },
                        latency_s,
                        payload_moved: f.payload_moved,
                        lag_s,
                    },
                    Err(GridError::AllReplicasFailed { .. }) => JobRecord {
                        lfn: job.lfn.clone(),
                        outcome: Outcome::Failed,
                        latency_s,
                        payload_moved: 0,
                        lag_s,
                    },
                    Err(e) => return Err(format!("fetch of {}: {e}", job.lfn)),
                });
            }
            tracer.set_request(None);
            tracer.close(loop_span, traced_counters(tracer, grid, Some(&before)));
            records
        }
    };
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(Timed {
        wall_s,
        makespan_s: (grid.now() - started).as_secs_f64(),
        records,
        delta: Counters::read(grid).since(&before),
    })
}
