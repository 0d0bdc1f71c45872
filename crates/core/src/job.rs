//! Data-intensive job execution — the outer loop of the paper's Fig. 1.
//!
//! The scenario the paper draws does not end at the transfer: "the client
//! login[s] at the local site and execute[s] parallel applications in the
//! Data Grid platform", the application stages its input files in through
//! replica selection, computes, and "returns the results to user". A
//! [`JobSpec`] describes such an application; [`DataGrid::run_job`]
//! executes it end to end: stage-in via the cost-model selector (local
//! replicas read directly), a compute phase whose duration reflects the
//! host's CPU load, and an optional stage-out of results.

use datagrid_gridftp::transfer::{TransferOutcome, TransferRequest};
use datagrid_simnet::time::SimDuration;
use datagrid_sysmon::host::HostId;

use crate::error::GridError;
use crate::grid::{DataGrid, FetchOptions, FetchReport};

/// A data-intensive application to run on a grid host.
///
/// ```
/// use datagrid_core::job::JobSpec;
///
/// let job = JobSpec::new("blast-search")
///     .with_input("blast/nr.part1")
///     .with_compute_work(120.0)
///     .with_output(64 << 20, "alpha1");
/// assert_eq!(job.inputs().len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    name: String,
    inputs: Vec<String>,
    compute_work: f64,
    output_bytes: u64,
    output_to: Option<String>,
    options: FetchOptions,
}

impl JobSpec {
    /// Creates a job with no inputs and no compute work.
    pub fn new(name: impl Into<String>) -> Self {
        JobSpec {
            name: name.into(),
            inputs: Vec::new(),
            compute_work: 0.0,
            output_bytes: 0,
            output_to: None,
            options: FetchOptions::default(),
        }
    }

    /// Adds an input logical file to stage in.
    pub fn with_input(mut self, lfn: impl Into<String>) -> Self {
        self.inputs.push(lfn.into());
        self
    }

    /// Sets the compute demand in *GHz-core-seconds*: a fully idle
    /// 1-core 1 GHz machine needs `work` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `work` is negative or non-finite.
    pub fn with_compute_work(mut self, work: f64) -> Self {
        assert!(work.is_finite() && work >= 0.0, "bad compute work {work}");
        self.compute_work = work;
        self
    }

    /// Declares a result file of `bytes` to upload to `host` when done.
    pub fn with_output(mut self, bytes: u64, host: impl Into<String>) -> Self {
        self.output_bytes = bytes;
        self.output_to = Some(host.into());
        self
    }

    /// Sets the transfer options used for staging.
    pub fn with_options(mut self, options: FetchOptions) -> Self {
        self.options = options;
        self
    }

    /// The job name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The input logical files.
    pub fn inputs(&self) -> &[String] {
        &self.inputs
    }
}

/// The outcome of a completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Job name.
    pub name: String,
    /// The host that ran it.
    pub client: String,
    /// One fetch report per staged input, in spec order.
    pub staged: Vec<FetchReport>,
    /// Total stage-in time.
    pub stage_in: SimDuration,
    /// Compute-phase duration.
    pub compute: SimDuration,
    /// The result upload, if requested.
    pub stage_out: Option<TransferOutcome>,
    /// End-to-end makespan.
    pub total: SimDuration,
}

impl JobReport {
    /// Fraction of the makespan spent moving data rather than computing —
    /// the number Data Grid replica selection exists to shrink.
    pub fn data_fraction(&self) -> f64 {
        let total = self.total.as_secs_f64();
        if total <= 0.0 {
            0.0
        } else {
            1.0 - self.compute.as_secs_f64() / total
        }
    }
}

impl DataGrid {
    /// Runs a job at `client`: stages every input through the replica
    /// selection scenario, computes (duration scaled by the host's current
    /// CPU headroom and clock), and optionally stages the result out.
    /// Monitoring continues throughout.
    ///
    /// # Errors
    ///
    /// Any [`GridError`] from staging, or [`GridError::UnknownHost`] for a
    /// bad output destination.
    pub fn run_job(&mut self, client: HostId, spec: &JobSpec) -> Result<JobReport, GridError> {
        let started = self.now();

        let mut staged = Vec::with_capacity(spec.inputs().len());
        for lfn in spec.inputs() {
            staged.push(self.fetch_with(client, lfn, spec.options)?);
        }
        let stage_in = self.now() - started;

        // Compute: effective rate in GHz-cores = compute index × headroom,
        // sampled when the job starts crunching (long jobs will see load
        // evolve, but the application occupies the host either way).
        let compute = if spec.compute_work > 0.0 {
            let host = self.host(client);
            let rate = (host.spec().compute_index() * host.cpu_headroom()).max(0.05);
            let duration = SimDuration::from_secs_f64(spec.compute_work / rate);
            self.advance_to(self.now() + duration);
            duration
        } else {
            SimDuration::ZERO
        };

        let stage_out = match (&spec.output_to, spec.output_bytes) {
            (Some(dest), bytes) if bytes > 0 => {
                let dest_id = self
                    .host_id(dest)
                    .ok_or_else(|| GridError::UnknownHost { name: dest.clone() })?;
                if dest_id == client {
                    None // results already local
                } else {
                    let req =
                        TransferRequest::new(bytes).with_parallelism(spec.options.parallelism);
                    Some(self.transfer_between(client, dest_id, req)?)
                }
            }
            _ => None,
        };

        Ok(JobReport {
            name: spec.name().to_string(),
            client: self.host(client).name().to_string(),
            staged,
            stage_in,
            compute,
            stage_out,
            total: self.now() - started,
        })
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests pin exact values; outside library scope"
)]
mod tests {
    use super::*;

    #[test]
    fn spec_builder() {
        let spec = JobSpec::new("j")
            .with_input("a")
            .with_input("b")
            .with_compute_work(10.0)
            .with_output(100, "alpha1")
            .with_options(FetchOptions::default().with_parallelism(4));
        assert_eq!(spec.name(), "j");
        assert_eq!(spec.inputs(), &["a".to_string(), "b".to_string()]);
    }

    #[test]
    #[should_panic(expected = "bad compute work")]
    fn negative_work_rejected() {
        let _ = JobSpec::new("j").with_compute_work(-1.0);
    }

    #[test]
    fn data_fraction_bounds() {
        let report = JobReport {
            name: "j".into(),
            client: "c".into(),
            staged: Vec::new(),
            stage_in: SimDuration::from_secs(30),
            compute: SimDuration::from_secs(70),
            stage_out: None,
            total: SimDuration::from_secs(100),
        };
        assert!((report.data_fraction() - 0.3).abs() < 1e-12);
        let empty = JobReport {
            total: SimDuration::ZERO,
            ..report
        };
        assert_eq!(empty.data_fraction(), 0.0);
    }
}
