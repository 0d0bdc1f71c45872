//! Simulated hosts.
//!
//! A [`SimHost`] pairs a hardware description ([`HostSpec`]) with two
//! running utilisation processes (CPU and disk I/O) and a bounded history
//! of samples. The Data Grid orchestrator advances every host on a fixed
//! monitoring interval and reads `cpu_idle` / `io_idle` — the same two
//! numbers the paper obtains from MDS and sysstat — plus the endpoint rate
//! limits a transfer experiences.

use datagrid_simnet::rng::SimRng;
use datagrid_simnet::time::{SimDuration, SimTime};
use datagrid_simnet::topology::Bandwidth;

use crate::disk::DiskSpec;
use crate::load::{LoadModel, LoadProcess};

/// Identifier of a host within a grid. Assigned by the owning registry
/// (one per topology node that runs services).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

impl HostId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// Static hardware description of a host.
///
/// ```
/// use datagrid_sysmon::host::HostSpec;
///
/// let spec = HostSpec::new("alpha1").with_cpu(2, 2.0).with_memory_mb(1024);
/// assert_eq!(spec.cores, 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HostSpec {
    /// Host name (matches the topology node name).
    pub name: String,
    /// Number of CPU cores.
    pub cores: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Main memory in MiB.
    pub memory_mb: u64,
    /// Attached storage.
    pub disk: DiskSpec,
}

impl HostSpec {
    /// Creates a spec with commodity 2005 defaults (1 core @ 2 GHz, 512 MiB,
    /// 60 GB IDE disk).
    pub fn new(name: impl Into<String>) -> Self {
        HostSpec {
            name: name.into(),
            cores: 1,
            clock_ghz: 2.0,
            memory_mb: 512,
            disk: DiskSpec::ide_2005(60),
        }
    }

    /// Sets core count and clock.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or the clock is not positive.
    pub fn with_cpu(mut self, cores: u32, clock_ghz: f64) -> Self {
        assert!(cores > 0, "a host needs at least one core");
        assert!(clock_ghz > 0.0, "clock must be positive");
        self.cores = cores;
        self.clock_ghz = clock_ghz;
        self
    }

    /// Sets memory size.
    pub fn with_memory_mb(mut self, memory_mb: u64) -> Self {
        self.memory_mb = memory_mb;
        self
    }

    /// Sets the disk.
    pub fn with_disk(mut self, disk: DiskSpec) -> Self {
        self.disk = disk;
        self
    }

    /// A crude relative compute-power index (cores × clock), used to scale
    /// per-byte protocol CPU costs between the testbed's heterogeneous
    /// machines.
    pub fn compute_index(&self) -> f64 {
        f64::from(self.cores) * self.clock_ghz
    }
}

/// One monitoring sample of a host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSample {
    /// When the sample was taken.
    pub time: SimTime,
    /// CPU utilisation in `[0, 1]`.
    pub cpu_util: f64,
    /// Disk busy fraction in `[0, 1]`.
    pub io_util: f64,
}

/// A host whose CPU and disk load evolve over simulated time.
///
/// ```
/// use datagrid_simnet::rng::SimRng;
/// use datagrid_simnet::time::{SimDuration, SimTime};
/// use datagrid_sysmon::host::{HostSpec, SimHost};
/// use datagrid_sysmon::load::LoadModel;
///
/// let mut host = SimHost::new(
///     HostSpec::new("alpha1"),
///     LoadModel::Constant(0.2),
///     LoadModel::Constant(0.1),
///     SimDuration::from_secs(10),
///     SimRng::seed_from_u64(1),
/// );
/// host.advance_to(SimTime::from_secs_f64(30.0));
/// assert_eq!(host.cpu_idle(), 0.8);
/// assert_eq!(host.io_idle(), 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct SimHost {
    spec: HostSpec,
    cpu: LoadProcess,
    io: LoadProcess,
    last_advanced: SimTime,
    history: Vec<HostSample>,
    history_cap: usize,
}

impl SimHost {
    /// Default bound on retained samples.
    pub const DEFAULT_HISTORY: usize = 4096;

    /// Creates a host with the given load dynamics; both processes share
    /// the monitoring `interval` and derive independent streams from `rng`.
    pub fn new(
        spec: HostSpec,
        cpu_model: LoadModel,
        io_model: LoadModel,
        interval: SimDuration,
        rng: SimRng,
    ) -> Self {
        let cpu = LoadProcess::new(cpu_model, interval, rng.fork("cpu"));
        let io = LoadProcess::new(io_model, interval, rng.fork("io"));
        SimHost {
            spec,
            cpu,
            io,
            last_advanced: SimTime::ZERO,
            history: Vec::new(),
            history_cap: Self::DEFAULT_HISTORY,
        }
    }

    /// The hardware description.
    pub fn spec(&self) -> &HostSpec {
        &self.spec
    }

    /// Host name.
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// Current CPU idle fraction (what MDS reports).
    pub fn cpu_idle(&self) -> f64 {
        self.cpu.idle()
    }

    /// Current disk idle fraction (what `iostat` reports).
    pub fn io_idle(&self) -> f64 {
        self.io.idle()
    }

    /// Current CPU utilisation.
    pub fn cpu_utilization(&self) -> f64 {
        self.cpu.utilization()
    }

    /// Current disk busy fraction.
    pub fn io_utilization(&self) -> f64 {
        self.io.utilization()
    }

    /// The monitoring interval of the load processes.
    pub fn interval(&self) -> SimDuration {
        self.cpu.interval()
    }

    /// Read rate a transfer can pull off this host's disk right now.
    pub fn available_disk_read(&self) -> Bandwidth {
        self.spec.disk.available_read(self.io.utilization())
    }

    /// Write rate a transfer can push onto this host's disk right now.
    pub fn available_disk_write(&self) -> Bandwidth {
        self.spec.disk.available_write(self.io.utilization())
    }

    /// Fraction of one core currently free for protocol processing,
    /// accounting for multi-core headroom: with `c` cores at utilisation
    /// `u`, free capacity is `c (1 - u)` cores, saturating at one full core
    /// (a single GridFTP session is single-threaded).
    pub fn cpu_headroom(&self) -> f64 {
        (f64::from(self.spec.cores) * self.cpu.idle()).min(1.0)
    }

    /// Advances the load processes to `now` (stepping once per interval)
    /// and records samples. Idempotent when called twice with the same
    /// time.
    pub fn advance_to(&mut self, now: SimTime) {
        while self.last_advanced + self.interval() <= now {
            self.last_advanced += self.interval();
            self.cpu.advance();
            self.io.advance();
            if self.history.len() == self.history_cap {
                self.history.remove(0);
            }
            self.history.push(HostSample {
                time: self.last_advanced,
                cpu_util: self.cpu.utilization(),
                io_util: self.io.utilization(),
            });
        }
    }

    /// The recorded monitoring history (oldest first, bounded).
    pub fn history(&self) -> &[HostSample] {
        &self.history
    }

    /// Restricts the number of retained samples.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn set_history_cap(&mut self, cap: usize) {
        assert!(cap > 0, "history capacity must be positive");
        self.history_cap = cap;
        if self.history.len() > cap {
            let excess = self.history.len() - cap;
            self.history.drain(..excess);
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests pin exact values; outside library scope"
)]
mod tests {
    use super::*;

    fn host(cpu: LoadModel, io: LoadModel) -> SimHost {
        SimHost::new(
            HostSpec::new("test").with_cpu(2, 2.0),
            cpu,
            io,
            SimDuration::from_secs(10),
            SimRng::seed_from_u64(3),
        )
    }

    #[test]
    fn advance_steps_once_per_interval() {
        let mut h = host(LoadModel::Constant(0.5), LoadModel::Constant(0.25));
        h.advance_to(SimTime::from_secs_f64(35.0));
        assert_eq!(h.history().len(), 3);
        assert_eq!(h.history()[0].time, SimTime::from_secs_f64(10.0));
        assert_eq!(h.history()[2].time, SimTime::from_secs_f64(30.0));
        // Idempotent.
        h.advance_to(SimTime::from_secs_f64(35.0));
        assert_eq!(h.history().len(), 3);
    }

    #[test]
    fn idle_fractions_complement_utilisation() {
        let mut h = host(LoadModel::Constant(0.3), LoadModel::Constant(0.6));
        h.advance_to(SimTime::from_secs_f64(10.0));
        assert!((h.cpu_idle() - 0.7).abs() < 1e-12);
        assert!((h.io_idle() - 0.4).abs() < 1e-12);
        assert!((h.cpu_utilization() - 0.3).abs() < 1e-12);
        assert!((h.io_utilization() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn disk_rates_track_io_load() {
        let mut h = host(LoadModel::Constant(0.0), LoadModel::Constant(0.5));
        h.advance_to(SimTime::from_secs_f64(10.0));
        let expected = h.spec().disk.read_bandwidth.as_bps() * 0.5;
        assert!((h.available_disk_read().as_bps() - expected).abs() < 1e-6);
    }

    #[test]
    fn cpu_headroom_saturates_at_one_core() {
        let mut h = host(LoadModel::Constant(0.2), LoadModel::Constant(0.0));
        h.advance_to(SimTime::from_secs_f64(10.0));
        // 2 cores, 80% idle -> 1.6 cores free, clamped to 1.
        assert_eq!(h.cpu_headroom(), 1.0);
        let mut busy = host(LoadModel::Constant(0.8), LoadModel::Constant(0.0));
        busy.advance_to(SimTime::from_secs_f64(10.0));
        assert!((busy.cpu_headroom() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn history_is_bounded() {
        let mut h = host(LoadModel::Constant(0.1), LoadModel::Constant(0.1));
        h.set_history_cap(5);
        h.advance_to(SimTime::from_secs_f64(200.0));
        assert_eq!(h.history().len(), 5);
        assert_eq!(h.history()[4].time, SimTime::from_secs_f64(200.0));
    }

    #[test]
    fn compute_index_reflects_hardware() {
        let fast = HostSpec::new("hit0").with_cpu(1, 2.8);
        let dual = HostSpec::new("alpha1").with_cpu(2, 2.0);
        let slow = HostSpec::new("lz01").with_cpu(1, 0.9);
        assert!(dual.compute_index() > fast.compute_index());
        assert!(fast.compute_index() > slow.compute_index());
    }
}
