//! A Globus MDS-style information directory.
//!
//! The paper obtains CPU state through the Globus Toolkit's Monitoring and
//! Discovery Service. [`MdsDirectory`] plays that role: hosts register
//! their static description once, push fresh utilisation numbers on every
//! monitoring tick, and consumers query by host name.

#![expect(
    clippy::panic,
    reason = "MDS lookup of an unregistered host is a documented # Panics contract"
)]

use std::collections::HashMap;

use datagrid_simnet::time::SimTime;

use crate::host::{HostId, SimHost};

/// One host's registered information.
#[derive(Debug, Clone, PartialEq)]
pub struct MdsRecord {
    /// Registry id of the host.
    pub host: HostId,
    /// Host name.
    pub name: String,
    /// Core count.
    pub cores: u32,
    /// Clock in GHz.
    pub clock_ghz: f64,
    /// Memory in MiB.
    pub memory_mb: u64,
    /// Latest CPU idle fraction.
    pub cpu_idle: f64,
    /// Latest disk idle fraction.
    pub io_idle: f64,
    /// When the dynamic fields were last refreshed.
    pub updated: SimTime,
}

/// The information directory: register once, refresh often, query by name.
///
/// ```
/// use datagrid_simnet::rng::SimRng;
/// use datagrid_simnet::time::{SimDuration, SimTime};
/// use datagrid_sysmon::host::{HostId, HostSpec, SimHost};
/// use datagrid_sysmon::load::LoadModel;
/// use datagrid_sysmon::mds::MdsDirectory;
///
/// let host = SimHost::new(
///     HostSpec::new("alpha1"),
///     LoadModel::Constant(0.2),
///     LoadModel::Constant(0.0),
///     SimDuration::from_secs(10),
///     SimRng::seed_from_u64(1),
/// );
/// let mut mds = MdsDirectory::new();
/// mds.register(HostId(0), &host);
/// mds.refresh(HostId(0), &host, SimTime::ZERO);
/// assert_eq!(mds.lookup("alpha1").unwrap().cpu_idle, 0.8);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MdsDirectory {
    by_name: HashMap<String, MdsRecord>,
}

impl MdsDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        MdsDirectory::default()
    }

    /// Registers (or re-registers) a host.
    pub fn register(&mut self, id: HostId, host: &SimHost) {
        let spec = host.spec();
        self.by_name.insert(
            spec.name.clone(),
            MdsRecord {
                host: id,
                name: spec.name.clone(),
                cores: spec.cores,
                clock_ghz: spec.clock_ghz,
                memory_mb: spec.memory_mb,
                cpu_idle: host.cpu_idle(),
                io_idle: host.io_idle(),
                updated: SimTime::ZERO,
            },
        );
    }

    /// Refreshes a registered host's dynamic fields.
    ///
    /// # Panics
    ///
    /// Panics if the host was never registered.
    pub fn refresh(&mut self, id: HostId, host: &SimHost, now: SimTime) {
        let rec = self
            .by_name
            .get_mut(host.name())
            .unwrap_or_else(|| panic!("host {} not registered with MDS", host.name()));
        assert_eq!(rec.host, id, "host id changed between register and refresh");
        rec.cpu_idle = host.cpu_idle();
        rec.io_idle = host.io_idle();
        rec.updated = now;
    }

    /// Looks up a host by name.
    pub fn lookup(&self, name: &str) -> Option<&MdsRecord> {
        self.by_name.get(name)
    }

    /// All registered records in name order (deterministic iteration).
    #[expect(
        clippy::disallowed_methods,
        reason = "the records are sorted by name before they are returned"
    )]
    pub fn records(&self) -> Vec<&MdsRecord> {
        let mut v: Vec<&MdsRecord> = self.by_name.values().collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Number of registered hosts.
    pub fn len(&self) -> usize {
        self.by_name.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostSpec;
    use crate::load::LoadModel;
    use datagrid_simnet::rng::SimRng;
    use datagrid_simnet::time::SimDuration;

    fn host(name: &str, cpu: f64, io: f64) -> SimHost {
        SimHost::new(
            HostSpec::new(name).with_cpu(2, 2.0),
            LoadModel::Constant(cpu),
            LoadModel::Constant(io),
            SimDuration::from_secs(10),
            SimRng::seed_from_u64(1),
        )
    }

    #[test]
    fn register_and_lookup() {
        let h = host("alpha1", 0.3, 0.1);
        let mut mds = MdsDirectory::new();
        mds.register(HostId(0), &h);
        let rec = mds.lookup("alpha1").unwrap();
        assert_eq!(rec.cores, 2);
        assert!((rec.cpu_idle - 0.7).abs() < 1e-12);
        assert!(mds.lookup("nope").is_none());
    }

    #[test]
    fn refresh_updates_dynamic_fields() {
        let mut h = host("hit0", 0.0, 0.0);
        let mut mds = MdsDirectory::new();
        mds.register(HostId(3), &h);
        h.advance_to(SimTime::from_secs_f64(10.0));
        mds.refresh(HostId(3), &h, SimTime::from_secs_f64(10.0));
        let rec = mds.lookup("hit0").unwrap();
        assert_eq!(rec.updated, SimTime::from_secs_f64(10.0));
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn refresh_unregistered_panics() {
        let h = host("lz01", 0.0, 0.0);
        let mut mds = MdsDirectory::new();
        mds.refresh(HostId(0), &h, SimTime::ZERO);
    }

    #[test]
    fn records_sorted_by_name() {
        let mut mds = MdsDirectory::new();
        mds.register(HostId(0), &host("zeta", 0.0, 0.0));
        mds.register(HostId(1), &host("alpha", 0.0, 0.0));
        let names: Vec<&str> = mds.records().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        assert_eq!(mds.len(), 2);
    }
}
