//! Deterministic fault injection: seeded schedules of link and host faults.
//!
//! A [`FaultPlan`] is a list of [`ScheduledFault`]s — link flaps, bandwidth
//! brown-outs, host degradation/blackouts and mid-transfer connection drops —
//! installed on a [`crate::engine::NetSim`] before (or during) a run. The
//! engine applies each fault at its start time, restores the network at its
//! end time, and announces both transitions to drivers as
//! [`crate::engine::EventKind::FaultChanged`] events.
//!
//! Everything is deterministic: plans are plain data, and the only random
//! generator ([`FaultPlan::random_link_flaps`]) draws from a caller-supplied
//! [`SimRng`], so the same seed always yields the same fault timeline.
//!
//! ```
//! use datagrid_simnet::prelude::*;
//!
//! let mut topo = Topology::new();
//! let a = topo.add_node("a");
//! let b = topo.add_node("b");
//! let (ab, _) = topo.add_duplex_link(
//!     a,
//!     b,
//!     LinkSpec::new(Bandwidth::from_mbps(100.0), SimDuration::from_millis(1)),
//! );
//! let plan = FaultPlan::new()
//!     .link_down(SimTime::from_secs_f64(5.0), SimDuration::from_secs(10), ab)
//!     .host_degraded(SimTime::from_secs_f64(30.0), SimDuration::from_secs(5), b, 0.5);
//! assert_eq!(plan.len(), 2);
//! ```

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkId, NodeId};

/// What a scheduled fault does to the network while it is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// A directed link goes completely dark (capacity zero). Flows routed
    /// over it stall until the fault clears.
    LinkDown {
        /// The affected directed link.
        link: LinkId,
    },
    /// A directed link keeps only `factor` of its capacity (brown-out).
    LinkBrownout {
        /// The affected directed link.
        link: LinkId,
        /// Remaining capacity fraction in `(0, 1)`.
        factor: f64,
    },
    /// Every link touching `node` goes dark — the host drops off the grid.
    HostBlackout {
        /// The affected host.
        node: NodeId,
    },
    /// Every link touching `node` keeps only `factor` of its capacity
    /// (overloaded NIC, thrashing disk, sick switch port).
    HostDegraded {
        /// The affected host.
        node: NodeId,
        /// Remaining capacity fraction in `(0, 1)`.
        factor: f64,
    },
    /// Every established connection (active flow) through `node` is reset at
    /// the fault's start instant; capacity is unaffected. Models a daemon
    /// crash or TCP RST storm rather than a line cut.
    ConnectionDrop {
        /// The host whose connections are reset.
        node: NodeId,
    },
}

impl FaultKind {
    /// Short stable label for logs and observability exports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::LinkDown { .. } => "link_down",
            FaultKind::LinkBrownout { .. } => "link_brownout",
            FaultKind::HostBlackout { .. } => "host_blackout",
            FaultKind::HostDegraded { .. } => "host_degraded",
            FaultKind::ConnectionDrop { .. } => "connection_drop",
        }
    }

    /// `true` for faults applied at a single instant with no active window.
    pub fn is_instant(&self) -> bool {
        matches!(self, FaultKind::ConnectionDrop { .. })
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::LinkDown { link } => write!(f, "link_down({link})"),
            FaultKind::LinkBrownout { link, factor } => {
                write!(f, "link_brownout({link}, x{factor:.2})")
            }
            FaultKind::HostBlackout { node } => write!(f, "host_blackout({node})"),
            FaultKind::HostDegraded { node, factor } => {
                write!(f, "host_degraded({node}, x{factor:.2})")
            }
            FaultKind::ConnectionDrop { node } => write!(f, "connection_drop({node})"),
        }
    }
}

/// One fault with its activation window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledFault {
    /// When the fault takes effect.
    pub at: SimTime,
    /// How long it lasts (ignored for instant faults such as
    /// [`FaultKind::ConnectionDrop`]).
    pub duration: SimDuration,
    /// What the fault does.
    pub kind: FaultKind,
}

impl ScheduledFault {
    /// When the network recovers from this fault.
    pub fn ends(&self) -> SimTime {
        self.at + self.duration
    }
}

/// A seeded, ordered schedule of faults to inject into a simulation.
///
/// Build one with the fluent helpers ([`FaultPlan::link_down`],
/// [`FaultPlan::host_blackout`], ...) or generate random link flaps with
/// [`FaultPlan::random_link_flaps`], then hand it to
/// `NetSim::install_fault_plan` (or `DataGrid::install_fault_plan`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds an arbitrary scheduled fault.
    ///
    /// # Panics
    ///
    /// Panics if a brown-out/degradation factor is outside `[0, 1)`.
    pub fn push(&mut self, fault: ScheduledFault) {
        if let FaultKind::LinkBrownout { factor, .. } | FaultKind::HostDegraded { factor, .. } =
            fault.kind
        {
            assert!(
                (0.0..1.0).contains(&factor),
                "fault factor must be in [0, 1), got {factor}"
            );
        }
        self.faults.push(fault);
        self.faults.sort_by_key(|f| f.at);
    }

    /// Schedules a full outage of one directed link.
    pub fn link_down(mut self, at: SimTime, duration: SimDuration, link: LinkId) -> Self {
        self.push(ScheduledFault {
            at,
            duration,
            kind: FaultKind::LinkDown { link },
        });
        self
    }

    /// Schedules a capacity brown-out of one directed link.
    pub fn link_brownout(
        mut self,
        at: SimTime,
        duration: SimDuration,
        link: LinkId,
        factor: f64,
    ) -> Self {
        self.push(ScheduledFault {
            at,
            duration,
            kind: FaultKind::LinkBrownout { link, factor },
        });
        self
    }

    /// Schedules a blackout of every link touching `node`.
    pub fn host_blackout(mut self, at: SimTime, duration: SimDuration, node: NodeId) -> Self {
        self.push(ScheduledFault {
            at,
            duration,
            kind: FaultKind::HostBlackout { node },
        });
        self
    }

    /// Schedules a capacity degradation of every link touching `node`.
    pub fn host_degraded(
        mut self,
        at: SimTime,
        duration: SimDuration,
        node: NodeId,
        factor: f64,
    ) -> Self {
        self.push(ScheduledFault {
            at,
            duration,
            kind: FaultKind::HostDegraded { node, factor },
        });
        self
    }

    /// Schedules an instant reset of all connections through `node`.
    pub fn connection_drop(mut self, at: SimTime, node: NodeId) -> Self {
        self.push(ScheduledFault {
            at,
            duration: SimDuration::ZERO,
            kind: FaultKind::ConnectionDrop { node },
        });
        self
    }

    /// Generates Poisson-arrival link flaps over `horizon` for each link in
    /// `links`: flaps arrive at `flap_rate_hz` per link and each outage lasts
    /// an exponential time with mean `mean_outage`. Deterministic for a given
    /// `rng` state.
    pub fn random_link_flaps(
        rng: &mut SimRng,
        links: &[LinkId],
        horizon: SimDuration,
        flap_rate_hz: f64,
        mean_outage: SimDuration,
    ) -> Self {
        let mut plan = FaultPlan::new();
        let outage_rate = 1.0 / mean_outage.as_secs_f64().max(1e-9);
        for &link in links {
            let mut t = SimTime::ZERO + SimDuration::from_secs_f64(rng.exponential(flap_rate_hz));
            while t < SimTime::ZERO + horizon {
                let outage = SimDuration::from_secs_f64(rng.exponential(outage_rate));
                plan.push(ScheduledFault {
                    at: t,
                    duration: outage,
                    kind: FaultKind::LinkDown { link },
                });
                t = t + outage + SimDuration::from_secs_f64(rng.exponential(flap_rate_hz));
            }
        }
        plan
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// `true` if the plan has no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The scheduled faults in start-time order.
    pub fn iter(&self) -> impl Iterator<Item = &ScheduledFault> {
        self.faults.iter()
    }

    pub(crate) fn into_faults(self) -> Vec<ScheduledFault> {
        self.faults
    }
}

#[cfg(test)]
#[allow(
    clippy::cast_possible_truncation,
    reason = "tests pin exact values; outside library scope"
)]
mod tests {
    use super::*;

    #[test]
    fn plan_sorts_by_start_time() {
        let plan = FaultPlan::new()
            .host_blackout(
                SimTime::from_secs_f64(30.0),
                SimDuration::from_secs(1),
                NodeId(0),
            )
            .link_down(
                SimTime::from_secs_f64(5.0),
                SimDuration::from_secs(2),
                LinkId(1),
            );
        let starts: Vec<u64> = plan.iter().map(|f| f.at.as_secs_f64() as u64).collect();
        assert_eq!(starts, vec![5, 30]);
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
    }

    #[test]
    fn fault_labels_and_windows() {
        let f = ScheduledFault {
            at: SimTime::from_secs_f64(10.0),
            duration: SimDuration::from_secs(5),
            kind: FaultKind::LinkDown { link: LinkId(3) },
        };
        assert_eq!(f.ends(), SimTime::from_secs_f64(15.0));
        assert_eq!(f.kind.label(), "link_down");
        assert!(!f.kind.is_instant());
        assert!(FaultKind::ConnectionDrop { node: NodeId(1) }.is_instant());
        assert_eq!(format!("{}", f.kind), "link_down(l3)");
    }

    #[test]
    #[should_panic(expected = "fault factor")]
    fn out_of_range_factor_rejected() {
        let _ = FaultPlan::new().link_brownout(
            SimTime::ZERO,
            SimDuration::from_secs(1),
            LinkId(0),
            1.5,
        );
    }

    #[test]
    fn random_flaps_are_deterministic() {
        let gen = |seed: u64| {
            let mut rng = SimRng::seed_from_u64(seed);
            FaultPlan::random_link_flaps(
                &mut rng,
                &[LinkId(0), LinkId(1)],
                SimDuration::from_secs(600),
                1.0 / 60.0,
                SimDuration::from_secs(10),
            )
        };
        let a = gen(7);
        let b = gen(7);
        assert_eq!(a, b);
        assert_ne!(a, gen(8));
        assert!(!a.is_empty(), "600 s at ~1 flap/min should flap");
        for f in a.iter() {
            assert!(f.at < SimTime::ZERO + SimDuration::from_secs(600));
        }
    }
}
