//! Link utilisation tracing.
//!
//! Debugging a Data Grid experiment usually starts with "what was the
//! network doing?". A [`NetworkTrace`] records instantaneous utilisation
//! samples for selected links whenever its owner calls
//! [`NetworkTrace::sample`] (the Data Grid does so on monitoring ticks),
//! and answers windowed queries over the recorded history.

#![expect(
    clippy::expect_used,
    reason = "utilisation samples are finite by construction"
)]

use std::collections::{BTreeMap, VecDeque};

use crate::engine::NetSim;
use crate::time::{SimDuration, SimTime};
use crate::topology::LinkId;

/// One recorded utilisation sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationSample {
    /// Sample time.
    pub time: SimTime,
    /// Utilisation in `[0, 1]`.
    pub utilization: f64,
}

/// Bounded utilisation history for one directed link.
///
/// Stored as a ring buffer: once the retention bound is reached, each new
/// sample evicts the oldest in O(1) (a `Vec` here would shift the whole
/// history on every push — O(n) per sample, quadratic over a long run).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkTrace {
    samples: VecDeque<UtilizationSample>,
    cap: usize,
}

impl LinkTrace {
    /// Default retention bound.
    pub const DEFAULT_CAPACITY: usize = 8192;

    fn new() -> Self {
        LinkTrace {
            samples: VecDeque::new(),
            cap: Self::DEFAULT_CAPACITY,
        }
    }

    fn push(&mut self, time: SimTime, utilization: f64) {
        if self.samples.len() == self.cap {
            self.samples.pop_front();
        }
        self.samples
            .push_back(UtilizationSample { time, utilization });
    }

    /// The recorded samples, oldest first.
    pub fn samples(&self) -> impl ExactSizeIterator<Item = &UtilizationSample> {
        self.samples.iter()
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no sample has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean utilisation over `[now - window, now]`, or `None` when no
    /// samples fall inside.
    pub fn mean_over(&self, now: SimTime, window: SimDuration) -> Option<f64> {
        let cutoff = if window.as_nanos() >= now.as_nanos() {
            SimTime::ZERO
        } else {
            now - window
        };
        let relevant: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.time >= cutoff && s.time <= now)
            .map(|s| s.utilization)
            .collect();
        if relevant.is_empty() {
            None
        } else {
            Some(relevant.iter().sum::<f64>() / relevant.len() as f64)
        }
    }

    /// The highest recorded utilisation, if any.
    pub fn peak(&self) -> Option<f64> {
        self.samples
            .iter()
            .map(|s| s.utilization)
            .max_by(|a, b| a.partial_cmp(b).expect("finite utilisation"))
    }
}

/// Utilisation traces for a set of links.
///
/// ```
/// use datagrid_simnet::prelude::*;
/// use datagrid_simnet::trace::NetworkTrace;
///
/// let mut topo = Topology::new();
/// let a = topo.add_node("a");
/// let b = topo.add_node("b");
/// let (fwd, _) = topo.add_duplex_link(
///     a, b, LinkSpec::new(Bandwidth::from_mbps(100.0), SimDuration::from_millis(1)));
/// let mut sim = NetSim::new(topo, 1);
/// let mut trace = NetworkTrace::watching([fwd]);
///
/// sim.start_flow(FlowSpec::new(a, b, 10_000_000));
/// trace.sample(&sim);
/// assert!(trace.link(fwd).unwrap().peak().unwrap() > 0.9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NetworkTrace {
    traces: BTreeMap<LinkId, LinkTrace>,
}

impl NetworkTrace {
    /// Creates a trace watching the given links.
    pub fn watching<I: IntoIterator<Item = LinkId>>(links: I) -> Self {
        NetworkTrace {
            traces: links.into_iter().map(|l| (l, LinkTrace::new())).collect(),
        }
    }

    /// Records one utilisation sample per watched link at the simulator's
    /// current time.
    pub fn sample(&mut self, sim: &NetSim) {
        let now = sim.now();
        for (link, trace) in &mut self.traces {
            trace.push(now, sim.link_utilization(*link));
        }
    }

    /// The trace of one link, if watched.
    pub fn link(&self, link: LinkId) -> Option<&LinkTrace> {
        self.traces.get(&link)
    }

    /// Iterates `(link, trace)` pairs in link order.
    pub fn iter(&self) -> impl Iterator<Item = (LinkId, &LinkTrace)> {
        self.traces.iter().map(|(l, t)| (*l, t))
    }

    /// Number of watched links.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// `true` when no links are watched.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests pin exact values; outside library scope"
)]
mod tests {
    use super::*;
    use crate::engine::{EventKind, FlowSpec};
    use crate::topology::{Bandwidth, LinkSpec, Topology};

    fn setup() -> (
        NetSim,
        crate::topology::NodeId,
        crate::topology::NodeId,
        LinkId,
    ) {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let (fwd, _) = topo.add_duplex_link(
            a,
            b,
            LinkSpec::new(Bandwidth::from_mbps(100.0), SimDuration::from_millis(1)),
        );
        (NetSim::new(topo, 1), a, b, fwd)
    }

    #[test]
    fn samples_track_flow_lifecycle() {
        let (mut sim, a, b, fwd) = setup();
        let mut trace = NetworkTrace::watching([fwd]);
        trace.sample(&sim);
        sim.start_flow(FlowSpec::new(a, b, 12_500_000).with_cap(Bandwidth::from_mbps(50.0)));
        trace.sample(&sim);
        // Drain the flow.
        while let Some(ev) = sim.next_event() {
            if matches!(ev.kind, EventKind::FlowCompleted(_)) {
                break;
            }
        }
        trace.sample(&sim);
        let t = trace.link(fwd).unwrap();
        let utils: Vec<f64> = t.samples().map(|s| s.utilization).collect();
        assert_eq!(utils.len(), 3);
        assert_eq!(utils[0], 0.0);
        assert!((utils[1] - 0.5).abs() < 1e-9);
        assert_eq!(utils[2], 0.0);
        assert!((t.peak().unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn windowed_mean_selects_recent_samples() {
        let (mut sim, a, b, fwd) = setup();
        let mut trace = NetworkTrace::watching([fwd]);
        // Idle sample at t=0.
        trace.sample(&sim);
        // Busy sample at t=1s.
        sim.schedule_timer(SimTime::from_secs_f64(1.0), 1);
        let _ = sim.next_event();
        sim.start_flow(FlowSpec::new(a, b, 1_000_000_000));
        trace.sample(&sim);
        let t = trace.link(fwd).unwrap();
        let now = SimTime::from_secs_f64(1.0);
        // Narrow window: only the busy sample.
        let recent = t.mean_over(now, SimDuration::from_millis(500)).unwrap();
        assert!((recent - 1.0).abs() < 1e-9);
        // Wide window: both samples.
        let wide = t.mean_over(now, SimDuration::from_secs(10)).unwrap();
        assert!((wide - 0.5).abs() < 1e-9);
        // Empty window in the past.
        assert_eq!(t.mean_over(SimTime::ZERO, SimDuration::ZERO), Some(0.0));
    }

    #[test]
    fn capacity_evicts_oldest_sample() {
        let mut t = LinkTrace::new();
        for i in 0..(LinkTrace::DEFAULT_CAPACITY + 10) {
            t.push(SimTime::from_nanos(i as u64), 0.25);
        }
        assert_eq!(t.len(), LinkTrace::DEFAULT_CAPACITY);
        let first = t.samples().next().expect("non-empty");
        assert_eq!(first.time, SimTime::from_nanos(10));
    }

    #[test]
    fn unwatched_links_are_absent() {
        let (_, _, _, fwd) = setup();
        let trace = NetworkTrace::watching([]);
        assert!(trace.is_empty());
        assert!(trace.link(fwd).is_none());
        let trace = NetworkTrace::watching([fwd]);
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.iter().count(), 1);
    }
}
