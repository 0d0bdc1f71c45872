//! Background traffic generation.
//!
//! The paper's testbed sat on live university WAN links, so the bandwidth
//! available to any transfer fluctuated with other people's traffic — which
//! is precisely why replica selection needs monitoring and forecasting. We
//! reproduce that environment with per-path Poisson flow arrivals whose
//! sizes are heavy-tailed (lognormal): each arrival becomes a real flow in
//! the max-min solver, so foreground transfers genuinely compete for
//! capacity.

use crate::topology::{Bandwidth, NodeId};

/// A stationary background traffic source between two nodes.
///
/// Arrivals form a Poisson process with rate [`arrival_rate_hz`]; each flow
/// carries a lognormal number of bytes with the given mean and shape, capped
/// per-flow at `flow_cap` (a background flow is itself one TCP stream).
///
/// ```
/// use datagrid_simnet::background::BackgroundProfile;
/// use datagrid_simnet::topology::{Bandwidth, NodeId, Topology};
///
/// let mut topo = Topology::new();
/// let a = topo.add_node("wan-a");
/// let b = topo.add_node("wan-b");
/// let profile = BackgroundProfile::new(a, b, 0.5, 4e6)
///     .with_flow_cap(Bandwidth::from_mbps(20.0));
/// assert_eq!(profile.src, a);
/// ```
///
/// [`arrival_rate_hz`]: BackgroundProfile::arrival_rate_hz
#[derive(Debug, Clone, PartialEq)]
pub struct BackgroundProfile {
    /// Source node of the background flows.
    pub src: NodeId,
    /// Destination node of the background flows.
    pub dst: NodeId,
    /// Mean flow arrivals per simulated second.
    pub arrival_rate_hz: f64,
    /// Mean flow size in bytes.
    pub mean_size_bytes: f64,
    /// Lognormal shape parameter of the size distribution (sigma of the
    /// underlying normal); 0 gives constant sizes.
    pub size_sigma: f64,
    /// Per-flow rate ceiling (one TCP stream's worth); `None` = uncapped.
    pub flow_cap: Option<Bandwidth>,
}

impl BackgroundProfile {
    /// Creates a profile with the default heavy-tail shape (sigma = 1).
    ///
    /// # Panics
    ///
    /// Panics if the arrival rate or mean size is not strictly positive.
    pub fn new(src: NodeId, dst: NodeId, arrival_rate_hz: f64, mean_size_bytes: f64) -> Self {
        assert!(
            arrival_rate_hz > 0.0 && arrival_rate_hz.is_finite(),
            "arrival rate must be positive, got {arrival_rate_hz}"
        );
        assert!(
            mean_size_bytes > 0.0 && mean_size_bytes.is_finite(),
            "mean size must be positive, got {mean_size_bytes}"
        );
        BackgroundProfile {
            src,
            dst,
            arrival_rate_hz,
            mean_size_bytes,
            size_sigma: 1.0,
            flow_cap: None,
        }
    }

    /// Sets the lognormal shape parameter.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or non-finite.
    pub fn with_size_sigma(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0 && sigma.is_finite(), "bad sigma {sigma}");
        self.size_sigma = sigma;
        self
    }

    /// Sets a per-flow rate ceiling.
    pub fn with_flow_cap(mut self, cap: Bandwidth) -> Self {
        self.flow_cap = Some(cap);
        self
    }

    /// Mean offered load in bits per second (`rate × mean size × 8`).
    pub fn offered_load(&self) -> Bandwidth {
        Bandwidth::from_bps(self.arrival_rate_hz * self.mean_size_bytes * 8.0)
    }

    /// Builds a profile that offers `utilization` (0–1) of `capacity` using
    /// flows of `mean_size_bytes`, deriving the arrival rate.
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is not in `(0, 1]` or `mean_size_bytes` is
    /// not positive.
    pub fn for_utilization(
        src: NodeId,
        dst: NodeId,
        capacity: Bandwidth,
        utilization: f64,
        mean_size_bytes: f64,
    ) -> Self {
        assert!(
            utilization > 0.0 && utilization <= 1.0,
            "utilization must be in (0, 1], got {utilization}"
        );
        let target_bps = capacity.as_bps() * utilization;
        let rate = target_bps / (mean_size_bytes * 8.0);
        BackgroundProfile::new(src, dst, rate, mean_size_bytes)
    }
}

/// A set of background profiles, convenient for building symmetric WAN
/// cross-traffic before installing it into a
/// [`NetSim`](crate::engine::NetSim).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BackgroundTraffic {
    profiles: Vec<BackgroundProfile>,
}

impl BackgroundTraffic {
    /// Creates an empty set.
    pub fn new() -> Self {
        BackgroundTraffic::default()
    }

    /// Adds one profile.
    pub fn push(&mut self, profile: BackgroundProfile) -> &mut Self {
        self.profiles.push(profile);
        self
    }

    /// Adds a symmetric pair of profiles (one per direction).
    pub fn push_symmetric(&mut self, profile: BackgroundProfile) -> &mut Self {
        let mut reverse = profile.clone();
        std::mem::swap(&mut reverse.src, &mut reverse.dst);
        self.profiles.push(profile);
        self.profiles.push(reverse);
        self
    }

    /// The profiles collected so far.
    pub fn profiles(&self) -> &[BackgroundProfile] {
        &self.profiles
    }

    /// Consumes the set, returning the profiles.
    pub fn into_profiles(self) -> Vec<BackgroundProfile> {
        self.profiles
    }
}

impl Extend<BackgroundProfile> for BackgroundTraffic {
    fn extend<T: IntoIterator<Item = BackgroundProfile>>(&mut self, iter: T) {
        self.profiles.extend(iter);
    }
}

impl FromIterator<BackgroundProfile> for BackgroundTraffic {
    fn from_iter<T: IntoIterator<Item = BackgroundProfile>>(iter: T) -> Self {
        BackgroundTraffic {
            profiles: Vec::from_iter(iter),
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
    use crate::topology::Topology;

    fn two_nodes() -> (NodeId, NodeId) {
        let mut t = Topology::new();
        (t.add_node("a"), t.add_node("b"))
    }

    #[test]
    fn offered_load_matches_parameters() {
        let (a, b) = two_nodes();
        let p = BackgroundProfile::new(a, b, 2.0, 1_000_000.0);
        assert_eq!(p.offered_load().as_mbps(), 16.0);
    }

    #[test]
    fn for_utilization_derives_rate() {
        let (a, b) = two_nodes();
        let p = BackgroundProfile::for_utilization(a, b, Bandwidth::from_mbps(30.0), 0.4, 3e6);
        assert!((p.offered_load().as_mbps() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn symmetric_push_swaps_endpoints() {
        let (a, b) = two_nodes();
        let mut bg = BackgroundTraffic::new();
        bg.push_symmetric(BackgroundProfile::new(a, b, 1.0, 1e6));
        assert_eq!(bg.profiles().len(), 2);
        assert_eq!(bg.profiles()[0].src, a);
        assert_eq!(bg.profiles()[1].src, b);
        assert_eq!(bg.profiles()[1].dst, a);
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn bad_utilization_rejected() {
        let (a, b) = two_nodes();
        let _ = BackgroundProfile::for_utilization(a, b, Bandwidth::from_mbps(30.0), 1.5, 1e6);
    }
}
