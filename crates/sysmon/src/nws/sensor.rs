//! Per-path bandwidth sensors (the `nws_sensor` analogue).
//!
//! A [`BandwidthSensor`] watches one directed network path. The Data Grid
//! monitor feeds it throughput measurements (obtained from real probe
//! transfers inside the simulation); the sensor perturbs them with
//! multiplicative measurement noise, stores the series and keeps the NWS
//! forecaster battery up to date.

use datagrid_simnet::rng::SimRng;
use datagrid_simnet::time::SimTime;
use datagrid_simnet::topology::{Bandwidth, NodeId};

use super::forecast::MetaForecaster;
use super::series::TimeSeries;

/// A bandwidth sensor for one directed path.
///
/// ```
/// use datagrid_simnet::rng::SimRng;
/// use datagrid_simnet::time::SimTime;
/// use datagrid_simnet::topology::{Bandwidth, Topology};
/// use datagrid_sysmon::nws::sensor::BandwidthSensor;
///
/// let mut topo = Topology::new();
/// let a = topo.add_node("a");
/// let b = topo.add_node("b");
/// let mut s = BandwidthSensor::new(a, b, Bandwidth::from_mbps(100.0), 0.0, SimRng::seed_from_u64(1));
/// s.record(SimTime::from_secs_f64(1.0), Bandwidth::from_mbps(60.0));
/// assert!((s.forecast().unwrap().as_mbps() - 60.0).abs() < 1e-9);
/// assert!((s.bandwidth_fraction().unwrap() - 0.6).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthSensor {
    src: NodeId,
    dst: NodeId,
    theoretical: Bandwidth,
    noise_sigma: f64,
    rng: SimRng,
    series: TimeSeries,
    battery: MetaForecaster,
}

impl BandwidthSensor {
    /// Creates a sensor for `src -> dst`.
    ///
    /// `theoretical` is the highest theoretical bandwidth of the path (the
    /// denominator of the paper's `BW_P` factor). `noise_sigma` is the
    /// relative standard deviation of measurement noise (0 = noiseless).
    ///
    /// # Panics
    ///
    /// Panics if `theoretical` is zero or `noise_sigma` is negative.
    pub fn new(
        src: NodeId,
        dst: NodeId,
        theoretical: Bandwidth,
        noise_sigma: f64,
        rng: SimRng,
    ) -> Self {
        assert!(
            theoretical.as_bps() > 0.0,
            "theoretical bandwidth must be positive"
        );
        assert!(noise_sigma >= 0.0, "noise sigma must be non-negative");
        BandwidthSensor {
            src,
            dst,
            theoretical,
            noise_sigma,
            rng,
            series: TimeSeries::new(),
            battery: MetaForecaster::nws_battery(),
        }
    }

    /// Path source.
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// Path destination.
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// The path's highest theoretical bandwidth.
    pub fn theoretical(&self) -> Bandwidth {
        self.theoretical
    }

    /// Records a throughput measurement, applying measurement noise.
    /// Returns the (noisy) value actually stored.
    pub fn record(&mut self, time: SimTime, measured: Bandwidth) -> Bandwidth {
        let noisy = if self.noise_sigma > 0.0 {
            let factor = (1.0 + self.noise_sigma * self.rng.standard_normal()).max(0.0);
            Bandwidth::from_bps(measured.as_bps() * factor)
        } else {
            measured
        };
        self.series.push(time, noisy.as_bps());
        self.battery.update(noisy.as_bps());
        noisy
    }

    /// The current NWS forecast of path bandwidth, if warmed up.
    pub fn forecast(&self) -> Option<Bandwidth> {
        self.battery
            .forecast()
            .map(|bps| Bandwidth::from_bps(bps.max(0.0)))
    }

    /// The latest raw measurement.
    pub fn latest(&self) -> Option<Bandwidth> {
        self.series.latest().map(|s| Bandwidth::from_bps(s.value))
    }

    /// The paper's `BW_P` factor: forecast bandwidth divided by the highest
    /// theoretical bandwidth, clamped to `[0, 1]`.
    pub fn bandwidth_fraction(&self) -> Option<f64> {
        self.forecast()
            .map(|f| (f.as_bps() / self.theoretical.as_bps()).clamp(0.0, 1.0))
    }

    /// The stored measurement series.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// The forecaster battery (for accuracy reports).
    pub fn battery(&self) -> &MetaForecaster {
        &self.battery
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests pin exact values; outside library scope"
)]
mod tests {
    use super::*;
    use datagrid_simnet::topology::Topology;

    fn nodes() -> (NodeId, NodeId) {
        let mut t = Topology::new();
        (t.add_node("a"), t.add_node("b"))
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn noiseless_sensor_stores_exact_values() {
        let (a, b) = nodes();
        let mut s = BandwidthSensor::new(
            a,
            b,
            Bandwidth::from_mbps(100.0),
            0.0,
            SimRng::seed_from_u64(1),
        );
        let stored = s.record(t(1.0), Bandwidth::from_mbps(40.0));
        assert_eq!(stored.as_mbps(), 40.0);
        assert_eq!(s.latest().unwrap().as_mbps(), 40.0);
        assert_eq!(s.series().len(), 1);
    }

    #[test]
    fn noisy_sensor_perturbs_but_stays_nonnegative() {
        let (a, b) = nodes();
        let mut s = BandwidthSensor::new(
            a,
            b,
            Bandwidth::from_mbps(100.0),
            0.10,
            SimRng::seed_from_u64(7),
        );
        let mut any_different = false;
        for i in 0..100 {
            let stored = s.record(t(i as f64), Bandwidth::from_mbps(50.0));
            assert!(stored.as_bps() >= 0.0);
            if (stored.as_mbps() - 50.0).abs() > 1e-9 {
                any_different = true;
            }
        }
        assert!(any_different, "noise should perturb measurements");
        // Forecast should still hover near the true 50 Mbps.
        let f = s.forecast().unwrap().as_mbps();
        assert!((f - 50.0).abs() < 5.0, "forecast {f}");
    }

    #[test]
    fn fraction_clamps_to_unit_interval() {
        let (a, b) = nodes();
        let mut s = BandwidthSensor::new(
            a,
            b,
            Bandwidth::from_mbps(100.0),
            0.0,
            SimRng::seed_from_u64(1),
        );
        assert_eq!(s.bandwidth_fraction(), None);
        s.record(t(1.0), Bandwidth::from_mbps(150.0)); // over-measurement
        assert_eq!(s.bandwidth_fraction(), Some(1.0));
    }

    #[test]
    fn forecast_tracks_changing_conditions() {
        let (a, b) = nodes();
        let mut s = BandwidthSensor::new(
            a,
            b,
            Bandwidth::from_mbps(100.0),
            0.0,
            SimRng::seed_from_u64(1),
        );
        for i in 0..30 {
            s.record(t(i as f64), Bandwidth::from_mbps(80.0));
        }
        for i in 30..60 {
            s.record(t(i as f64), Bandwidth::from_mbps(20.0));
        }
        let f = s.forecast().unwrap().as_mbps();
        assert!(f < 40.0, "forecast {f} should have adapted downwards");
    }
}
