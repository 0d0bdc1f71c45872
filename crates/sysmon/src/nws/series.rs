//! Bounded measurement time series (the `nws_memory` analogue).

use datagrid_simnet::time::{SimDuration, SimTime};

/// One timestamped measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the measurement was taken.
    pub time: SimTime,
    /// The measured value (bandwidth sensors store bits per second).
    pub value: f64,
}

/// A bounded, append-only time series of measurements.
///
/// ```
/// use datagrid_simnet::time::SimTime;
/// use datagrid_sysmon::nws::series::TimeSeries;
///
/// let mut s = TimeSeries::with_capacity(100);
/// s.push(SimTime::from_secs_f64(1.0), 10.0);
/// s.push(SimTime::from_secs_f64(2.0), 20.0);
/// assert_eq!(s.latest().unwrap().value, 20.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    samples: Vec<Sample>,
    cap: usize,
}

impl Default for TimeSeries {
    fn default() -> Self {
        TimeSeries::new()
    }
}

impl TimeSeries {
    /// Default retention bound.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Creates a series with the default retention bound.
    pub fn new() -> Self {
        TimeSeries::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a series retaining at most `cap` samples.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap > 0, "series capacity must be positive");
        TimeSeries {
            samples: Vec::new(),
            cap,
        }
    }

    /// Appends a measurement. Time must be nondecreasing.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the latest sample or `value` is not
    /// finite.
    pub fn push(&mut self, time: SimTime, value: f64) {
        assert!(value.is_finite(), "measurement must be finite, got {value}");
        if let Some(last) = self.samples.last() {
            assert!(time >= last.time, "measurements must be time ordered");
        }
        if self.samples.len() == self.cap {
            self.samples.remove(0);
        }
        self.samples.push(Sample { time, value });
    }

    /// The most recent sample.
    pub fn latest(&self) -> Option<Sample> {
        self.samples.last().copied()
    }

    /// All retained samples, oldest first.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples are retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples within the window `[now - window, now]`.
    pub fn window(&self, now: SimTime, window: SimDuration) -> &[Sample] {
        let cutoff = if window.as_nanos() >= now.as_nanos() {
            SimTime::ZERO
        } else {
            now - window
        };
        let start = self.samples.partition_point(|s| s.time < cutoff);
        &self.samples[start..]
    }

    /// Arithmetic mean of the values in `[now - window, now]`, or `None` if
    /// the window is empty. This is the "time scale" averaging shown in the
    /// paper's Fig. 5 GUI.
    pub fn mean_over(&self, now: SimTime, window: SimDuration) -> Option<f64> {
        let w = self.window(now, window);
        if w.is_empty() {
            None
        } else {
            Some(w.iter().map(|s| s.value).sum::<f64>() / w.len() as f64)
        }
    }
}

impl Extend<Sample> for TimeSeries {
    fn extend<T: IntoIterator<Item = Sample>>(&mut self, iter: T) {
        for s in iter {
            self.push(s.time, s.value);
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

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn push_and_latest() {
        let mut s = TimeSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.latest(), None);
        s.push(t(1.0), 5.0);
        s.push(t(2.0), 7.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.latest().unwrap().value, 7.0);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut s = TimeSeries::with_capacity(3);
        for i in 0..5 {
            s.push(t(i as f64), i as f64);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.samples()[0].value, 2.0);
    }

    #[test]
    fn window_selects_recent() {
        let mut s = TimeSeries::new();
        for i in 0..10 {
            s.push(t(i as f64 * 10.0), i as f64);
        }
        // now = 90, window 25 s -> samples at 70, 80, 90.
        let w = s.window(t(90.0), SimDuration::from_secs(25));
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].value, 7.0);
    }

    #[test]
    fn window_larger_than_history() {
        let mut s = TimeSeries::new();
        s.push(t(5.0), 1.0);
        let w = s.window(t(10.0), SimDuration::from_secs(100));
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn mean_over_matches_manual() {
        let mut s = TimeSeries::new();
        for i in 1..=4 {
            s.push(t(i as f64), i as f64);
        }
        // window covering samples 3 and 4.
        let m = s.mean_over(t(4.0), SimDuration::from_secs(1)).unwrap();
        assert!((m - 3.5).abs() < 1e-12);
        assert_eq!(
            TimeSeries::new().mean_over(t(1.0), SimDuration::from_secs(1)),
            None
        );
    }

    #[test]
    #[should_panic(expected = "time ordered")]
    fn out_of_order_rejected() {
        let mut s = TimeSeries::new();
        s.push(t(2.0), 1.0);
        s.push(t(1.0), 1.0);
    }
}
