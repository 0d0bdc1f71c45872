//! Median-based forecasters (robust to outliers, which matter for
//! bandwidth probes sharing links with bursty cross traffic).

#![expect(
    clippy::expect_used,
    reason = "sliding windows are non-empty whenever consulted; measurements reject NaN"
)]

use std::collections::VecDeque;

use super::Forecaster;

fn median_of(values: impl Iterator<Item = f64>) -> Option<f64> {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite measurements"));
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    })
}

/// Median of the most recent `window` measurements.
#[derive(Debug, Clone)]
pub struct SlidingMedian {
    window: usize,
    buf: VecDeque<f64>,
}

impl SlidingMedian {
    /// Creates a sliding median over the given window length.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        SlidingMedian {
            window,
            buf: VecDeque::with_capacity(window),
        }
    }
}

impl Forecaster for SlidingMedian {
    fn name(&self) -> &'static str {
        "sliding_median"
    }

    fn update(&mut self, value: f64) {
        if self.buf.len() == self.window {
            self.buf.pop_front();
        }
        self.buf.push_back(value);
    }

    fn forecast(&self) -> Option<f64> {
        median_of(self.buf.iter().copied())
    }

    fn clone_box(&self) -> Box<dyn Forecaster> {
        Box::new(self.clone())
    }
}

/// Sliding median with an adaptive window, analogous to
/// [`AdaptiveMean`](super::mean::AdaptiveMean): the window drifts shorter
/// when a half-length median would have predicted the newest value better,
/// longer otherwise.
#[derive(Debug, Clone)]
pub struct AdaptiveMedian {
    min_window: usize,
    max_window: usize,
    window: usize,
    buf: VecDeque<f64>,
}

impl AdaptiveMedian {
    /// Creates an adaptive median with window bounds.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min_window <= max_window`.
    pub fn new(min_window: usize, max_window: usize) -> Self {
        assert!(
            min_window > 0 && min_window <= max_window,
            "need 0 < min ({min_window}) <= max ({max_window})"
        );
        AdaptiveMedian {
            min_window,
            max_window,
            window: min_window,
            buf: VecDeque::with_capacity(max_window),
        }
    }

    /// The current adapted window length.
    pub fn current_window(&self) -> usize {
        self.window
    }

    fn median_of_last(&self, n: usize) -> Option<f64> {
        let n = n.min(self.buf.len());
        median_of(self.buf.iter().rev().take(n).copied())
    }
}

impl Forecaster for AdaptiveMedian {
    fn name(&self) -> &'static str {
        "adaptive_median"
    }

    fn update(&mut self, value: f64) {
        if self.buf.len() >= self.min_window {
            let full = self.median_of_last(self.window).expect("non-empty");
            let half = self
                .median_of_last((self.window / 2).max(self.min_window))
                .expect("non-empty");
            if (half - value).abs() < (full - value).abs() {
                self.window = (self.window - 1).max(self.min_window);
            } else {
                self.window = (self.window + 1).min(self.max_window);
            }
        }
        if self.buf.len() == self.max_window {
            self.buf.pop_front();
        }
        self.buf.push_back(value);
    }

    fn forecast(&self) -> Option<f64> {
        self.median_of_last(self.window)
    }

    fn clone_box(&self) -> Box<dyn Forecaster> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliding_median_basic() {
        let mut f = SlidingMedian::new(3);
        assert_eq!(f.forecast(), None);
        f.update(1.0);
        f.update(100.0);
        f.update(2.0);
        assert_eq!(f.forecast(), Some(2.0));
    }

    #[test]
    fn sliding_median_even_window() {
        let mut f = SlidingMedian::new(4);
        for x in [1.0, 2.0, 3.0, 10.0] {
            f.update(x);
        }
        assert_eq!(f.forecast(), Some(2.5));
    }

    #[test]
    fn sliding_median_evicts() {
        let mut f = SlidingMedian::new(2);
        f.update(1000.0);
        f.update(5.0);
        f.update(7.0);
        assert_eq!(f.forecast(), Some(6.0));
    }

    #[test]
    fn median_robust_to_single_outlier() {
        let mut f = SlidingMedian::new(5);
        for x in [10.0, 10.0, 10.0, 10.0, 500.0] {
            f.update(x);
        }
        assert_eq!(f.forecast(), Some(10.0));
    }

    #[test]
    fn adaptive_median_tracks_shift() {
        let mut f = AdaptiveMedian::new(2, 32);
        for _ in 0..32 {
            f.update(10.0);
        }
        for _ in 0..24 {
            f.update(80.0);
        }
        let fc = f.forecast().unwrap();
        assert!(
            fc > 50.0,
            "adaptive median should track the shift, got {fc}"
        );
    }

    #[test]
    fn adaptive_median_bounds_respected() {
        let mut f = AdaptiveMedian::new(3, 8);
        for i in 0..200 {
            f.update(((i * 13) % 11) as f64);
            assert!((3..=8).contains(&f.current_window()));
        }
    }
}
