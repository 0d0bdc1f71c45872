//! The NWS forecaster battery.
//!
//! NWS's key insight is that no single cheap predictor wins everywhere, so
//! it runs them all and *dynamically selects* the one with the lowest
//! cumulative error so far. [`MetaForecaster`] implements that strategy
//! over the full battery:
//!
//! | forecaster | module |
//! |---|---|
//! | last value | [`smoothing::LastValue`] |
//! | running mean | [`mean::RunningMean`] |
//! | sliding window mean | [`mean::SlidingMean`] |
//! | adaptive window mean | [`mean::AdaptiveMean`] |
//! | trimmed sliding mean | [`mean::TrimmedMean`] |
//! | sliding window median | [`median::SlidingMedian`] |
//! | adaptive window median | [`median::AdaptiveMedian`] |
//! | exponential smoothing (two gains) | [`smoothing::ExpSmoothing`] |
//! | AR(1) regression | [`ar::Ar1Forecaster`] |

pub mod ar;
pub mod mean;
pub mod median;
pub mod smoothing;

pub use ar::Ar1Forecaster;
pub use mean::{AdaptiveMean, RunningMean, SlidingMean, TrimmedMean};
pub use median::{AdaptiveMedian, SlidingMedian};
pub use smoothing::{ExpSmoothing, LastValue};

/// A one-step-ahead forecaster over a scalar measurement stream.
///
/// Implementations are updated with each new measurement and asked for a
/// prediction of the *next* one. They must be cheap: NWS runs the whole
/// battery on every sample.
pub trait Forecaster: std::fmt::Debug + Send {
    /// Short stable name for reports.
    fn name(&self) -> &'static str;

    /// Feeds one new measurement.
    fn update(&mut self, value: f64);

    /// Predicts the next measurement; `None` until enough data has arrived.
    fn forecast(&self) -> Option<f64>;

    /// Clones into a boxed trait object (forecasters live in heterogeneous
    /// batteries that must themselves be cloneable).
    fn clone_box(&self) -> Box<dyn Forecaster>;
}

impl Clone for Box<dyn Forecaster> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Which cumulative error metric drives dynamic predictor selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionMetric {
    /// Mean absolute error (NWS's primary choice).
    #[default]
    MeanAbsoluteError,
    /// Mean squared error.
    MeanSquaredError,
}

/// Accuracy bookkeeping for one forecaster inside a battery.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecasterScore {
    /// Forecaster name.
    pub name: &'static str,
    /// Number of scored predictions.
    pub predictions: u64,
    /// Cumulative absolute error.
    pub abs_error: f64,
    /// Cumulative squared error.
    pub sq_error: f64,
}

impl ForecasterScore {
    /// Mean absolute error so far (infinite before any prediction, so an
    /// unproven forecaster is never selected over a proven one).
    pub fn mae(&self) -> f64 {
        if self.predictions == 0 {
            f64::INFINITY
        } else {
            self.abs_error / self.predictions as f64
        }
    }

    /// Mean squared error so far (infinite before any prediction).
    pub fn mse(&self) -> f64 {
        if self.predictions == 0 {
            f64::INFINITY
        } else {
            self.sq_error / self.predictions as f64
        }
    }
}

/// The NWS dynamic-selection meta-forecaster: runs a battery, tracks each
/// member's cumulative error, and forwards the current best member's
/// prediction.
///
/// ```
/// use datagrid_sysmon::nws::forecast::MetaForecaster;
///
/// let mut meta = MetaForecaster::nws_battery();
/// for i in 0..50 {
///     meta.update(10.0 + (i % 3) as f64);
/// }
/// let f = meta.forecast().expect("warmed up");
/// assert!((9.0..13.0).contains(&f));
/// ```
#[derive(Debug, Clone)]
pub struct MetaForecaster {
    members: Vec<Box<dyn Forecaster>>,
    scores: Vec<ForecasterScore>,
    last_forecasts: Vec<Option<f64>>,
    metric: SelectionMetric,
}

impl MetaForecaster {
    /// Builds a battery from explicit members.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn new(members: Vec<Box<dyn Forecaster>>, metric: SelectionMetric) -> Self {
        assert!(!members.is_empty(), "a battery needs at least one member");
        let scores = members
            .iter()
            .map(|m| ForecasterScore {
                name: m.name(),
                predictions: 0,
                abs_error: 0.0,
                sq_error: 0.0,
            })
            .collect();
        let last_forecasts = vec![None; members.len()];
        MetaForecaster {
            members,
            scores,
            last_forecasts,
            metric,
        }
    }

    /// The standard NWS battery (all implemented methods, MAE selection).
    pub fn nws_battery() -> Self {
        MetaForecaster::new(
            vec![
                Box::new(LastValue::new()),
                Box::new(RunningMean::new()),
                Box::new(SlidingMean::new(10)),
                Box::new(SlidingMean::new(30)),
                Box::new(AdaptiveMean::new(5, 64)),
                Box::new(TrimmedMean::new(20, 0.2)),
                Box::new(SlidingMedian::new(10)),
                Box::new(SlidingMedian::new(30)),
                Box::new(AdaptiveMedian::new(5, 64)),
                Box::new(ExpSmoothing::new(0.1)),
                Box::new(ExpSmoothing::new(0.5)),
                Box::new(Ar1Forecaster::new(30)),
            ],
            SelectionMetric::MeanAbsoluteError,
        )
    }

    /// Feeds one measurement: scores every member's previous prediction
    /// against it, then updates every member.
    pub fn update(&mut self, value: f64) {
        for ((member, score), last) in self
            .members
            .iter_mut()
            .zip(&mut self.scores)
            .zip(&mut self.last_forecasts)
        {
            if let Some(prev) = *last {
                let err = prev - value;
                score.predictions += 1;
                score.abs_error += err.abs();
                score.sq_error += err * err;
            }
            member.update(value);
            *last = member.forecast();
        }
    }

    /// The prediction of the currently best-scoring member.
    pub fn forecast(&self) -> Option<f64> {
        let best = self.best_member_index()?;
        self.last_forecasts[best]
    }

    /// Name of the currently selected member, if any has produced a
    /// forecast.
    pub fn selected(&self) -> Option<&'static str> {
        self.best_member_index().map(|i| self.scores[i].name)
    }

    /// Per-member accuracy bookkeeping.
    pub fn scores(&self) -> &[ForecasterScore] {
        &self.scores
    }

    fn best_member_index(&self) -> Option<usize> {
        let key = |s: &ForecasterScore| match self.metric {
            SelectionMetric::MeanAbsoluteError => s.mae(),
            SelectionMetric::MeanSquaredError => s.mse(),
        };
        // Members without any scored prediction have infinite error; fall
        // back to any member that at least has a forecast.
        let mut best: Option<(usize, f64)> = None;
        for (i, s) in self.scores.iter().enumerate() {
            if self.last_forecasts[i].is_none() {
                continue;
            }
            let k = key(s);
            if best.is_none_or(|(_, bk)| k < bk) {
                best = Some((i, k));
            }
        }
        best.map(|(i, _)| i)
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
    fn empty_battery_rejected() {
        let r = std::panic::catch_unwind(|| {
            MetaForecaster::new(Vec::new(), SelectionMetric::MeanAbsoluteError)
        });
        assert!(r.is_err());
    }

    #[test]
    fn meta_warms_up_then_forecasts() {
        let mut meta = MetaForecaster::nws_battery();
        assert_eq!(meta.forecast(), None);
        meta.update(5.0);
        // After one sample, LastValue and friends can already forecast.
        assert!(meta.forecast().is_some());
    }

    #[test]
    fn meta_tracks_constant_signal_exactly() {
        let mut meta = MetaForecaster::nws_battery();
        for _ in 0..20 {
            meta.update(42.0);
        }
        assert_eq!(meta.forecast(), Some(42.0));
        let scores = meta.scores();
        assert!(scores.iter().any(|s| s.predictions > 0 && s.mae() == 0.0));
    }

    #[test]
    fn meta_prefers_mean_on_noisy_stationary_signal() {
        // Independent noise around 10: LastValue's MAE is ~2x the noise
        // scale while averaging forecasters approach it, so the meta must
        // not pick last value and its forecast must sit near the mean.
        use datagrid_simnet::rng::SimRng;
        let mut rng = SimRng::seed_from_u64(123);
        let mut meta = MetaForecaster::nws_battery();
        for _ in 0..400 {
            meta.update(rng.normal(10.0, 1.0));
        }
        let sel = meta.selected().unwrap();
        assert_ne!(sel, "last_value", "meta should learn averaging is better");
        let f = meta.forecast().unwrap();
        assert!((f - 10.0).abs() < 1.0, "forecast {f}");
    }

    #[test]
    fn meta_prefers_tracking_on_trending_signal() {
        // A steady ramp: last value / AR track it far better than the
        // running mean.
        let mut meta = MetaForecaster::nws_battery();
        for i in 0..300 {
            meta.update(i as f64);
        }
        let sel = meta.selected().unwrap();
        assert_ne!(sel, "running_mean");
        let f = meta.forecast().unwrap();
        assert!(f > 290.0, "forecast {f} should be near the ramp head");
    }

    #[test]
    fn mse_metric_also_selects() {
        let mut meta = MetaForecaster::new(
            vec![Box::new(LastValue::new()), Box::new(RunningMean::new())],
            SelectionMetric::MeanSquaredError,
        );
        for i in 0..50 {
            meta.update((i % 5) as f64);
        }
        assert!(meta.forecast().is_some());
        assert!(meta.selected().is_some());
    }

    #[test]
    fn clone_preserves_state() {
        let mut meta = MetaForecaster::nws_battery();
        for i in 0..25 {
            meta.update(i as f64);
        }
        let cloned = meta.clone();
        assert_eq!(meta.forecast(), cloned.forecast());
        assert_eq!(meta.selected(), cloned.selected());
    }

    #[test]
    fn score_errors_accumulate() {
        let mut meta = MetaForecaster::new(
            vec![Box::new(LastValue::new())],
            SelectionMetric::MeanAbsoluteError,
        );
        meta.update(10.0); // no previous forecast to score
        meta.update(14.0); // scored against forecast 10 -> abs err 4
        let s = &meta.scores()[0];
        assert_eq!(s.predictions, 1);
        assert_eq!(s.abs_error, 4.0);
        assert_eq!(s.sq_error, 16.0);
        assert_eq!(s.mae(), 4.0);
        assert_eq!(s.mse(), 16.0);
    }
}
