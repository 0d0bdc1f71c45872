//! Automatic weight determination — the paper's future work item 2.
//!
//! The paper fixes the cost-model weights at 0.8/0.1/0.1 after manual
//! experimentation and explicitly defers "how to determine the system
//! factors weight" to future work. [`WeightTuner`] answers it with the
//! data the grid already produces: feed it `(factors, measured transfer
//! time)` observations — e.g. from counterfactual oracle replays or from
//! production fetch logs — and it searches the weight simplex for the
//! weights whose score ranking agrees best with the measured speed
//! ranking (Kendall-style pairwise concordance).

use crate::cost::{CostModel, Weights};
use crate::factors::SystemFactors;

/// One tuning observation: the factors a candidate showed at selection
/// time and the transfer time it actually achieved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// The candidate's measured system factors.
    pub factors: SystemFactors,
    /// The measured end-to-end transfer duration in seconds.
    pub duration_s: f64,
}

impl Observation {
    /// Creates an observation.
    ///
    /// # Panics
    ///
    /// Panics if `duration_s` is not finite and positive.
    pub fn new(factors: SystemFactors, duration_s: f64) -> Self {
        assert!(
            duration_s.is_finite() && duration_s > 0.0,
            "transfer duration must be positive, got {duration_s}"
        );
        Observation {
            factors,
            duration_s,
        }
    }
}

/// Fraction of observation pairs where the score order agrees with the
/// speed order (1 = perfect agreement, 0.5 ≈ random, 0 = inverted).
/// Pairs with (near-)equal scores or durations are skipped.
pub fn rank_agreement(model: &CostModel, observations: &[Observation]) -> f64 {
    let scores: Vec<f64> = observations
        .iter()
        .map(|o| model.score(&o.factors))
        .collect();
    let mut concordant = 0u64;
    let mut total = 0u64;
    for i in 0..observations.len() {
        for j in (i + 1)..observations.len() {
            let ds = scores[i] - scores[j];
            let dt = observations[i].duration_s - observations[j].duration_s;
            if ds.abs() < 1e-12 || dt.abs() < 1e-9 {
                continue;
            }
            total += 1;
            // Higher score should mean lower duration.
            if (ds > 0.0) == (dt < 0.0) {
                concordant += 1;
            }
        }
    }
    if total == 0 {
        0.5
    } else {
        concordant as f64 / total as f64
    }
}

/// Searches the weight simplex for the weights that rank candidates most
/// like their measured speeds.
///
/// ```
/// use datagrid_core::factors::SystemFactors;
/// use datagrid_core::tuning::{Observation, WeightTuner};
///
/// let mut tuner = WeightTuner::new();
/// // Fast path, moderate host: fast transfer.
/// tuner.record(Observation::new(SystemFactors::new(0.9, 0.5, 0.5), 10.0));
/// // Slow path, idle host: slow transfer.
/// tuner.record(Observation::new(SystemFactors::new(0.1, 1.0, 1.0), 90.0));
/// let (weights, agreement) = tuner.tune(10).expect("enough data");
/// assert!(weights.bandwidth > weights.cpu);
/// assert_eq!(agreement, 1.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WeightTuner {
    observations: Vec<Observation>,
}

impl WeightTuner {
    /// Creates an empty tuner.
    pub fn new() -> Self {
        WeightTuner::default()
    }

    /// Adds one observation.
    pub fn record(&mut self, observation: Observation) {
        self.observations.push(observation);
    }

    /// The observations recorded so far.
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// Grid search over the simplex `{(b, c, i) : b+c+i = 1}` at the given
    /// `resolution` (number of steps per axis; 10 → 66 candidates).
    /// Returns the best weights and their rank agreement, or `None` with
    /// fewer than two observations. Ties prefer the more
    /// bandwidth-dominant candidate (cheaper to monitor accurately).
    pub fn tune(&self, resolution: usize) -> Option<(Weights, f64)> {
        if self.observations.len() < 2 || resolution == 0 {
            return None;
        }
        let mut best: Option<(Weights, f64)> = None;
        for bi in 0..=resolution {
            for ci in 0..=(resolution - bi) {
                let ii = resolution - bi - ci;
                let w = Weights::normalized(bi as f64, ci as f64, ii as f64 + f64::MIN_POSITIVE);
                // MIN_POSITIVE keeps the all-zero corner valid; renormalise
                // exactly below.
                let w = Weights::normalized(w.bandwidth, w.cpu, w.io);
                let agreement = rank_agreement(&CostModel::new(w), &self.observations);
                let better = match &best {
                    None => true,
                    Some((bw, ba)) => {
                        agreement > *ba + 1e-12
                            || ((agreement - *ba).abs() <= 1e-12 && w.bandwidth > bw.bandwidth)
                    }
                };
                if better {
                    best = Some((w, agreement));
                }
            }
        }
        best
    }
}

impl Extend<Observation> for WeightTuner {
    fn extend<T: IntoIterator<Item = Observation>>(&mut self, iter: T) {
        self.observations.extend(iter);
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests pin exact values; outside library scope"
)]
mod tests {
    use super::*;

    fn obs(bw: f64, cpu: f64, io: f64, secs: f64) -> Observation {
        Observation::new(SystemFactors::new(bw, cpu, io), secs)
    }

    #[test]
    fn agreement_perfect_and_inverted() {
        let model = CostModel::paper();
        let good = vec![obs(0.9, 0.5, 0.5, 10.0), obs(0.1, 0.5, 0.5, 100.0)];
        assert_eq!(rank_agreement(&model, &good), 1.0);
        let bad = vec![obs(0.9, 0.5, 0.5, 100.0), obs(0.1, 0.5, 0.5, 10.0)];
        assert_eq!(rank_agreement(&model, &bad), 0.0);
    }

    #[test]
    fn agreement_skips_ties() {
        let model = CostModel::paper();
        let ties = vec![obs(0.5, 0.5, 0.5, 10.0), obs(0.5, 0.5, 0.5, 20.0)];
        assert_eq!(rank_agreement(&model, &ties), 0.5);
    }

    #[test]
    fn tuner_finds_bandwidth_dominance_when_bandwidth_drives_time() {
        // Duration purely determined by bandwidth; CPU/IO are decoys that
        // anti-correlate (idle hosts on slow paths).
        let mut tuner = WeightTuner::new();
        for (bw, secs) in [(0.9, 10.0), (0.5, 30.0), (0.2, 80.0), (0.05, 200.0)] {
            tuner.record(obs(bw, 1.0 - bw, 1.0 - bw, secs));
        }
        let (w, agreement) = tuner.tune(10).unwrap();
        assert_eq!(agreement, 1.0);
        assert!(
            w.bandwidth > 0.5,
            "bandwidth weight should dominate, got {w:?}"
        );
    }

    #[test]
    fn tuner_can_discover_io_dominance() {
        // IO idleness determines time while bandwidth actively misleads
        // (the fastest candidate has the *worst* bandwidth), so only
        // IO-dominant weights rank all pairs correctly.
        let mut tuner = WeightTuner::new();
        for (bw, io, secs) in [(0.2, 0.9, 10.0), (0.8, 0.5, 30.0), (0.5, 0.2, 80.0)] {
            tuner.record(obs(bw, 0.5, io, secs));
        }
        let (w, agreement) = tuner.tune(10).unwrap();
        assert_eq!(agreement, 1.0);
        assert!(w.io > w.bandwidth, "io should dominate: {w:?}");
        // Bandwidth-only weights would be badly wrong on this data.
        let bw_only = CostModel::new(Weights::new(1.0, 0.0, 0.0));
        assert!(rank_agreement(&bw_only, tuner.observations()) < 0.5);
    }

    #[test]
    fn tuner_needs_data() {
        let mut tuner = WeightTuner::new();
        assert!(tuner.tune(10).is_none());
        tuner.record(obs(0.5, 0.5, 0.5, 10.0));
        assert!(tuner.tune(10).is_none());
        tuner.record(obs(0.6, 0.5, 0.5, 9.0));
        assert!(tuner.tune(10).is_some());
        assert!(tuner.tune(0).is_none());
        assert_eq!(tuner.len(), 2);
        assert!(!tuner.is_empty());
    }

    #[test]
    fn tuned_weights_are_valid() {
        let mut tuner = WeightTuner::new();
        tuner.extend([
            obs(0.9, 0.2, 0.3, 5.0),
            obs(0.4, 0.9, 0.8, 20.0),
            obs(0.1, 0.5, 0.9, 90.0),
        ]);
        let (w, _) = tuner.tune(20).unwrap();
        let sum = w.bandwidth + w.cpu + w.io;
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(w.bandwidth >= 0.0 && w.cpu >= 0.0 && w.io >= 0.0);
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn bad_duration_rejected() {
        let _ = Observation::new(SystemFactors::perfect(), 0.0);
    }
}
