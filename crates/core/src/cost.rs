//! The replica selection cost model — formula (1) of the paper.
//!
//! ```text
//! Score(i→j) = BW_P(i→j)·BW_W + CPU_P(j)·CPU_W + IO_P(j)·IO_W
//! ```
//!
//! The three weights are set by the Data Grid administrator. After their
//! measurements the authors conclude that network bandwidth dominates
//! transfer time while CPU and I/O state matter only slightly, and fix the
//! weights at **0.8 / 0.1 / 0.1** — exposed here as
//! [`Weights::PAPER_DEFAULT`]. Determining the weights automatically is the
//! paper's future work; the `ablation_weights` bench sweeps them.

use crate::factors::SystemFactors;

/// The administrator-chosen weights of the cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weights {
    /// `BW_W`: weight of the network bandwidth factor.
    pub bandwidth: f64,
    /// `CPU_W`: weight of the CPU idle factor.
    pub cpu: f64,
    /// `IO_W`: weight of the I/O idle factor.
    pub io: f64,
}

impl Weights {
    /// The paper's published weights: 80 % bandwidth, 10 % CPU, 10 % I/O.
    pub const PAPER_DEFAULT: Weights = Weights {
        bandwidth: 0.8,
        cpu: 0.1,
        io: 0.1,
    };

    /// Creates validated weights.
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative/non-finite or they do not sum to 1
    /// within `1e-9` (use [`Weights::normalized`] to coerce arbitrary
    /// proportions).
    pub fn new(bandwidth: f64, cpu: f64, io: f64) -> Self {
        let w = Weights { bandwidth, cpu, io };
        w.validate();
        w
    }

    /// Creates weights from arbitrary non-negative proportions, scaling
    /// them to sum to 1.
    ///
    /// # Panics
    ///
    /// Panics if any proportion is negative or all are zero.
    pub fn normalized(bandwidth: f64, cpu: f64, io: f64) -> Self {
        assert!(
            bandwidth >= 0.0 && cpu >= 0.0 && io >= 0.0,
            "weights must be non-negative"
        );
        let sum = bandwidth + cpu + io;
        assert!(sum > 0.0 && sum.is_finite(), "weights must not all be zero");
        Weights {
            bandwidth: bandwidth / sum,
            cpu: cpu / sum,
            io: io / sum,
        }
    }

    fn validate(&self) {
        for (name, w) in [
            ("bandwidth", self.bandwidth),
            ("cpu", self.cpu),
            ("io", self.io),
        ] {
            assert!(
                w.is_finite() && w >= 0.0,
                "{name} weight must be finite and non-negative, got {w}"
            );
        }
        let sum = self.bandwidth + self.cpu + self.io;
        assert!((sum - 1.0).abs() < 1e-9, "weights must sum to 1, got {sum}");
    }
}

impl Default for Weights {
    fn default() -> Self {
        Weights::PAPER_DEFAULT
    }
}

/// The cost model: scores candidates from their system factors.
///
/// Despite the name "cost", higher scores are better (the paper's score
/// expresses how *effectively* the client would acquire the replica).
///
/// ```
/// use datagrid_core::cost::{CostModel, Weights};
/// use datagrid_core::factors::SystemFactors;
///
/// let model = CostModel::new(Weights::PAPER_DEFAULT);
/// let near = SystemFactors::new(0.9, 0.5, 0.5);
/// let far = SystemFactors::new(0.1, 1.0, 1.0);
/// assert!(model.score(&near) > model.score(&far));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostModel {
    weights: Weights,
}

impl CostModel {
    /// Creates a model with the given weights.
    pub fn new(weights: Weights) -> Self {
        CostModel { weights }
    }

    /// The paper's model (weights 0.8/0.1/0.1).
    pub fn paper() -> Self {
        CostModel::new(Weights::PAPER_DEFAULT)
    }

    /// The configured weights.
    pub fn weights(&self) -> Weights {
        self.weights
    }

    /// Formula (1): the weighted sum of the three factors. Always in
    /// `[0, 1]`.
    pub fn score(&self, factors: &SystemFactors) -> f64 {
        self.weights.bandwidth * factors.bandwidth_fraction
            + self.weights.cpu * factors.cpu_idle
            + self.weights.io * factors.io_idle
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
    fn paper_weights_sum_to_one() {
        let w = Weights::PAPER_DEFAULT;
        assert!((w.bandwidth + w.cpu + w.io - 1.0).abs() < 1e-12);
        assert_eq!(Weights::default(), w);
    }

    #[test]
    fn score_matches_formula() {
        let m = CostModel::paper();
        let f = SystemFactors::new(0.5, 0.8, 0.6);
        let expected = 0.8 * 0.5 + 0.1 * 0.8 + 0.1 * 0.6;
        assert!((m.score(&f) - expected).abs() < 1e-12);
    }

    #[test]
    fn score_bounds() {
        let m = CostModel::paper();
        assert_eq!(m.score(&SystemFactors::perfect()), 1.0);
        assert_eq!(m.score(&SystemFactors::new(0.0, 0.0, 0.0)), 0.0);
    }

    #[test]
    fn normalized_scales_proportions() {
        let w = Weights::normalized(8.0, 1.0, 1.0);
        assert!((w.bandwidth - 0.8).abs() < 1e-12);
        assert!((w.cpu - 0.1).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_dominates_with_paper_weights() {
        // A replica with terrible bandwidth but idle host must lose to a
        // replica with great bandwidth on a busy host.
        let m = CostModel::paper();
        let idle_far = SystemFactors::new(0.05, 1.0, 1.0);
        let busy_near = SystemFactors::new(0.9, 0.2, 0.2);
        assert!(m.score(&busy_near) > m.score(&idle_far));
    }

    #[test]
    fn custom_weights_change_the_ordering() {
        // With CPU-dominant weights the ordering flips.
        let m = CostModel::new(Weights::new(0.1, 0.8, 0.1));
        let idle_far = SystemFactors::new(0.05, 1.0, 1.0);
        let busy_near = SystemFactors::new(0.9, 0.2, 0.2);
        assert!(m.score(&idle_far) > m.score(&busy_near));
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn unnormalised_weights_rejected() {
        let _ = Weights::new(0.8, 0.8, 0.8);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_rejected() {
        let _ = Weights::new(1.2, -0.1, -0.1);
    }
}
