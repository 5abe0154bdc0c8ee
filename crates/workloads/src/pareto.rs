//! Pareto distribution sampling and CDF (Feitelson workload model).
//!
//! The paper draws execution times from a Pareto distribution with shape
//! `α = 2` and task data sizes with `α = 1.3`, both with scale 500
//! ("Workload modeling for computer systems performance", Feitelson).
//! Fig. 3 is the CDF of the runtime distribution.

use rand::Rng;

/// A (type-I) Pareto distribution with CDF `F(x) = 1 − (scale/x)^shape`
/// for `x ≥ scale`.
///
/// # Examples
/// ```
/// use cws_workloads::Pareto;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
/// let x = Pareto::RUNTIMES.sample(&mut rng);
/// assert!(x >= 500.0, "samples never fall below the scale");
/// assert_eq!(Pareto::RUNTIMES.mean(), 1000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    /// Shape parameter α (> 0). Smaller values give heavier tails.
    pub shape: f64,
    /// Scale parameter (minimum value, > 0).
    pub scale: f64,
}

impl Pareto {
    /// The paper's execution-time distribution: α = 2, scale = 500.
    pub const RUNTIMES: Pareto = Pareto {
        shape: 2.0,
        scale: 500.0,
    };

    /// The paper's task data-size distribution: α = 1.3, scale = 500.
    pub const DATA_SIZES: Pareto = Pareto {
        shape: 1.3,
        scale: 500.0,
    };

    /// Construct with explicit parameters.
    ///
    /// # Panics
    /// Panics unless both parameters are positive and finite.
    #[must_use]
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(
            shape.is_finite() && shape > 0.0,
            "shape must be positive and finite, got {shape}"
        );
        assert!(
            scale.is_finite() && scale > 0.0,
            "scale must be positive and finite, got {scale}"
        );
        Pareto { shape, scale }
    }

    /// Draw one sample by inversion: `x = scale · U^(−1/α)` with
    /// `U ∈ (0, 1]`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // gen::<f64>() yields [0, 1); flip to (0, 1] to avoid division by 0.
        let u = 1.0 - rng.gen::<f64>();
        self.scale * u.powf(-1.0 / self.shape)
    }

    /// Draw `n` samples.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Cumulative distribution function.
    #[must_use]
    pub fn cdf(&self, x: f64) -> f64 {
        if x < self.scale {
            0.0
        } else {
            1.0 - (self.scale / x).powf(self.shape)
        }
    }

    /// Theoretical mean; infinite for `shape ≤ 1`.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.shape <= 1.0 {
            f64::INFINITY
        } else {
            self.shape * self.scale / (self.shape - 1.0)
        }
    }

    /// Quantile function (inverse CDF) for `p ∈ [0, 1)`.
    #[must_use]
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..1.0).contains(&p), "p must be in [0, 1), got {p}");
        self.scale * (1.0 - p).powf(-1.0 / self.shape)
    }
}

/// Empirical CDF of a sample, evaluated at each of `points`: the fraction
/// of samples ≤ the point. Used to regenerate Fig. 3.
#[must_use]
pub fn empirical_cdf(samples: &[f64], points: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    points
        .iter()
        .map(|&p| {
            let count = sorted.partition_point(|&s| s <= p);
            count as f64 / sorted.len().max(1) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn paper_parameters() {
        assert_eq!(Pareto::RUNTIMES.shape, 2.0);
        assert_eq!(Pareto::RUNTIMES.scale, 500.0);
        assert_eq!(Pareto::DATA_SIZES.shape, 1.3);
    }

    #[test]
    fn samples_respect_scale_floor() {
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..10_000 {
            assert!(Pareto::RUNTIMES.sample(&mut rng) >= 500.0);
        }
    }

    #[test]
    fn cdf_matches_closed_form() {
        let p = Pareto::RUNTIMES;
        assert_eq!(p.cdf(400.0), 0.0);
        assert_eq!(p.cdf(500.0), 0.0);
        assert!((p.cdf(1000.0) - 0.75).abs() < 1e-12);
        assert!((p.cdf(2000.0) - 0.9375).abs() < 1e-12);
    }

    #[test]
    fn empirical_cdf_converges_to_theoretical() {
        let mut rng = SmallRng::seed_from_u64(7);
        let samples = Pareto::RUNTIMES.sample_n(&mut rng, 100_000);
        let points = [600.0, 1000.0, 2000.0, 4000.0];
        let emp = empirical_cdf(&samples, &points);
        for (&x, &e) in points.iter().zip(&emp) {
            assert!(
                (e - Pareto::RUNTIMES.cdf(x)).abs() < 0.01,
                "CDF mismatch at {x}: empirical {e}, theory {}",
                Pareto::RUNTIMES.cdf(x)
            );
        }
    }

    #[test]
    fn mean_of_runtime_model_is_1000() {
        assert!((Pareto::RUNTIMES.mean() - 1000.0).abs() < 1e-12);
    }

    #[test]
    fn heavy_tail_has_infinite_mean_below_one() {
        assert!(Pareto::new(0.9, 500.0).mean().is_infinite());
    }

    #[test]
    fn quantile_inverts_cdf() {
        let p = Pareto::RUNTIMES;
        for q in [0.0, 0.1, 0.5, 0.9, 0.99] {
            let x = p.quantile(q);
            assert!((p.cdf(x) - q).abs() < 1e-12);
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let a = Pareto::RUNTIMES.sample_n(&mut SmallRng::seed_from_u64(1), 10);
        let b = Pareto::RUNTIMES.sample_n(&mut SmallRng::seed_from_u64(1), 10);
        assert_eq!(a, b);
    }

    #[test]
    fn empirical_cdf_on_explicit_sample() {
        let samples = [1.0, 2.0, 3.0, 4.0];
        let e = empirical_cdf(&samples, &[0.5, 2.0, 10.0]);
        assert_eq!(e, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "shape must be positive")]
    fn invalid_shape_rejected() {
        let _ = Pareto::new(0.0, 500.0);
    }
}
