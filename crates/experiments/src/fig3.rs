//! Fig. 3 — CDF of the Pareto distribution of execution times.
//!
//! The paper plots the cumulative distribution of the runtime dataset
//! (Pareto, shape α = 2, scale 500) over the 500–4000 s range. This
//! module regenerates both the empirical CDF of a sampled dataset and
//! the analytic CDF.

use crate::report::{fmt_f, Table};
use cws_workloads::pareto::{empirical_cdf, Pareto};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The regenerated Fig. 3 data.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Data {
    /// Evaluation points (execution time, seconds).
    pub points: Vec<f64>,
    /// Empirical CDF of the sampled dataset at each point.
    pub empirical: Vec<f64>,
    /// Analytic CDF at each point.
    pub analytic: Vec<f64>,
    /// Number of samples drawn.
    pub samples: usize,
}

/// Regenerate Fig. 3: draw `samples` runtimes with `seed` and evaluate
/// the CDF on the paper's 500–4000 s axis (step 50 s).
#[must_use]
pub fn fig3(seed: u64, samples: usize) -> Fig3Data {
    let mut rng = SmallRng::seed_from_u64(seed);
    let data = Pareto::RUNTIMES.sample_n(&mut rng, samples);
    let points: Vec<f64> = (10..=80).map(|i| i as f64 * 50.0).collect();
    let empirical = empirical_cdf(&data, &points);
    let analytic = points.iter().map(|&x| Pareto::RUNTIMES.cdf(x)).collect();
    Fig3Data {
        points,
        empirical,
        analytic,
        samples,
    }
}

impl Fig3Data {
    /// Render as a three-column table (`x`, empirical, analytic).
    #[must_use]
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Fig. 3 — CDF of Pareto(shape=2, scale=500) execution times ({} samples)",
                self.samples
            ),
            &["exec_time_s", "cdf_empirical", "cdf_analytic"],
        );
        for ((&x, &e), &a) in self.points.iter().zip(&self.empirical).zip(&self.analytic) {
            t.row(vec![fmt_f(x, 0), fmt_f(e, 4), fmt_f(a, 4)]);
        }
        t
    }

    /// Largest |empirical − analytic| gap (a Kolmogorov–Smirnov-style
    /// statistic over the evaluated points).
    #[must_use]
    pub fn max_deviation(&self) -> f64 {
        self.empirical
            .iter()
            .zip(&self.analytic)
            .map(|(e, a)| (e - a).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_matches_paper_range() {
        let d = fig3(42, 1000);
        assert_eq!(d.points.first(), Some(&500.0));
        assert_eq!(d.points.last(), Some(&4000.0));
    }

    #[test]
    fn empirical_tracks_analytic() {
        let d = fig3(42, 100_000);
        assert!(
            d.max_deviation() < 0.01,
            "CDF deviates by {}",
            d.max_deviation()
        );
    }

    #[test]
    fn cdf_shape_matches_figure_landmarks() {
        // Fig. 3 rises steeply: ~0.75 by 1000s, ~0.94 by 2000s.
        let d = fig3(42, 100_000);
        let at = |x: f64| {
            let i = d.points.iter().position(|&p| p == x).unwrap();
            d.empirical[i]
        };
        assert!((at(1000.0) - 0.75).abs() < 0.02);
        assert!((at(2000.0) - 0.9375).abs() < 0.02);
        assert!(at(4000.0) > 0.97);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(fig3(1, 1000), fig3(1, 1000));
        assert_ne!(fig3(1, 1000).empirical, fig3(2, 1000).empirical);
    }

    #[test]
    fn table_has_71_rows() {
        let t = fig3(42, 100).to_table();
        assert_eq!(t.rows.len(), 71);
        assert!(t.to_ascii().contains("Fig. 3"));
    }
}
