//! Seed sensitivity: do the paper's conclusions survive re-drawing the
//! Pareto runtimes?
//!
//! The paper reports one draw. This module re-runs the Fig. 4 comparison
//! over many independent seeds and reports mean ± standard deviation of
//! gain% and loss% per strategy, plus how often each strategy lands in
//! the target square — the statistical footing under Table V.

use crate::report::{fmt_f, Table};
use crate::run::{prepare, run_matrix, ExperimentConfig};
use cws_core::Strategy;
use cws_dag::Workflow;
use cws_workloads::Scenario;

/// Aggregated behaviour of one strategy across seeds.
#[derive(Debug, Clone)]
pub struct SensitivityRow {
    /// Strategy label.
    pub label: String,
    /// Mean gain% across seeds.
    pub gain_mean: f64,
    /// Std-dev of gain%.
    pub gain_std: f64,
    /// Mean loss%.
    pub loss_mean: f64,
    /// Std-dev of loss%.
    pub loss_std: f64,
    /// Fraction of seeds in which the strategy sits in the target
    /// square.
    pub target_square_rate: f64,
}

fn mean_std(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Run the 19-strategy comparison on `wf` for `seeds` independent Pareto
/// draws.
///
/// # Panics
/// Panics if `seeds` is empty.
#[must_use]
pub fn seed_sensitivity(
    config: &ExperimentConfig,
    wf: &Workflow,
    seeds: &[u64],
) -> Vec<SensitivityRow> {
    assert!(!seeds.is_empty(), "need at least one seed");
    let strategies = Strategy::paper_set();
    let mut gains: Vec<Vec<f64>> = vec![Vec::new(); strategies.len()];
    let mut losses: Vec<Vec<f64>> = vec![Vec::new(); strategies.len()];
    let mut squares: Vec<usize> = vec![0; strategies.len()];

    let prepared: Vec<_> = seeds
        .iter()
        .map(|&seed| prepare(config, config.materialize(wf, Scenario::Pareto { seed })))
        .collect();
    for row in run_matrix(config, &prepared, &strategies, 1) {
        for (i, r) in row.into_iter().enumerate() {
            gains[i].push(r.relative.gain_pct);
            losses[i].push(r.relative.loss_pct);
            if r.relative.in_target_square() {
                squares[i] += 1;
            }
        }
    }

    strategies
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let (gm, gs) = mean_std(&gains[i]);
            let (lm, ls) = mean_std(&losses[i]);
            SensitivityRow {
                label: s.label(),
                gain_mean: gm,
                gain_std: gs,
                loss_mean: lm,
                loss_std: ls,
                target_square_rate: squares[i] as f64 / seeds.len() as f64,
            }
        })
        .collect()
}

/// Render as a table.
#[must_use]
pub fn sensitivity_report(workflow: &str, rows: &[SensitivityRow]) -> Table {
    let mut t = Table::new(
        format!("Seed sensitivity — {workflow}"),
        &[
            "strategy",
            "gain_mean",
            "gain_std",
            "loss_mean",
            "loss_std",
            "target_square_rate",
        ],
    );
    for r in rows {
        t.row(vec![
            r.label.clone(),
            fmt_f(r.gain_mean, 1),
            fmt_f(r.gain_std, 1),
            fmt_f(r.loss_mean, 1),
            fmt_f(r.loss_std, 1),
            fmt_f(r.target_square_rate, 2),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_workloads::montage_24;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig {
            validate_with_sim: false,
            ..ExperimentConfig::default()
        }
    }

    fn rows() -> Vec<SensitivityRow> {
        seed_sensitivity(&cfg(), &montage_24(), &[1, 2, 3, 4, 5])
    }

    #[test]
    fn covers_all_strategies() {
        assert_eq!(rows().len(), 19);
    }

    #[test]
    fn baseline_has_zero_mean_and_variance() {
        let r = rows();
        let b = r.iter().find(|r| r.label == "OneVMperTask-s").unwrap();
        assert!(b.gain_mean.abs() < 1e-9);
        assert!(b.gain_std.abs() < 1e-9);
        assert_eq!(b.target_square_rate, 1.0);
    }

    #[test]
    fn stable_gain_has_zero_variance() {
        // AllPar gains are structural (pure speed-up margin), so they
        // must not vary with the runtime draw.
        let r = rows();
        let ap = r.iter().find(|r| r.label == "AllParExceed-m").unwrap();
        assert!(
            ap.gain_std < 0.5,
            "AllParExceed-m gain should be stable, std {}",
            ap.gain_std
        );
        assert!((ap.gain_mean - 37.5).abs() < 1.0);
    }

    #[test]
    fn all_par_1lns_dyn_is_robustly_in_the_square() {
        let r = rows();
        let d = r.iter().find(|r| r.label == "AllPar1LnSDyn").unwrap();
        assert_eq!(
            d.target_square_rate, 1.0,
            "the paper's robustness claim must survive re-seeding"
        );
    }

    #[test]
    fn losses_vary_with_seed_for_packing_strategies() {
        // The savings of packing strategies depend on how well the draw
        // packs into BTUs — Table IV's "fluctuation".
        let r = rows();
        let sp = r.iter().find(|r| r.label == "StartParExceed-s").unwrap();
        assert!(sp.loss_std > 0.0);
    }

    #[test]
    fn report_renders() {
        let t = sensitivity_report("montage-24", &rows());
        assert_eq!(t.rows.len(), 19);
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seeds_rejected() {
        let _ = seed_sensitivity(&cfg(), &montage_24(), &[]);
    }
}
