//! The paper's future work, executed: "determine what are the
//! boundaries, and if the classification can be further refined, in
//! terms of workflow structure and execution times for the results
//! depicted in Table V."
//!
//! Two sweeps map those boundaries:
//!
//! * [`structure_sweep`] — random layered DAGs with controlled width
//!   (parallelism) and edge density; for each point the measured winner
//!   per objective is recorded, showing where the Table V rows actually
//!   change over.
//! * [`heterogeneity_sweep`] — the Pareto shape α varied from heavy
//!   tails (α→1: wildly heterogeneous runtimes) to light (α large:
//!   near-uniform); winners per objective as a function of the runtime
//!   coefficient of variation.

use crate::report::{fmt_f, Table};
use crate::run::{prepare, run_matrix, ExperimentConfig, StrategyResult};
use cws_core::Strategy;
use cws_dag::{StructureMetrics, Workflow};
use cws_workloads::random::{layered_dag, LayeredShape};
use cws_workloads::Pareto;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The measured winners at one sweep point.
#[derive(Debug, Clone)]
pub struct BoundaryPoint {
    /// Descriptive sweep coordinate (width, α, …).
    pub coordinate: String,
    /// Parallelism ratio of the workflow at this point.
    pub parallelism: f64,
    /// Runtime coefficient of variation.
    pub runtime_cv: f64,
    /// Winner when maximising savings.
    pub savings_winner: String,
    /// Winner when maximising gain inside the target square.
    pub gain_winner: String,
    /// Winner when maximising `min(gain, savings)`.
    pub balanced_winner: String,
}

fn winners(config: &ExperimentConfig, wf: Workflow, coordinate: String) -> BoundaryPoint {
    let prepared = [prepare(config, wf)];
    let results = run_matrix(config, &prepared, &Strategy::paper_set(), 1)
        .pop()
        .expect("one workflow in, one row out");
    let best = |score: &dyn Fn(&StrategyResult) -> f64| -> String {
        results
            .iter()
            .max_by(|a, b| score(a).total_cmp(&score(b)))
            .expect("19 strategies ran")
            .label
            .clone()
    };
    let in_square_gain = |r: &StrategyResult| {
        if r.relative.in_target_square() {
            r.relative.gain_pct
        } else {
            f64::NEG_INFINITY
        }
    };
    let m = StructureMetrics::compute(&prepared[0].wf);
    BoundaryPoint {
        coordinate,
        parallelism: m.parallelism,
        runtime_cv: m.runtime_cv,
        savings_winner: best(&|r| r.relative.savings_pct()),
        gain_winner: best(&in_square_gain),
        balanced_winner: best(&|r| r.relative.gain_pct.min(r.relative.savings_pct())),
    }
}

/// Sweep workflow structure: layered DAGs of `levels` levels whose width
/// takes each value in `widths`, with Pareto runtimes.
#[must_use]
pub fn structure_sweep(
    config: &ExperimentConfig,
    levels: usize,
    widths: &[usize],
) -> Vec<BoundaryPoint> {
    widths
        .iter()
        .map(|&w| {
            let wf = layered_dag(LayeredShape {
                levels,
                min_width: w,
                max_width: w,
                edge_prob: 0.4,
                seed: config.seed,
            });
            let wf = config.materialize(&wf, cws_workloads::Scenario::Pareto { seed: config.seed });
            winners(config, wf, format!("width={w}"))
        })
        .collect()
}

/// Sweep runtime heterogeneity: the Montage workflow with runtimes drawn
/// from Pareto(α, 500) for each α in `alphas`. Smaller α = heavier tail
/// = more heterogeneous runtimes.
#[must_use]
pub fn heterogeneity_sweep(config: &ExperimentConfig, alphas: &[f64]) -> Vec<BoundaryPoint> {
    alphas
        .iter()
        .map(|&alpha| {
            let base = config.materialize(
                &cws_workloads::montage_24(),
                cws_workloads::Scenario::BestCase, // structure only; times replaced below
            );
            let mut rng = SmallRng::seed_from_u64(config.seed);
            let times = Pareto::new(alpha, 500.0).sample_n(&mut rng, base.len());
            let wf = base.with_base_times(&times);
            winners(config, wf, format!("alpha={alpha}"))
        })
        .collect()
}

/// Render sweep points as a table.
#[must_use]
pub fn boundaries_report(title: &str, points: &[BoundaryPoint]) -> Table {
    let mut t = Table::new(
        title.to_string(),
        &[
            "coordinate",
            "parallelism",
            "runtime_cv",
            "savings",
            "gain",
            "balanced",
        ],
    );
    for p in points {
        t.row(vec![
            p.coordinate.clone(),
            fmt_f(p.parallelism, 2),
            fmt_f(p.runtime_cv, 2),
            p.savings_winner.clone(),
            p.gain_winner.clone(),
            p.balanced_winner.clone(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig {
            validate_with_sim: false,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn structure_sweep_spans_parallelism() {
        let pts = structure_sweep(&cfg(), 5, &[1, 4, 8]);
        assert_eq!(pts.len(), 3);
        assert!(pts[0].parallelism < pts[2].parallelism);
        assert_eq!(pts[0].coordinate, "width=1");
    }

    #[test]
    fn chain_width_one_prefers_packed_small_for_savings() {
        let pts = structure_sweep(&cfg(), 6, &[1]);
        let w = &pts[0].savings_winner;
        assert!(
            w.ends_with("-s") || w.starts_with("AllPar1LnS"),
            "sequential structure saves with small/packed strategies, got {w}"
        );
    }

    #[test]
    fn heterogeneity_sweep_orders_cv() {
        let pts = heterogeneity_sweep(&cfg(), &[1.2, 2.0, 5.0]);
        assert_eq!(pts.len(), 3);
        assert!(
            pts[0].runtime_cv > pts[2].runtime_cv,
            "heavier tails mean more runtime variation: {} vs {}",
            pts[0].runtime_cv,
            pts[2].runtime_cv
        );
    }

    #[test]
    fn gain_winner_is_in_the_target_square_or_baseline() {
        for p in structure_sweep(&cfg(), 4, &[3]) {
            assert!(
                Strategy::parse(&p.gain_winner).is_some(),
                "{}",
                p.gain_winner
            );
        }
    }

    #[test]
    fn report_renders() {
        let pts = heterogeneity_sweep(&cfg(), &[2.0]);
        let t = boundaries_report("Boundaries — heterogeneity", &pts);
        assert_eq!(t.rows.len(), 1);
    }
}
