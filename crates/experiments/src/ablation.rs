//! Ablations over the design choices DESIGN.md calls out.
//!
//! Three knobs whose influence the paper asserts but does not sweep:
//!
//! 1. **Task-size-to-BTU ratio** — the paper's best/worst cases are the
//!    endpoints; [`task_scale_ablation`] sweeps the whole range by
//!    scaling all runtimes (equivalent to varying the BTU length, which
//!    is a platform constant).
//! 2. **Dynamic budget multiplier** — the CPA-Eager/Gain budgets are
//!    ambiguous in the paper (DESIGN.md §3); [`budget_ablation`] sweeps
//!    the multiplier and shows where each algorithm saturates.
//! 3. **Balance tolerance** — Table III's "gain ≈ savings" needs a
//!    threshold; [`tolerance_ablation`] shows how the class counts move
//!    with it.

use crate::report::{fmt_f, Table};
use crate::run::{prepare, run_matrix, ExperimentConfig};
use cws_core::metrics::GainSavingsClass;
use cws_core::{DynamicBudgets, Strategy};
use cws_dag::Workflow;
use cws_workloads::Scenario;

/// One point of the task-scale ablation.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Runtime multiplier applied to every task.
    pub scale: f64,
    /// Mean task runtime over the BTU length after scaling.
    pub task_btu_ratio: f64,
    /// Strategy label.
    pub label: String,
    /// Gain% against the equally-scaled baseline.
    pub gain_pct: f64,
    /// Loss% against the equally-scaled baseline.
    pub loss_pct: f64,
}

/// Sweep the runtime scale for a set of strategies on one workflow.
/// Each scale rewrites every base time as `scale × original` under
/// Pareto runtimes, so `scale = 7.2` pushes the mean task (~1000 s) past
/// two BTUs.
#[must_use]
pub fn task_scale_ablation(
    config: &ExperimentConfig,
    wf: &Workflow,
    labels: &[&str],
    scales: &[f64],
) -> Vec<ScalePoint> {
    let base_wf = config.materialize(wf, Scenario::Pareto { seed: config.seed });
    let strategies: Vec<Strategy> = labels
        .iter()
        .map(|&label| Strategy::parse(label).unwrap_or_else(|| panic!("unknown {label}")))
        .collect();
    let prepared: Vec<_> = scales
        .iter()
        .map(|&scale| {
            assert!(scale > 0.0, "scale must be positive");
            let times: Vec<f64> = base_wf
                .tasks()
                .iter()
                .map(|t| t.base_time * scale)
                .collect();
            prepare(config, base_wf.with_base_times(&times))
        })
        .collect();
    let matrix = run_matrix(config, &prepared, &strategies, 1);
    scales
        .iter()
        .zip(&prepared)
        .zip(matrix)
        .flat_map(|((&scale, row), results)| {
            let mean = row.wf.total_work() / row.wf.len() as f64;
            results.into_iter().map(move |r| ScalePoint {
                scale,
                task_btu_ratio: mean / cws_platform::BTU_SECONDS,
                label: r.label,
                gain_pct: r.relative.gain_pct,
                loss_pct: r.relative.loss_pct,
            })
        })
        .collect()
}

/// One point of the budget ablation.
#[derive(Debug, Clone)]
pub struct BudgetPoint {
    /// Budget multiplier.
    pub multiplier: f64,
    /// Algorithm (`CPA-Eager` or `GAIN`).
    pub label: String,
    /// Gain%.
    pub gain_pct: f64,
    /// Loss%.
    pub loss_pct: f64,
}

/// Sweep the budget multiplier for the two dynamic algorithms.
#[must_use]
pub fn budget_ablation(
    config: &ExperimentConfig,
    wf: &Workflow,
    multipliers: &[f64],
) -> Vec<BudgetPoint> {
    let m = config.materialize(wf, Scenario::Pareto { seed: config.seed });
    let prepared = [prepare(config, m)];
    let strategies: Vec<Strategy> = multipliers
        .iter()
        .flat_map(|&mult| {
            let budgets = DynamicBudgets {
                cpa_multiplier: mult,
                gain_multiplier: mult,
            };
            [Strategy::CpaEager(budgets), Strategy::Gain(budgets)]
        })
        .collect();
    let results = run_matrix(config, &prepared, &strategies, 1);
    multipliers
        .iter()
        .flat_map(|&mult| [mult, mult])
        .zip(results.into_iter().flatten())
        .map(|(multiplier, r)| BudgetPoint {
            multiplier,
            label: r.label,
            gain_pct: r.relative.gain_pct,
            loss_pct: r.relative.loss_pct,
        })
        .collect()
}

/// One row of the tolerance ablation: classification counts at one
/// tolerance.
#[derive(Debug, Clone)]
pub struct TolerancePoint {
    /// Balance tolerance in percentage points.
    pub tolerance: f64,
    /// Strategies classified savings-dominant over the whole grid.
    pub savings: usize,
    /// Gain-dominant count.
    pub gain: usize,
    /// Balanced count.
    pub balanced: usize,
}

/// Sweep the Table III balance tolerance over the full scenario ×
/// workflow grid.
#[must_use]
pub fn tolerance_ablation(config: &ExperimentConfig, tolerances: &[f64]) -> Vec<TolerancePoint> {
    // Collect relative metrics once, leaving out the reference point.
    let prepared: Vec<_> = config
        .scenarios()
        .into_iter()
        .flat_map(|scenario| {
            cws_workloads::paper_workflows()
                .into_iter()
                .map(move |wf| prepare(config, config.materialize(&wf, scenario)))
        })
        .collect();
    let strategies: Vec<Strategy> = Strategy::paper_set()
        .into_iter()
        .filter(|s| s.label() != "OneVMperTask-s")
        .collect();
    let rels: Vec<_> = run_matrix(config, &prepared, &strategies, 1)
        .into_iter()
        .flatten()
        .map(|r| r.relative)
        .collect();
    tolerances
        .iter()
        .map(|&tol| {
            let mut p = TolerancePoint {
                tolerance: tol,
                savings: 0,
                gain: 0,
                balanced: 0,
            };
            for r in &rels {
                match r.classify(tol) {
                    Some(GainSavingsClass::SavingsDominant) => p.savings += 1,
                    Some(GainSavingsClass::GainDominant) => p.gain += 1,
                    Some(GainSavingsClass::Balanced) => p.balanced += 1,
                    None => {}
                }
            }
            p
        })
        .collect()
}

/// Render the scale ablation as a table.
#[must_use]
pub fn scale_report(points: &[ScalePoint]) -> Table {
    let mut t = Table::new(
        "Ablation — task-size / BTU ratio",
        &[
            "scale",
            "task_btu_ratio",
            "strategy",
            "gain_pct",
            "loss_pct",
        ],
    );
    for p in points {
        t.row(vec![
            fmt_f(p.scale, 2),
            fmt_f(p.task_btu_ratio, 2),
            p.label.clone(),
            fmt_f(p.gain_pct, 1),
            fmt_f(p.loss_pct, 1),
        ]);
    }
    t
}

/// Render the budget ablation as a table.
#[must_use]
pub fn budget_report(points: &[BudgetPoint]) -> Table {
    let mut t = Table::new(
        "Ablation — dynamic budget multiplier",
        &["multiplier", "strategy", "gain_pct", "loss_pct"],
    );
    for p in points {
        t.row(vec![
            fmt_f(p.multiplier, 1),
            p.label.clone(),
            fmt_f(p.gain_pct, 1),
            fmt_f(p.loss_pct, 1),
        ]);
    }
    t
}

/// Render the tolerance ablation as a table.
#[must_use]
pub fn tolerance_report(points: &[TolerancePoint]) -> Table {
    let mut t = Table::new(
        "Ablation — Table III balance tolerance",
        &[
            "tolerance_pp",
            "savings_dominant",
            "gain_dominant",
            "balanced",
        ],
    );
    for p in points {
        t.row(vec![
            fmt_f(p.tolerance, 1),
            p.savings.to_string(),
            p.gain.to_string(),
            p.balanced.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_workloads::montage_24;

    fn cfg() -> ExperimentConfig {
        // Sim validation off: ablations run hundreds of cells.
        ExperimentConfig {
            validate_with_sim: false,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn scale_sweep_covers_grid() {
        let pts = task_scale_ablation(
            &cfg(),
            &montage_24(),
            &["AllParExceed-s", "StartParExceed-s"],
            &[0.5, 1.0, 4.0],
        );
        assert_eq!(pts.len(), 6);
        assert!(pts.iter().all(|p| p.task_btu_ratio > 0.0));
    }

    #[test]
    fn large_tasks_erase_not_exceed_reuse() {
        // As tasks grow past a BTU, AllParExceed's savings advantage over
        // the baseline shrinks (reuse buys proportionally less).
        let pts = task_scale_ablation(&cfg(), &montage_24(), &["AllParExceed-s"], &[0.25, 16.0]);
        let small_tasks = -pts[0].loss_pct;
        let big_tasks = -pts[1].loss_pct;
        assert!(
            small_tasks > big_tasks,
            "savings {small_tasks} -> {big_tasks} should shrink as tasks outgrow the BTU"
        );
    }

    #[test]
    fn budget_gain_is_monotone_in_multiplier() {
        let pts = budget_ablation(&cfg(), &montage_24(), &[1.0, 2.0, 4.0, 8.0]);
        let gains: Vec<f64> = pts
            .iter()
            .filter(|p| p.label == "CPA-Eager")
            .map(|p| p.gain_pct)
            .collect();
        for w in gains.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "more budget cannot slow CPA down");
        }
        // multiplier 1 = no headroom = baseline performance
        assert!(gains[0].abs() < 1e-9);
    }

    #[test]
    fn budget_loss_respects_cap() {
        let pts = budget_ablation(&cfg(), &montage_24(), &[2.0, 4.0]);
        for p in &pts {
            let cap = (p.multiplier - 1.0) * 100.0;
            assert!(
                p.loss_pct <= cap + 1e-6,
                "{}: {} > {}",
                p.label,
                p.loss_pct,
                cap
            );
        }
    }

    #[test]
    fn tolerance_moves_mass_into_balanced() {
        let pts = tolerance_ablation(&cfg(), &[0.0, 10.0, 50.0]);
        assert!(pts[2].balanced >= pts[0].balanced);
        // total classified is invariant
        let total = |p: &TolerancePoint| p.savings + p.gain + p.balanced;
        assert_eq!(total(&pts[0]), total(&pts[2]));
    }

    #[test]
    fn reports_render() {
        let cfg = cfg();
        let s = task_scale_ablation(&cfg, &montage_24(), &["AllParExceed-s"], &[1.0]);
        assert_eq!(scale_report(&s).rows.len(), 1);
        let b = budget_ablation(&cfg, &montage_24(), &[2.0]);
        assert_eq!(budget_report(&b).rows.len(), 2);
        let t = tolerance_ablation(&cfg, &[10.0]);
        assert_eq!(tolerance_report(&t).rows.len(), 1);
    }
}
