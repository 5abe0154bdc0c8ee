//! Plan robustness under runtime jitter, per strategy.
//!
//! The paper's schedules are static: they commit to VM assignments from
//! runtime *estimates*. This experiment replays every strategy's plan in
//! the discrete-event simulator with multiplicatively jittered runtimes
//! ([`cws_sim::jitter`]) and reports how much each plan's makespan
//! inflates — connecting the provisioning comparison to the robustness
//! question the static-scheduling premise raises.

use crate::report::{fmt_f, Table};
use crate::run::ExperimentConfig;
use cws_core::Strategy;
use cws_dag::Workflow;
use cws_sim::{robustness, JitterModel};
use cws_workloads::Scenario;

/// Robustness of one strategy's plan.
#[derive(Debug, Clone)]
pub struct RobustnessRow {
    /// Strategy label.
    pub label: String,
    /// Planned makespan (seconds).
    pub planned_makespan: f64,
    /// Mean makespan inflation over trials (fraction).
    pub mean_inflation: f64,
    /// Worst makespan inflation (fraction).
    pub max_inflation: f64,
}

/// Replay each of the 19 strategies under jitter and collect inflation
/// statistics.
#[must_use]
pub fn strategy_robustness(
    config: &ExperimentConfig,
    wf: &Workflow,
    jitter: JitterModel,
    trials: usize,
) -> Vec<RobustnessRow> {
    let m = config.materialize(wf, Scenario::Pareto { seed: config.seed });
    Strategy::paper_set()
        .into_iter()
        .map(|strategy| {
            let s = strategy.schedule(&m, &config.platform);
            let r = robustness(&m, &config.platform, &s, jitter, trials);
            RobustnessRow {
                label: strategy.label(),
                planned_makespan: r.planned_makespan,
                mean_inflation: r.mean_inflation,
                max_inflation: r.max_inflation,
            }
        })
        .collect()
}

/// Render as a table.
#[must_use]
pub fn robustness_report(workflow: &str, jitter: f64, rows: &[RobustnessRow]) -> Table {
    let mut t = Table::new(
        format!(
            "Plan robustness under ±{:.0}% runtime jitter — {workflow}",
            jitter * 100.0
        ),
        &[
            "strategy",
            "planned_makespan_s",
            "mean_inflation_pct",
            "max_inflation_pct",
        ],
    );
    for r in rows {
        t.row(vec![
            r.label.clone(),
            fmt_f(r.planned_makespan, 0),
            fmt_f(r.mean_inflation * 100.0, 2),
            fmt_f(r.max_inflation * 100.0, 2),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_workloads::montage_24;

    fn rows() -> Vec<RobustnessRow> {
        strategy_robustness(
            &ExperimentConfig {
                validate_with_sim: false,
                ..ExperimentConfig::default()
            },
            &montage_24(),
            JitterModel::new(0.2, 99),
            10,
        )
    }

    #[test]
    fn covers_all_strategies() {
        assert_eq!(rows().len(), 19);
    }

    #[test]
    fn inflation_is_bounded_by_jitter_for_serial_plans() {
        // No plan can inflate beyond the per-task bound on a serial
        // chain; parallel plans can inflate more through re-synchronized
        // waits but stay within a small multiple of the bound.
        for r in rows() {
            assert!(r.mean_inflation <= r.max_inflation + 1e-12);
            assert!(
                r.max_inflation <= 0.5,
                "{}: implausible inflation {}",
                r.label,
                r.max_inflation
            );
            assert!(r.max_inflation >= -0.5);
        }
    }

    #[test]
    fn report_renders() {
        let t = robustness_report("montage-24", 0.2, &rows());
        assert_eq!(t.rows.len(), 19);
        assert!(t.to_ascii().contains("±20%"));
    }
}
