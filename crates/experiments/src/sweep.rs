//! Parallel grid runner.
//!
//! The full reproduction runs 19 strategies × 4 workflows × 3 scenarios
//! (plus baselines). Each (workflow, scenario) pair is prepared once —
//! materialized, its [`KernelTables`](cws_core::KernelTables) built and
//! its baseline computed — and the cells then fan out through
//! [`run_matrix`], so the grid comes back in deterministic grid order
//! for any thread count.

use crate::run::{prepare, run_matrix, ExperimentConfig, StrategyResult};
use cws_core::Strategy;
use cws_dag::Workflow;
use cws_workloads::Scenario;

/// One completed grid cell.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Workflow name.
    pub workflow: String,
    /// Scenario name.
    pub scenario: String,
    /// Strategy result (label + metrics + relative metrics).
    pub result: StrategyResult,
}

/// Run the whole (workflow × scenario × strategy) grid on `workers`
/// threads. Results come back workflow-major, then scenario, then
/// strategy, regardless of scheduling.
#[must_use]
pub fn run_grid(
    config: &ExperimentConfig,
    workflows: &[Workflow],
    scenarios: &[Scenario],
    strategies: &[Strategy],
    workers: usize,
) -> Vec<GridCell> {
    let keys: Vec<(&Workflow, Scenario)> = workflows
        .iter()
        .flat_map(|wf| scenarios.iter().map(move |&sc| (wf, sc)))
        .collect();
    let prepared: Vec<_> = keys
        .iter()
        .map(|&(wf, sc)| prepare(config, config.materialize(wf, sc)))
        .collect();
    let matrix = run_matrix(config, &prepared, strategies, workers);
    keys.iter()
        .zip(matrix)
        .flat_map(|(&(wf, sc), row)| {
            row.into_iter().map(move |result| GridCell {
                workflow: wf.name().to_string(),
                scenario: sc.name().to_string(),
                result,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_workloads::{mapreduce_default, sequential};

    #[test]
    fn grid_covers_every_cell_in_order() {
        let cfg = ExperimentConfig::default();
        let wfs = [sequential(5), mapreduce_default()];
        let scenarios = [Scenario::BestCase, Scenario::WorstCase];
        let strategies = Strategy::paper_set();
        let cells = run_grid(&cfg, &wfs, &scenarios, &strategies, 4);
        assert_eq!(cells.len(), 2 * 2 * 19);
        // deterministic order: workflow-major, then scenario, then strategy
        assert_eq!(cells[0].workflow, "sequential-5");
        assert_eq!(cells[0].scenario, "best-case");
        assert_eq!(cells[0].result.label, "StartParNotExceed-s");
        assert_eq!(cells[19].scenario, "worst-case");
        assert_eq!(cells.last().unwrap().workflow, "mapreduce-8x8x4");
        assert_eq!(cells.last().unwrap().result.label, "AllPar1LnSDyn");
    }

    #[test]
    fn parallel_equals_sequential_run() {
        let cfg = ExperimentConfig::default();
        let wfs = [sequential(4)];
        let scenarios = [Scenario::Pareto { seed: 42 }];
        let strategies = Strategy::paper_set();
        let par = run_grid(&cfg, &wfs, &scenarios, &strategies, 8);
        let seq = run_grid(&cfg, &wfs, &scenarios, &strategies, 1);
        assert_eq!(par.len(), seq.len());
        for (a, b) in par.iter().zip(&seq) {
            assert_eq!(a.result.label, b.result.label);
            assert_eq!(a.result.metrics.makespan, b.result.metrics.makespan);
            assert_eq!(a.result.metrics.cost, b.result.metrics.cost);
        }
    }

    #[test]
    fn one_cell_grid_on_two_workers() {
        let cfg = ExperimentConfig::default();
        let cells = run_grid(
            &cfg,
            &[sequential(3)],
            &[Scenario::BestCase],
            &[Strategy::BASELINE],
            2,
        );
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].result.relative.gain_pct, 0.0);
    }
}
