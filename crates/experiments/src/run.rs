//! Shared experiment runner: one (workflow, scenario, strategy) cell,
//! and [`run_matrix`], which fans many cells out over [`par_map`].

use cws_core::{par_map, KernelTables, RelativeMetrics, ScheduleMetrics, Strategy};
use cws_dag::Workflow;
use cws_platform::Platform;
use cws_workloads::{DataSizeModel, Scenario};
use serde::{Deserialize, Serialize};

/// Configuration shared by every experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// The simulated platform (EC2 prices, network, default region).
    pub platform: Platform,
    /// Seed for the Pareto runtime scenario.
    pub seed: u64,
    /// Edge payload model. The paper's figures are CPU-intensive, so the
    /// default zeroes all payloads.
    pub data_model: DataSizeModel,
    /// Whether to cross-validate every schedule in the discrete-event
    /// simulator (adds a few percent of runtime; on by default because
    /// the check is cheap and catches model drift immediately).
    pub validate_with_sim: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            platform: Platform::ec2_paper(),
            seed: 42,
            data_model: DataSizeModel::CpuIntensive,
            validate_with_sim: true,
        }
    }
}

impl ExperimentConfig {
    /// Prepare a workflow for one scenario: rewrite runtimes per the
    /// scenario and payloads per the data model.
    #[must_use]
    pub fn materialize(&self, wf: &Workflow, scenario: Scenario) -> Workflow {
        let wf = self.data_model.apply(wf);
        scenario.apply(&wf)
    }

    /// The paper's three scenarios with this config's seed.
    #[must_use]
    pub fn scenarios(&self) -> [Scenario; 3] {
        Scenario::paper_set(self.seed)
    }
}

/// The outcome of one strategy on one materialized workflow.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StrategyResult {
    /// Figure-legend label.
    pub label: String,
    /// Absolute metrics.
    pub metrics: ScheduleMetrics,
    /// Gain/loss against the `OneVMperTask-s` baseline.
    pub relative: RelativeMetrics,
}

/// Run one strategy on a *materialized* workflow (runtimes already set)
/// and measure it against the supplied baseline metrics.
///
/// # Panics
/// Panics if the produced schedule is invalid or (when enabled in
/// `config`) diverges under discrete-event replay — either indicates a
/// bug, not a data condition.
#[must_use]
pub fn run_strategy(
    config: &ExperimentConfig,
    wf: &Workflow,
    strategy: Strategy,
    baseline: &ScheduleMetrics,
) -> StrategyResult {
    run_strategy_with(config, wf, strategy, baseline, None)
}

/// [`run_strategy`] borrowing shared [`KernelTables`]. A matrix run
/// schedules the same materialized workflow 19+ times; lending one
/// table set to every cell skips the per-schedule exec/bandwidth table
/// rebuild without changing a single bit of output.
///
/// # Panics
/// As [`run_strategy`].
#[must_use]
pub fn run_strategy_with(
    config: &ExperimentConfig,
    wf: &Workflow,
    strategy: Strategy,
    baseline: &ScheduleMetrics,
    tables: Option<&KernelTables>,
) -> StrategyResult {
    let schedule = strategy.schedule_with(wf, &config.platform, tables);
    schedule
        .validate(wf, &config.platform)
        .unwrap_or_else(|e| panic!("{} produced an invalid schedule: {e}", strategy.label()));
    if config.validate_with_sim {
        cws_sim::verify(wf, &config.platform, &schedule, 1e-6)
            .unwrap_or_else(|e| panic!("{} diverged under replay: {e}", strategy.label()));
    }
    let metrics = ScheduleMetrics::of(&schedule, wf, &config.platform);
    StrategyResult {
        label: strategy.label(),
        metrics,
        relative: RelativeMetrics::vs(&metrics, baseline),
    }
}

/// Compute the baseline (`OneVMperTask-s`) metrics for a materialized
/// workflow.
#[must_use]
pub fn baseline_metrics(config: &ExperimentConfig, wf: &Workflow) -> ScheduleMetrics {
    baseline_metrics_with(config, wf, None)
}

/// [`baseline_metrics`] borrowing shared [`KernelTables`].
#[must_use]
pub fn baseline_metrics_with(
    config: &ExperimentConfig,
    wf: &Workflow,
    tables: Option<&KernelTables>,
) -> ScheduleMetrics {
    let schedule = Strategy::BASELINE.schedule_with(wf, &config.platform, tables);
    ScheduleMetrics::of(&schedule, wf, &config.platform)
}

/// Run the full 19-strategy paper set on a materialized workflow,
/// building the exec/bandwidth tables once and sharing them across all
/// 19 schedules plus the baseline.
#[must_use]
pub fn run_all_strategies(config: &ExperimentConfig, wf: &Workflow) -> Vec<StrategyResult> {
    let tables = KernelTables::build(wf, &config.platform);
    let baseline = baseline_metrics_with(config, wf, Some(&tables));
    Strategy::paper_set()
        .into_iter()
        .map(|s| run_strategy_with(config, wf, s, &baseline, Some(&tables)))
        .collect()
}

/// A materialized workflow plus everything a matrix run shares across
/// its strategy cells: the precomputed baseline metrics and the
/// immutable exec/bandwidth/latency [`KernelTables`] for the
/// `(workflow, platform)` key — one row of a [`run_matrix`] call.
#[derive(Debug)]
pub struct PreparedWorkflow {
    /// The materialized workflow (runtimes and payloads rewritten).
    pub wf: Workflow,
    /// `OneVMperTask-s` baseline metrics, computed once.
    pub baseline: ScheduleMetrics,
    /// Shared kernel tables, built once and lent to every cell.
    pub tables: KernelTables,
}

/// Materialize `wf` under `scenario`, build its [`KernelTables`] and
/// compute its baseline once, so a matrix run shares all three across
/// every strategy cell. The baseline schedule here is the tables' first
/// use, which keeps the `kernel.table_reuse_hits` counter independent
/// of [`run_matrix`]'s thread count.
#[must_use]
pub fn prepare(config: &ExperimentConfig, wf: &Workflow, scenario: Scenario) -> PreparedWorkflow {
    let m = config.materialize(wf, scenario);
    let tables = KernelTables::build(&m, &config.platform);
    let baseline = baseline_metrics_with(config, &m, Some(&tables));
    PreparedWorkflow {
        wf: m,
        baseline,
        tables,
    }
}

/// Run every strategy on every prepared workflow, fanning the
/// (workflow × strategy) cells over `threads` workers with
/// [`par_map`]. Cells are independent and each schedule is computed
/// exactly as in the sequential path, so the result matrix — indexed
/// `[workflow][strategy]` in input order — is identical for any thread
/// count.
#[must_use]
pub fn run_matrix(
    config: &ExperimentConfig,
    prepared: &[PreparedWorkflow],
    strategies: &[Strategy],
    threads: usize,
) -> Vec<Vec<StrategyResult>> {
    let per_row = strategies.len();
    let mut cells = par_map(prepared.len() * per_row, threads, |cell| {
        let row = &prepared[cell / per_row];
        run_strategy_with(
            config,
            &row.wf,
            strategies[cell % per_row],
            &row.baseline,
            Some(&row.tables),
        )
    })
    .into_iter();
    prepared
        .iter()
        .map(|_| cells.by_ref().take(per_row).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_workloads::sequential;

    #[test]
    fn baseline_relative_is_origin() {
        let cfg = ExperimentConfig::default();
        let wf = cfg.materialize(&sequential(5), Scenario::BestCase);
        let baseline = baseline_metrics(&cfg, &wf);
        let r = run_strategy(&cfg, &wf, Strategy::BASELINE, &baseline);
        assert!(r.relative.gain_pct.abs() < 1e-9);
        assert!(r.relative.loss_pct.abs() < 1e-9);
    }

    #[test]
    fn run_all_covers_19_strategies() {
        let cfg = ExperimentConfig::default();
        let wf = cfg.materialize(&sequential(5), Scenario::BestCase);
        let results = run_all_strategies(&cfg, &wf);
        assert_eq!(results.len(), 19);
    }

    #[test]
    fn materialize_applies_scenario_and_data_model() {
        let cfg = ExperimentConfig::default();
        let wf = cfg.materialize(&sequential(4), Scenario::WorstCase);
        assert!(wf.tasks().iter().all(|t| t.base_time == 10800.0));
        assert!(wf.edges().all(|e| e.data_mb == 0.0));
    }

    #[test]
    fn pareto_materialization_is_seeded() {
        let cfg = ExperimentConfig::default();
        let s = Scenario::Pareto { seed: cfg.seed };
        let a = cfg.materialize(&sequential(6), s);
        let b = cfg.materialize(&sequential(6), s);
        assert_eq!(a, b);
    }
}
