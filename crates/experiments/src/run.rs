//! The experiment runner every baseline-relative driver measures
//! through: [`prepare`] a materialized workflow once (kernel tables and
//! `OneVMperTask-s` baseline), then [`run_matrix`] schedules, checks and
//! measures each (workflow × strategy) cell, fanned out over
//! [`par_map`].

use cws_core::{par_map, KernelTables, RelativeMetrics, Schedule, ScheduleMetrics, Strategy};
use cws_dag::Workflow;
use cws_platform::Platform;
use cws_workloads::{paper_workflows, DataSizeModel, Scenario};

/// Configuration shared by every experiment.
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
pub struct StrategyResult {
    /// Figure-legend label.
    pub label: String,
    /// Absolute metrics.
    pub metrics: ScheduleMetrics,
    /// Gain/loss against the `OneVMperTask-s` baseline.
    pub relative: RelativeMetrics,
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

/// Build the [`KernelTables`] of an already materialized workflow and
/// compute its `OneVMperTask-s` baseline once, so a matrix run shares
/// both across every strategy cell. Pass `config.materialize(wf,
/// scenario)` for a scenario run, or the workflow itself to run it as
/// given (a trace sweep). The baseline schedule here is the tables'
/// first use, which keeps the `kernel.table_reuse_hits` counter
/// independent of [`run_matrix`]'s thread count.
#[must_use]
pub fn prepare(config: &ExperimentConfig, wf: Workflow) -> PreparedWorkflow {
    let tables = KernelTables::build(&wf, &config.platform);
    let schedule = Strategy::BASELINE.schedule_with(&wf, &config.platform, Some(&tables));
    let baseline = ScheduleMetrics::of(&schedule, &wf, &config.platform);
    PreparedWorkflow {
        wf,
        baseline,
        tables,
    }
}

/// Run every strategy on every prepared workflow, fanning the
/// (workflow × strategy) cells over `threads` workers with
/// [`par_map`]. Each cell schedules on its row's shared tables, checks
/// the schedule and measures it against the row's baseline; cells are
/// independent, so the result matrix — indexed `[workflow][strategy]`
/// in input order — is identical for any thread count.
///
/// # Panics
/// Panics if a cell's schedule is invalid or (when enabled in `config`)
/// diverges under discrete-event replay — either indicates a bug, not a
/// data condition.
#[must_use]
pub fn run_matrix(
    config: &ExperimentConfig,
    prepared: &[PreparedWorkflow],
    strategies: &[Strategy],
    threads: usize,
) -> Vec<Vec<StrategyResult>> {
    let per_row = strategies.len();
    let mut cells = par_map(prepared.len() * per_row, threads, |cell| {
        measure(
            config,
            &prepared[cell / per_row],
            strategies[cell % per_row],
        )
    })
    .into_iter();
    prepared
        .iter()
        .map(|_| cells.by_ref().take(per_row).collect())
        .collect()
}

/// The Fig. 4/5 and Table V matrix: every paper pairing on the four
/// paper workflows under the config's Pareto draw, one row per workflow.
pub(crate) fn paper_matrix(
    config: &ExperimentConfig,
    threads: usize,
) -> impl Iterator<Item = (PreparedWorkflow, Vec<StrategyResult>)> {
    let scenario = Scenario::Pareto { seed: config.seed };
    let prepared: Vec<_> = paper_workflows()
        .iter()
        .map(|wf| prepare(config, config.materialize(wf, scenario)))
        .collect();
    let matrix = run_matrix(config, &prepared, &Strategy::paper_set(), threads);
    prepared.into_iter().zip(matrix)
}

/// One matrix cell: schedule `strategy` on the row's tables, check it
/// and measure it against the row's baseline.
fn measure(
    config: &ExperimentConfig,
    row: &PreparedWorkflow,
    strategy: Strategy,
) -> StrategyResult {
    let schedule = strategy.schedule_with(&row.wf, &config.platform, Some(&row.tables));
    check(config, &row.wf, &schedule);
    let metrics = ScheduleMetrics::of(&schedule, &row.wf, &config.platform);
    StrategyResult {
        label: strategy.label(),
        metrics,
        relative: RelativeMetrics::vs(&metrics, &row.baseline),
    }
}

/// The runner's check on every schedule it measures: the schedule is
/// valid and, when `config` asks for it, replays identically in the
/// discrete-event simulator.
///
/// # Panics
/// Panics if the schedule is invalid or diverges under replay — either
/// indicates a bug, not a data condition.
pub(crate) fn check(config: &ExperimentConfig, wf: &Workflow, schedule: &Schedule) {
    let label = &schedule.strategy;
    schedule
        .validate(wf, &config.platform)
        .unwrap_or_else(|e| panic!("{label} produced an invalid schedule: {e}"));
    if config.validate_with_sim {
        cws_sim::verify(wf, &config.platform, schedule, 1e-6)
            .unwrap_or_else(|e| panic!("{label} diverged under replay: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_workloads::sequential;

    #[test]
    fn baseline_relative_is_origin() {
        let cfg = ExperimentConfig::default();
        let prepared = [prepare(
            &cfg,
            cfg.materialize(&sequential(5), Scenario::BestCase),
        )];
        let r = &run_matrix(&cfg, &prepared, &[Strategy::BASELINE], 1)[0][0];
        assert!(r.relative.gain_pct.abs() < 1e-9);
        assert!(r.relative.loss_pct.abs() < 1e-9);
    }

    #[test]
    fn matrix_covers_19_strategies_per_row() {
        let cfg = ExperimentConfig::default();
        let prepared: Vec<_> = [Scenario::BestCase, Scenario::WorstCase]
            .into_iter()
            .map(|sc| prepare(&cfg, cfg.materialize(&sequential(5), sc)))
            .collect();
        let matrix = run_matrix(&cfg, &prepared, &Strategy::paper_set(), 1);
        assert_eq!(matrix.len(), 2);
        assert!(matrix.iter().all(|row| row.len() == 19));
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
