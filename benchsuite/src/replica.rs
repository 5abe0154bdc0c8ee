//! The traced one-thread re-drive of `cws_experiments::run`'s matrix
//! cell, shared by the `paper` and `dag-*` replicas: the same public
//! calls in the same order, each inside the span of the layer it enters.

use crate::trace::{Layer, Tracer};
use cws_core::{KernelTables, RelativeMetrics, Schedule, ScheduleMetrics, StaticAlloc, Strategy};
use cws_dag::Workflow;
use cws_experiments::run::PreparedWorkflow;
use cws_experiments::{ExperimentConfig, StrategyResult};

/// The span layer of a paper strategy's `schedule_with` call.
#[must_use]
pub fn family(s: Strategy) -> Layer {
    match s {
        Strategy::Static {
            alloc: StaticAlloc::AllParExceed | StaticAlloc::AllParNotExceed,
            ..
        } => Layer::AllPar,
        Strategy::Static { .. } => Layer::Heft,
        Strategy::CpaEager(_) => Layer::Cpa,
        Strategy::Gain(_) => Layer::Gain,
        Strategy::AllPar1LnS | Strategy::AllPar1LnSDyn => Layer::OneLns,
    }
}

/// `schedule_with` inside its family's span.
pub fn schedule(
    t: &mut Tracer,
    s: Strategy,
    wf: &Workflow,
    config: &ExperimentConfig,
    tables: &KernelTables,
) -> Schedule {
    t.span(family(s), |_| {
        s.schedule_with(wf, &config.platform, Some(tables))
    })
}

/// `run::prepare_as_given`: kernel tables plus the baseline metrics.
pub fn prepare(t: &mut Tracer, config: &ExperimentConfig, wf: Workflow) -> PreparedWorkflow {
    let tables = t.span(Layer::TablesBuild, |_| {
        KernelTables::build(&wf, &config.platform)
    });
    let base = schedule(t, Strategy::BASELINE, &wf, config, &tables);
    let baseline = t.span(Layer::Billing, |_| {
        ScheduleMetrics::of(&base, &wf, &config.platform)
    });
    PreparedWorkflow {
        wf,
        baseline,
        tables,
    }
}

/// `run::run_strategy_with`: schedule, validate, replay in the
/// simulator when the config asks for it, then bill.
///
/// # Errors
/// An invalid schedule or a replay divergence, as text.
pub fn cell(
    t: &mut Tracer,
    config: &ExperimentConfig,
    p: &PreparedWorkflow,
    s: Strategy,
) -> Result<StrategyResult, String> {
    let sched = schedule(t, s, &p.wf, config, &p.tables);
    t.span(Layer::Validate, |_| sched.validate(&p.wf, &config.platform))
        .map_err(|e| format!("{} produced an invalid schedule: {e}", s.label()))?;
    if config.validate_with_sim {
        t.span(Layer::SimReplay, |_| {
            cws_sim::verify(&p.wf, &config.platform, &sched, 1e-6).map(drop)
        })
        .map_err(|e| format!("{} diverged under replay: {e}", s.label()))?;
    }
    Ok(t.span(Layer::Billing, |_| {
        let metrics = ScheduleMetrics::of(&sched, &p.wf, &config.platform);
        StrategyResult {
            label: s.label(),
            metrics,
            relative: RelativeMetrics::vs(&metrics, &p.baseline),
        }
    }))
}
