//! Table IV — savings fluctuation vs stable gain for the
//! `AllPar[Not]Exceed` strategies.
//!
//! The paper observes that the `AllPar[Not]Exceed` pair delivers a
//! *stable* makespan gain per instance type (0% for small, ~37% for
//! medium, ~52% for large — the speed-up margins 1 − 1/1.6 and
//! 1 − 1/2.1) while the monetary loss *fluctuates drastically* across
//! workflows and runtime scenarios. Table IV reports, per instance type:
//! the loss interval per workflow (with the Pareto-case loss in
//! parentheses), the maximal loss interval across workflows, and the
//! stable gain.

use crate::report::{fmt_f, Table};
use crate::run::{prepare, run_matrix, ExperimentConfig, PreparedWorkflow};
use cws_core::{StaticAlloc, Strategy};
use cws_platform::InstanceType;
use cws_workloads::paper_workflows;

/// Loss statistics of one workflow at one instance type.
#[derive(Debug, Clone)]
pub struct WorkflowLoss {
    /// Workflow name.
    pub workflow: String,
    /// Minimum loss% over both AllPar variants and all three scenarios.
    pub loss_min: f64,
    /// Maximum loss% over the same set.
    pub loss_max: f64,
    /// Loss% in the Pareto scenario (the parenthesised figure).
    pub pareto_loss: f64,
}

/// One row of Table IV (one instance type).
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Instance type of the row.
    pub itype: InstanceType,
    /// Per-workflow loss intervals.
    pub per_workflow: Vec<WorkflowLoss>,
    /// Loss interval across every workflow and scenario.
    pub max_interval: (f64, f64),
    /// Mean measured gain% across workflows and scenarios.
    pub mean_gain: f64,
    /// The theoretical stable gain of the type: `100·(1 − 1/speedup)`.
    pub stable_gain: f64,
}

/// Regenerate Table IV for small, medium and large instances.
#[must_use]
pub fn table4(config: &ExperimentConfig) -> Vec<Table4Row> {
    table4_threaded(config, 1)
}

/// [`table4`] with the (workflow × scenario × variant × type) cells
/// fanned over `threads` workers. The aggregation (including every
/// floating-point sum) visits cells in exactly the sequential order, so
/// output is identical for any thread count.
#[must_use]
pub fn table4_threaded(config: &ExperimentConfig, threads: usize) -> Vec<Table4Row> {
    let variants = [StaticAlloc::AllParExceed, StaticAlloc::AllParNotExceed];
    let itypes = [
        InstanceType::Small,
        InstanceType::Medium,
        InstanceType::Large,
    ];
    let workflows = paper_workflows();
    let scenarios = config.scenarios();

    // One prepared entry per (workflow, scenario) — workflow-major; one
    // strategy column per (itype, variant) — itype-major.
    let prepared: Vec<PreparedWorkflow> = workflows
        .iter()
        .flat_map(|wf| {
            scenarios
                .iter()
                .map(|&scenario| prepare(config, config.materialize(wf, scenario)))
        })
        .collect();
    let strategies: Vec<Strategy> = itypes
        .iter()
        .flat_map(|&itype| {
            variants
                .iter()
                .map(move |&alloc| Strategy::Static { alloc, itype })
        })
        .collect();
    let matrix = run_matrix(config, &prepared, &strategies, threads);

    itypes
        .into_iter()
        .enumerate()
        .map(|(ti, itype)| {
            let mut per_workflow = Vec::new();
            let mut gains = Vec::new();
            for (wi, wf) in workflows.iter().enumerate() {
                let mut losses = Vec::new();
                let mut pareto_loss = 0.0;
                for (si, scenario) in scenarios.iter().enumerate() {
                    for (vi, &alloc) in variants.iter().enumerate() {
                        let r = &matrix[wi * scenarios.len() + si][ti * variants.len() + vi];
                        losses.push(r.relative.loss_pct);
                        gains.push(r.relative.gain_pct);
                        if scenario.name() == "pareto" && alloc == StaticAlloc::AllParExceed {
                            pareto_loss = r.relative.loss_pct;
                        }
                    }
                }
                let loss_min = losses.iter().cloned().fold(f64::INFINITY, f64::min);
                let loss_max = losses.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                per_workflow.push(WorkflowLoss {
                    workflow: wf.name().to_string(),
                    loss_min,
                    loss_max,
                    pareto_loss,
                });
            }
            let max_interval = per_workflow
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), w| {
                    (lo.min(w.loss_min), hi.max(w.loss_max))
                });
            let mean_gain = gains.iter().sum::<f64>() / gains.len() as f64;
            Table4Row {
                itype,
                per_workflow,
                max_interval,
                mean_gain,
                stable_gain: 100.0 * (1.0 - 1.0 / itype.speedup()),
            }
        })
        .collect()
}

/// Render the rows as one table.
#[must_use]
pub fn table4_report(rows: &[Table4Row]) -> Table {
    let mut headers = vec!["instance".to_string()];
    if let Some(first) = rows.first() {
        for w in &first.per_workflow {
            headers.push(format!("{}_loss", w.workflow));
        }
    }
    headers.extend([
        "max_loss_interval".to_string(),
        "mean_gain".to_string(),
        "stable_gain".to_string(),
    ]);
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Table IV — savings fluctuation vs stable gain for AllPar[Not]Exceed",
        &header_refs,
    );
    for r in rows {
        let mut cells = vec![r.itype.name().to_string()];
        for w in &r.per_workflow {
            cells.push(format!(
                "[{}, {}] ({})",
                fmt_f(w.loss_min, 0),
                fmt_f(w.loss_max, 0),
                fmt_f(w.pareto_loss, 0)
            ));
        }
        cells.push(format!(
            "[{}, {}]",
            fmt_f(r.max_interval.0, 0),
            fmt_f(r.max_interval.1, 0)
        ));
        cells.push(format!("{}%", fmt_f(r.mean_gain, 0)));
        cells.push(format!("{}%", fmt_f(r.stable_gain, 0)));
        t.row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Table4Row> {
        table4(&ExperimentConfig::default())
    }

    #[test]
    fn three_rows_four_workflows() {
        let r = rows();
        assert_eq!(r.len(), 3);
        for row in &r {
            assert_eq!(row.per_workflow.len(), 4);
        }
    }

    #[test]
    fn stable_gain_matches_speedup_margin() {
        let r = rows();
        assert_eq!(r[0].stable_gain, 0.0);
        assert!((r[1].stable_gain - 37.5).abs() < 1e-9, "paper quotes 37%");
        assert!(
            (r[2].stable_gain - 52.380_952_380_952_38).abs() < 1e-9,
            "paper quotes 52%"
        );
    }

    #[test]
    fn small_instances_never_lose_money() {
        // Paper: "Using small instances is the only case in which savings
        // are positive" — losses are ≤ 0 for the small row.
        let r = rows();
        for w in &r[0].per_workflow {
            assert!(
                w.loss_max <= 1e-9,
                "{}: max loss {} on small",
                w.workflow,
                w.loss_max
            );
        }
    }

    #[test]
    fn losses_grow_with_instance_size() {
        let r = rows();
        assert!(r[2].max_interval.1 > r[1].max_interval.1);
        assert!(r[1].max_interval.1 > r[0].max_interval.1);
    }

    #[test]
    fn large_row_can_exceed_100pct_loss() {
        // Paper: losses up to 166% for large instances.
        let r = rows();
        assert!(
            r[2].max_interval.1 > 100.0,
            "large-instance worst loss {}",
            r[2].max_interval.1
        );
    }

    #[test]
    fn report_renders() {
        let t = table4_report(&rows());
        assert_eq!(t.rows.len(), 3);
        assert!(t.to_ascii().contains("stable_gain"));
    }
}
