//! Data-intensive variant of the Fig. 4 comparison.
//!
//! Sect. V opens with "the results of our experiments for computational
//! and data intensive tasks", but the figures only show the CPU-bound
//! side. This experiment runs the same 19-strategy comparison with the
//! paper's task-size distribution (Pareto α = 1.3, scale 500 MB) on the
//! edges, and reports how each strategy's gain/loss moves once transfers
//! matter — the quantified version of Sect. III-A's remark that
//! VM-hungry strategies suit "tasks with large data dependencies".

use crate::report::{fmt_f, Table};
use crate::run::{prepare, run_matrix, ExperimentConfig, StrategyResult};
use cws_core::Strategy;
use cws_dag::Workflow;
use cws_workloads::{DataSizeModel, Scenario};

/// One strategy's shift between the CPU-bound and data-bound settings.
#[derive(Debug, Clone)]
pub struct DataShift {
    /// Strategy label.
    pub label: String,
    /// Gain% with zero payloads.
    pub cpu_gain: f64,
    /// Gain% with Pareto payloads.
    pub data_gain: f64,
    /// Loss% with zero payloads.
    pub cpu_loss: f64,
    /// Loss% with Pareto payloads.
    pub data_loss: f64,
}

/// The CPU-vs-data comparison of one workflow.
#[derive(Debug, Clone)]
pub struct DataPanel {
    /// Workflow name.
    pub workflow: String,
    /// Per-strategy shifts in legend order.
    pub shifts: Vec<DataShift>,
}

/// Run both settings for one workflow — one matrix row per payload
/// model — and pair the points up.
#[must_use]
pub fn data_intensive_panel(config: &ExperimentConfig, wf: &Workflow) -> DataPanel {
    let scenario = Scenario::Pareto { seed: config.seed };
    let prepared: Vec<_> = [
        DataSizeModel::CpuIntensive,
        DataSizeModel::ParetoSizes { seed: config.seed },
    ]
    .into_iter()
    .map(|data_model| {
        let wf = ExperimentConfig {
            data_model,
            ..config.clone()
        }
        .materialize(wf, scenario);
        prepare(config, wf)
    })
    .collect();
    let [cpu, data]: [Vec<StrategyResult>; 2] =
        run_matrix(config, &prepared, &Strategy::paper_set(), 1)
            .try_into()
            .expect("two payload models in, two rows out");
    let shifts = cpu
        .into_iter()
        .zip(data)
        .map(|(c, d)| DataShift {
            label: c.label,
            cpu_gain: c.relative.gain_pct,
            data_gain: d.relative.gain_pct,
            cpu_loss: c.relative.loss_pct,
            data_loss: d.relative.loss_pct,
        })
        .collect();
    DataPanel {
        workflow: prepared[0].wf.name().to_string(),
        shifts,
    }
}

/// Render as a table.
#[must_use]
pub fn data_report(panel: &DataPanel) -> Table {
    let mut t = Table::new(
        format!("CPU-bound vs data-bound gain/loss — {}", panel.workflow),
        &["strategy", "cpu_gain", "data_gain", "cpu_loss", "data_loss"],
    );
    for s in &panel.shifts {
        t.row(vec![
            s.label.clone(),
            fmt_f(s.cpu_gain, 1),
            fmt_f(s.data_gain, 1),
            fmt_f(s.cpu_loss, 1),
            fmt_f(s.data_loss, 1),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_workloads::montage_24;

    fn panel() -> DataPanel {
        data_intensive_panel(
            &ExperimentConfig {
                validate_with_sim: false,
                ..ExperimentConfig::default()
            },
            &montage_24(),
        )
    }

    #[test]
    fn pairs_all_strategies() {
        let p = panel();
        assert_eq!(p.shifts.len(), 19);
        assert_eq!(p.workflow, "montage-24");
    }

    #[test]
    fn transfers_penalize_scatter_strategies() {
        // With heavy payloads, OneVMperTask pays every edge over the
        // network while the single-VM StartParExceed pays none: the
        // serialization penalty of StartParExceed-s must *shrink*
        // relative to the baseline (its gain improves or at least does
        // not degrade).
        let p = panel();
        let sp = p
            .shifts
            .iter()
            .find(|s| s.label == "StartParExceed-s")
            .unwrap();
        assert!(
            sp.data_gain >= sp.cpu_gain - 1e-9,
            "co-location should pay off with data: cpu {} vs data {}",
            sp.cpu_gain,
            sp.data_gain
        );
    }

    #[test]
    fn baseline_stays_the_origin_in_both_settings() {
        let p = panel();
        let b = p
            .shifts
            .iter()
            .find(|s| s.label == "OneVMperTask-s")
            .unwrap();
        assert!(b.cpu_gain.abs() < 1e-9);
        assert!(b.data_gain.abs() < 1e-9);
        assert!(b.cpu_loss.abs() < 1e-9);
        assert!(b.data_loss.abs() < 1e-9);
    }

    #[test]
    fn report_renders() {
        let t = data_report(&panel());
        assert_eq!(t.rows.len(), 19);
    }
}
