//! Fig. 5(a–d) — total idle time (seconds) per strategy for the four
//! paper workflows under Pareto runtimes.

use crate::report::{fmt_f, Table};
use crate::run::{paper_matrix, ExperimentConfig, StrategyResult};

/// One bar of Fig. 5.
#[derive(Debug, Clone)]
pub struct Fig5Bar {
    /// Strategy legend label.
    pub label: String,
    /// Total idle seconds across the strategy's VMs.
    pub idle_seconds: f64,
}

/// One panel of Fig. 5 (one workflow).
#[derive(Debug, Clone)]
pub struct Fig5Panel {
    /// Workflow name.
    pub workflow: String,
    /// The 19 bars in legend order.
    pub bars: Vec<Fig5Bar>,
}

/// Regenerate all four panels under Pareto runtimes.
#[must_use]
pub fn fig5(config: &ExperimentConfig) -> Vec<Fig5Panel> {
    fig5_threaded(config, 1)
}

/// [`fig5`] with the (workflow × strategy) cells fanned over `threads`
/// workers. Output is identical for any thread count.
#[must_use]
pub fn fig5_threaded(config: &ExperimentConfig, threads: usize) -> Vec<Fig5Panel> {
    paper_matrix(config, threads)
        .map(|(row, results)| Fig5Panel::new(row.wf.name(), results))
        .collect()
}

impl Fig5Panel {
    /// Project one workflow's strategy results onto Fig. 5's idle bars.
    #[must_use]
    pub fn new(workflow: &str, results: Vec<StrategyResult>) -> Self {
        Fig5Panel {
            workflow: workflow.to_string(),
            bars: results
                .into_iter()
                .map(|r| Fig5Bar {
                    label: r.label,
                    idle_seconds: r.metrics.idle_seconds,
                })
                .collect(),
        }
    }

    /// Render as a table (`strategy`, `idle_s`).
    #[must_use]
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            format!("Fig. 5 — total idle time — {}", self.workflow),
            &["strategy", "idle_seconds"],
        );
        for b in &self.bars {
            t.row(vec![b.label.clone(), fmt_f(b.idle_seconds, 0)]);
        }
        t
    }

    /// Idle seconds for one strategy label.
    #[must_use]
    pub fn idle(&self, label: &str) -> Option<f64> {
        self.bars
            .iter()
            .find(|b| b.label == label)
            .map(|b| b.idle_seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig::default()
    }

    #[test]
    fn four_panels_nineteen_bars() {
        let panels = fig5(&cfg());
        assert_eq!(panels.len(), 4);
        for p in &panels {
            assert_eq!(p.bars.len(), 19);
        }
    }

    #[test]
    fn one_vm_per_task_wastes_most() {
        // Paper: "The largest idle time are produced by the
        // OneVMperTask*, Gain and CPA-Eager policies."
        for panel in fig5(&cfg()) {
            let one = panel.idle("OneVMperTask-s").unwrap();
            let packed = panel.idle("StartParExceed-s").unwrap();
            assert!(
                one >= packed,
                "{}: OneVMperTask {} < StartParExceed {}",
                panel.workflow,
                one,
                packed
            );
        }
    }

    #[test]
    fn sequential_workflow_has_little_idle_for_packed_strategies() {
        // Paper: "In the sequential workflow scenario its serialized
        // nature is the reason why for most methods there is no
        // significant idle time visible."
        let panels = fig5(&cfg());
        let seq = panels
            .iter()
            .find(|p| p.workflow == "sequential-20")
            .unwrap();
        let packed = seq.idle("StartParExceed-s").unwrap();
        let one = seq.idle("OneVMperTask-s").unwrap();
        assert!(packed < one / 4.0, "packed {packed} vs one-per-task {one}");
    }

    #[test]
    fn idle_is_nonnegative_everywhere() {
        for panel in fig5(&cfg()) {
            for b in &panel.bars {
                assert!(b.idle_seconds >= 0.0, "{}:{}", panel.workflow, b.label);
            }
        }
    }

    #[test]
    fn table_renders() {
        let t = fig5(&cfg())[0].to_table();
        assert_eq!(t.rows.len(), 19);
    }
}
