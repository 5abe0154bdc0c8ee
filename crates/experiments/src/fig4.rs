//! Fig. 4(a–d) — % makespan gain vs % $ loss for the 19 strategies on
//! the four paper workflows under Pareto runtimes.

use crate::report::{fmt_f, Table};
use crate::run::{paper_matrix, ExperimentConfig, StrategyResult};

/// One scatter point of Fig. 4.
#[derive(Debug, Clone)]
pub struct Fig4Point {
    /// Strategy legend label.
    pub label: String,
    /// % makespan gain (x axis).
    pub gain_pct: f64,
    /// % $ loss (y axis; negative = savings).
    pub loss_pct: f64,
    /// Whether the point lies in the paper's target square
    /// (gain ≥ 0 ∧ loss ≤ 0).
    pub in_target_square: bool,
}

/// One panel of Fig. 4 (one workflow).
#[derive(Debug, Clone)]
pub struct Fig4Panel {
    /// Workflow name (montage-24, cstem, …).
    pub workflow: String,
    /// The 19 scatter points in legend order.
    pub points: Vec<Fig4Point>,
}

/// Regenerate all four panels (Montage, CSTEM, MapReduce, Sequential)
/// under the paper's Pareto runtimes.
#[must_use]
pub fn fig4(config: &ExperimentConfig) -> Vec<Fig4Panel> {
    fig4_threaded(config, 1)
}

/// [`fig4`] with the (workflow × strategy) cells fanned over `threads`
/// workers. Output is identical for any thread count.
#[must_use]
pub fn fig4_threaded(config: &ExperimentConfig, threads: usize) -> Vec<Fig4Panel> {
    paper_matrix(config, threads)
        .map(|(row, results)| Fig4Panel::new(row.wf.name(), results))
        .collect()
}

impl Fig4Panel {
    /// Project one workflow's strategy results onto the Fig. 4 axes.
    #[must_use]
    pub fn new(workflow: &str, results: Vec<StrategyResult>) -> Self {
        Fig4Panel {
            workflow: workflow.to_string(),
            points: results
                .into_iter()
                .map(|r| Fig4Point {
                    label: r.label,
                    gain_pct: r.relative.gain_pct,
                    loss_pct: r.relative.loss_pct,
                    in_target_square: r.relative.in_target_square(),
                })
                .collect(),
        }
    }

    /// Render as a table (`strategy`, `gain%`, `loss%`, `target?`).
    #[must_use]
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            format!("Fig. 4 — % makespan gain vs % $ loss — {}", self.workflow),
            &["strategy", "gain_pct", "loss_pct", "in_target_square"],
        );
        for p in &self.points {
            t.row(vec![
                p.label.clone(),
                fmt_f(p.gain_pct, 2),
                fmt_f(p.loss_pct, 2),
                if p.in_target_square { "yes" } else { "no" }.into(),
            ]);
        }
        t
    }

    /// The point for one strategy label.
    #[must_use]
    pub fn point(&self, label: &str) -> Option<&Fig4Point> {
        self.points.iter().find(|p| p.label == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig::default()
    }

    #[test]
    fn four_panels_nineteen_points_each() {
        let panels = fig4(&cfg());
        assert_eq!(panels.len(), 4);
        for p in &panels {
            assert_eq!(p.points.len(), 19, "{}", p.workflow);
        }
        assert_eq!(panels[0].workflow, "montage-24");
        assert_eq!(panels[3].workflow, "sequential-20");
    }

    #[test]
    fn baseline_point_is_origin() {
        for panel in fig4(&cfg()) {
            let p = panel.point("OneVMperTask-s").unwrap();
            assert!(p.gain_pct.abs() < 1e-9, "{}", panel.workflow);
            assert!(p.loss_pct.abs() < 1e-9);
        }
    }

    #[test]
    fn large_one_vm_per_task_gains_at_great_cost() {
        // The paper: OneVMperTask-l gains but with a 200–300% loss.
        for panel in fig4(&cfg()) {
            let p = panel.point("OneVMperTask-l").unwrap();
            assert!(p.gain_pct > 0.0, "{}", panel.workflow);
            assert!(
                p.loss_pct > 100.0,
                "{}: loss {}",
                panel.workflow,
                p.loss_pct
            );
        }
    }

    #[test]
    fn start_par_exceed_small_saves_money() {
        // Packing everything onto few small VMs cannot cost more than a
        // VM per task.
        for panel in fig4(&cfg()) {
            let p = panel.point("StartParExceed-s").unwrap();
            assert!(
                p.loss_pct <= 1e-9,
                "{}: loss {}",
                panel.workflow,
                p.loss_pct
            );
        }
    }

    #[test]
    fn table_renders() {
        let panel = &fig4(&cfg())[1];
        let t = panel.to_table();
        assert_eq!(t.rows.len(), 19);
        assert!(t.to_ascii().contains("cstem"));
    }
}
