//! Cost–makespan Pareto frontier experiment.
//!
//! For each paper workflow under Pareto runtimes, evaluates the extended
//! candidate set (the 19 paper strategies, xlarge statics, PCH,
//! heterogeneous-pool HEFT) and reports which strategies are
//! Pareto-optimal — the actionable distillation of Fig. 4.

use crate::report::{fmt_f, Table};
use crate::run::ExperimentConfig;
use cws_core::frontier::{pareto_front, CandidateSet, FrontierPoint};
use cws_dag::Workflow;
use cws_workloads::{paper_workflows, Scenario};

/// Frontier of one workflow.
#[derive(Debug, Clone)]
pub struct FrontierPanel {
    /// Workflow name.
    pub workflow: String,
    /// All evaluated points, sorted by makespan.
    pub points: Vec<FrontierPoint>,
}

/// Compute the frontier panel for one workflow.
#[must_use]
pub fn frontier_panel(config: &ExperimentConfig, wf: &Workflow) -> FrontierPanel {
    let m = config.materialize(wf, Scenario::Pareto { seed: config.seed });
    FrontierPanel {
        workflow: m.name().to_string(),
        points: pareto_front(&m, &config.platform, CandidateSet::default()),
    }
}

/// Frontier panels for all four paper workflows.
#[must_use]
pub fn frontier(config: &ExperimentConfig) -> Vec<FrontierPanel> {
    paper_workflows()
        .iter()
        .map(|wf| frontier_panel(config, wf))
        .collect()
}

impl FrontierPanel {
    /// Render as a table; frontier members are starred.
    #[must_use]
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            format!("Pareto frontier (cost vs makespan) — {}", self.workflow),
            &["strategy", "makespan_s", "cost_usd", "pareto_optimal"],
        );
        for p in &self.points {
            t.row(vec![
                p.label.clone(),
                fmt_f(p.makespan, 0),
                fmt_f(p.cost, 3),
                if p.on_frontier { "*" } else { "" }.into(),
            ]);
        }
        t
    }

    /// Labels of the Pareto-optimal strategies.
    #[must_use]
    pub fn optimal_labels(&self) -> Vec<&str> {
        self.points
            .iter()
            .filter(|p| p.on_frontier)
            .map(|p| p.label.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panels() -> Vec<FrontierPanel> {
        frontier(&ExperimentConfig {
            validate_with_sim: false,
            ..ExperimentConfig::default()
        })
    }

    #[test]
    fn four_panels_with_29_candidates() {
        let ps = panels();
        assert_eq!(ps.len(), 4);
        for p in &ps {
            assert_eq!(p.points.len(), 29);
            assert!(!p.optimal_labels().is_empty());
        }
    }

    #[test]
    fn frontier_contains_a_packing_and_a_speed_strategy() {
        // every workflow's frontier must span the trade-off: its
        // cheapest point is a packed/small strategy and its fastest uses
        // large/xlarge capacity
        for panel in panels() {
            let opt = panel.optimal_labels().join(",");
            let cheapest = panel
                .points
                .iter()
                .filter(|p| p.on_frontier)
                .min_by(|a, b| a.cost.total_cmp(&b.cost))
                .unwrap();
            assert!(
                cheapest.label.ends_with("-s") || cheapest.label.starts_with("AllPar1LnS"),
                "{}: cheapest optimal is {} ({opt})",
                panel.workflow,
                cheapest.label
            );
        }
    }

    #[test]
    fn points_sorted_by_makespan() {
        for panel in panels() {
            for w in panel.points.windows(2) {
                assert!(w[0].makespan <= w[1].makespan + 1e-9);
            }
        }
    }

    #[test]
    fn table_renders_with_stars() {
        let t = panels()[0].to_table();
        assert_eq!(t.rows.len(), 29);
        assert!(t.to_ascii().contains('*'));
    }
}
