//! Workflow structure metrics.
//!
//! The paper's conclusion calls for *adaptive scheduling*, where the
//! provisioning + allocation combination is chosen from the workflow's
//! properties (Table V's rows: "much parallelism", "much parallelism +
//! many interdependencies", "some parallelism", "sequential") and the
//! runtime profile (short / long / heterogeneous tasks). These metrics
//! quantify exactly those properties.

use crate::graph::Workflow;

/// Quantitative structure descriptors of a workflow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StructureMetrics {
    /// Number of tasks.
    pub tasks: usize,
    /// Number of edges.
    pub edges: usize,
    /// Number of levels (DAG depth in hops + 1).
    pub depth: usize,
    /// Width of the widest level.
    pub max_width: usize,
    /// Mean level width = tasks / depth. 1.0 for a pure chain; large for
    /// flat, parallel workflows.
    pub mean_width: f64,
    /// Parallelism ratio in `[1/tasks, 1]`: `mean_width / tasks`-normalised
    /// measure — computed as `tasks / (depth * max_width)` is awkward, so
    /// we use `mean_width / max(1, max_width)` … see [`Self::compute`].
    /// Concretely: `1 − (depth − 1)/(tasks − 1)` for `tasks > 1`; 1.0 means
    /// fully parallel (depth 1), 0.0 means a pure chain.
    pub parallelism: f64,
    /// Edge density: `edges / tasks`. Montage-like workflows with many
    /// cross-level dependencies score high.
    pub dependency_density: f64,
    /// Coefficient of variation of task base times (std / mean); 0 for
    /// uniform runtimes, large for heterogeneous (Pareto) runtimes.
    pub runtime_cv: f64,
    /// Mean task base time in seconds.
    pub mean_runtime: f64,
    /// Number of exit ("final") tasks.
    pub exit_count: usize,
}

impl StructureMetrics {
    /// Compute all metrics for a workflow.
    #[must_use]
    pub fn compute(wf: &Workflow) -> Self {
        let tasks = wf.len();
        let depth = wf.depth();
        let parallelism = if tasks > 1 {
            1.0 - (depth as f64 - 1.0) / (tasks as f64 - 1.0)
        } else {
            0.0
        };
        let mean = wf.total_work() / tasks as f64;
        let var = wf
            .tasks()
            .iter()
            .map(|t| (t.base_time - mean).powi(2))
            .sum::<f64>()
            / tasks as f64;
        let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
        StructureMetrics {
            tasks,
            edges: wf.edge_count(),
            depth,
            max_width: wf.max_width(),
            mean_width: tasks as f64 / depth as f64,
            parallelism,
            dependency_density: wf.edge_count() as f64 / tasks as f64,
            runtime_cv: cv,
            mean_runtime: mean,
            exit_count: wf.exits().len(),
        }
    }

    /// Coarse structural class, mirroring the rows of the paper's
    /// Table V.
    #[must_use]
    pub fn classify(&self) -> WorkflowClass {
        if self.parallelism <= 0.05 {
            WorkflowClass::Sequential
        } else if self.parallelism >= 0.5 {
            if self.dependency_density >= 1.3 {
                WorkflowClass::ParallelInterdependent
            } else {
                WorkflowClass::HighlyParallel
            }
        } else {
            WorkflowClass::SomeParallelism
        }
    }
}

/// The workflow classes of Table V.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkflowClass {
    /// "Much parallelism" — MapReduce-like.
    HighlyParallel,
    /// "Much parallelism ⊕ many interdependencies" — Montage-like.
    ParallelInterdependent,
    /// "Some parallelism" — CSTEM-like.
    SomeParallelism,
    /// "Sequential" — chains.
    Sequential,
}

impl std::fmt::Display for WorkflowClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WorkflowClass::HighlyParallel => "much parallelism",
            WorkflowClass::ParallelInterdependent => "much parallelism + many interdependencies",
            WorkflowClass::SomeParallelism => "some parallelism",
            WorkflowClass::Sequential => "sequential",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::WorkflowBuilder;
    use crate::task::TaskId;

    fn chain(n: usize) -> Workflow {
        let mut b = WorkflowBuilder::new("chain");
        let ids: Vec<_> = (0..n).map(|i| b.task(format!("t{i}"), 10.0)).collect();
        for w in ids.windows(2) {
            b.edge(w[0], w[1]);
        }
        b.build().unwrap()
    }

    fn fan(n: usize) -> Workflow {
        let mut b = WorkflowBuilder::new("fan");
        let root = b.task("root", 10.0);
        for i in 0..n {
            let t = b.task(format!("p{i}"), 10.0);
            b.edge(root, t);
        }
        b.build().unwrap()
    }

    #[test]
    fn chain_is_sequential() {
        let m = StructureMetrics::compute(&chain(10));
        assert_eq!(m.depth, 10);
        assert_eq!(m.parallelism, 0.0);
        assert_eq!(m.classify(), WorkflowClass::Sequential);
        assert_eq!(m.runtime_cv, 0.0);
    }

    #[test]
    fn fan_is_highly_parallel() {
        let m = StructureMetrics::compute(&fan(20));
        assert_eq!(m.depth, 2);
        assert!(m.parallelism > 0.9);
        assert_eq!(m.classify(), WorkflowClass::HighlyParallel);
        assert_eq!(m.max_width, 20);
    }

    #[test]
    fn single_task_metrics() {
        let mut b = WorkflowBuilder::new("one");
        b.task("only", 10.0);
        let m = StructureMetrics::compute(&b.build().unwrap());
        assert_eq!(m.tasks, 1);
        assert_eq!(m.parallelism, 0.0);
        assert_eq!(m.exit_count, 1);
    }

    #[test]
    fn runtime_cv_detects_heterogeneity() {
        let w = chain(4).with_base_times(&[1.0, 1.0, 1.0, 997.0]);
        let m = StructureMetrics::compute(&w);
        assert!(m.runtime_cv > 1.0);
        assert_eq!(m.mean_runtime, 250.0);
    }

    #[test]
    fn dense_parallel_graph_is_interdependent() {
        // two wide levels fully bipartitely connected
        let mut b = WorkflowBuilder::new("dense");
        let top: Vec<_> = (0..5).map(|i| b.task(format!("a{i}"), 1.0)).collect();
        let bot: Vec<_> = (0..5).map(|i| b.task(format!("b{i}"), 1.0)).collect();
        for &a in &top {
            for &c in &bot {
                b.edge(a, c);
            }
        }
        let m = StructureMetrics::compute(&b.build().unwrap());
        assert!(m.dependency_density >= 2.0);
        assert_eq!(m.classify(), WorkflowClass::ParallelInterdependent);
    }

    #[test]
    fn exit_count_counts_sinks() {
        let mut b = WorkflowBuilder::new("sinks");
        let a = b.task("a", 1.0);
        for i in 0..3 {
            let t = b.task(format!("f{i}"), 1.0);
            b.edge(a, t);
        }
        let m = StructureMetrics::compute(&b.build().unwrap());
        assert_eq!(m.exit_count, 3);
    }

    #[test]
    fn mean_width_is_tasks_over_depth() {
        let m = StructureMetrics::compute(&fan(9));
        assert_eq!(m.mean_width, 5.0);
        let _ = TaskId(0); // silence unused import lint paths in some cfgs
    }
}
