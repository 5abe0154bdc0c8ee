//! Real-trace frontier: run all 19 paper pairings over a workflow
//! loaded from a `cws-dag` interchange document (imported WfCommons
//! traces, exported generators, hand-written DAGs).
//!
//! Unlike the figure pipelines, a trace sweep runs the workflow
//! **as given**: the document's `runtime_s` values are the measured
//! task runtimes, so no [`Scenario`](cws_workloads::Scenario)
//! materialization is applied and no seed is involved. The sweep is
//! the same deterministic (workflow × strategy) matrix the figures
//! use — [`prepare`] with shared [`KernelTables`](cws_core::KernelTables),
//! cells fanned out by [`run_matrix`] — so reports are byte-identical
//! for any `--threads` count.

use crate::report::{fmt_f, Table};
use crate::run::{prepare, run_matrix, ExperimentConfig, StrategyResult};
use cws_core::Strategy;
use cws_dag::Workflow;

/// The outcome of one 19-pairing sweep over one as-given workflow.
#[derive(Debug, Clone)]
pub struct TraceSweep {
    /// Workflow name from the interchange document.
    pub workflow: String,
    /// Task count.
    pub tasks: usize,
    /// Dependency edge count.
    pub edges: usize,
    /// DAG depth in levels.
    pub depth: usize,
    /// Sequential work on the reference instance, seconds.
    pub total_work_s: f64,
    /// The 19 strategy results in paper legend order.
    pub results: Vec<StrategyResult>,
}

/// Run the full 19-pairing sweep on one as-given workflow, fanning
/// cells over `threads` workers. Identical output for any thread count.
#[must_use]
pub fn trace_sweep(config: &ExperimentConfig, wf: &Workflow, threads: usize) -> TraceSweep {
    let prepared = [prepare(config, wf.clone())];
    let mut matrix = run_matrix(config, &prepared, &Strategy::paper_set(), threads);
    TraceSweep {
        workflow: wf.name().to_string(),
        tasks: wf.len(),
        edges: wf.edge_count(),
        depth: wf.depth(),
        total_work_s: wf.total_work(),
        results: matrix.pop().expect("one workflow in, one row out"),
    }
}

impl TraceSweep {
    /// Render as a table (strategy, makespan, cost, VMs, gain%, loss%).
    #[must_use]
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Trace sweep — {} ({} tasks, {} edges, depth {})",
                self.workflow, self.tasks, self.edges, self.depth
            ),
            &[
                "strategy",
                "makespan_s",
                "cost_usd",
                "vms",
                "gain_pct",
                "loss_pct",
            ],
        );
        for r in &self.results {
            t.row(vec![
                r.label.clone(),
                fmt_f(r.metrics.makespan, 2),
                fmt_f(r.metrics.cost, 2),
                r.metrics.vm_count.to_string(),
                fmt_f(r.relative.gain_pct, 2),
                fmt_f(r.relative.loss_pct, 2),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_workloads::montage_24;

    #[test]
    fn sweep_covers_19_pairings_as_given() {
        let cfg = ExperimentConfig::default();
        let wf = montage_24();
        let sweep = trace_sweep(&cfg, &wf, 1);
        assert_eq!(sweep.results.len(), 19);
        assert_eq!(sweep.workflow, "montage-24");
        assert_eq!(sweep.tasks, 24);
        // As-given: the generator's base times, not a scenario's.
        assert_eq!(sweep.total_work_s, wf.total_work());
        let t = sweep.to_table();
        assert_eq!(t.rows.len(), 19);
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let cfg = ExperimentConfig::default();
        let wf = montage_24();
        let a = trace_sweep(&cfg, &wf, 1);
        let b = trace_sweep(&cfg, &wf, 8);
        assert_eq!(a.to_table().to_csv(), b.to_table().to_csv());
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.metrics.makespan.to_bits(), y.metrics.makespan.to_bits());
            assert_eq!(x.metrics.cost.to_bits(), y.metrics.cost.to_bits());
        }
    }

    #[test]
    fn interchange_copy_schedules_identically() {
        // A workflow and its from_json(to_json(wf)) copy must produce
        // bit-identical schedules across all 19 pairings.
        let cfg = ExperimentConfig::default();
        let wf = montage_24();
        let copy = Workflow::from_json(&wf.to_json()).expect("export parses");
        let a = trace_sweep(&cfg, &wf, 1);
        let b = trace_sweep(&cfg, &copy, 1);
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.metrics.makespan.to_bits(), y.metrics.makespan.to_bits());
            assert_eq!(x.metrics.cost.to_bits(), y.metrics.cost.to_bits());
            assert_eq!(
                x.metrics.idle_seconds.to_bits(),
                y.metrics.idle_seconds.to_bits()
            );
            assert_eq!(x.metrics.vm_count, y.metrics.vm_count);
        }
    }
}
