//! Shared rank-ordering and VM-selection helpers for the HEFT family.
//!
//! Homogeneous HEFT ([`mod@super::heft`]), insertion HEFT ([`mod@super::heftins`])
//! and heterogeneous pool HEFT ([`super::heftpool`]) all order tasks by
//! descending upward rank with a topological tie-break, and all pick VMs
//! by minimizing finish time with a lowest-id tie-break. Those two
//! building blocks live here so the modules differ only in their cost
//! basis and candidate sets.

use crate::state::TaskProbe;
use crate::vm::VmId;
use cws_dag::{upward_ranks, Edge, TaskId, Workflow};

/// Tasks of `wf` by descending upward rank under the given cost model,
/// ties broken by topological position — so the order is always a valid
/// topological order, even with zero-cost tasks.
#[must_use]
pub fn rank_order_by(
    wf: &Workflow,
    exec_cost: impl Fn(TaskId) -> f64,
    transfer_cost: impl Fn(&Edge) -> f64,
) -> Vec<TaskId> {
    let ranks = upward_ranks(wf, exec_cost, transfer_cost);
    let mut topo_pos = vec![0usize; wf.len()];
    for (pos, &id) in wf.topological_order().iter().enumerate() {
        topo_pos[id.index()] = pos;
    }
    let mut order: Vec<TaskId> = wf.ids().collect();
    order.sort_by(|a, b| {
        ranks[b.index()]
            .total_cmp(&ranks[a.index()])
            .then(topo_pos[a.index()].cmp(&topo_pos[b.index()]))
    });
    order
}

/// The `(vm, finish_time)` pair minimizing finish time; ties break
/// towards the lower VM id, keeping every HEFT variant deterministic.
#[must_use]
pub fn min_finish(candidates: impl Iterator<Item = (VmId, f64)>) -> Option<(VmId, f64)> {
    candidates.min_by(|a, b| a.1.total_cmp(&b.1).then(a.0 .0.cmp(&b.0 .0)))
}

/// Best insertion slot across `pool` for the probed task, which runs
/// for `duration` on every pool member: the VM (and resulting finish
/// time) where gap-insertion finishes the task earliest. The caller's
/// one [`TaskProbe`] serves every pool member: it pays the ready
/// reduction over the task's predecessors once, so the per-VM step is a
/// walk of that VM's task list.
#[must_use]
pub fn best_insertion(
    probe: &mut TaskProbe<'_, '_>,
    pool: &[VmId],
    duration: f64,
) -> Option<(VmId, f64)> {
    min_finish(
        pool.iter()
            .map(|&vm| (vm, probe.insertion_start_on(vm) + duration)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ScheduleBuilder;
    use cws_dag::WorkflowBuilder;
    use cws_platform::Platform;

    #[test]
    fn rank_order_is_topological() {
        let mut b = WorkflowBuilder::new("diamond");
        let a = b.task("a", 100.0);
        let x = b.task("x", 200.0);
        let y = b.task("y", 300.0);
        let d = b.task("d", 100.0);
        b.edge(a, x).edge(a, y).edge(x, d).edge(y, d);
        let wf = b.build().unwrap();
        let order = rank_order_by(&wf, |t| wf.task(t).base_time, |_| 0.0);
        assert_eq!(order[0], a);
        assert_eq!(order[3], d);
        let pos = |id| order.iter().position(|&t| t == id).unwrap();
        assert!(pos(y) < pos(x), "larger-rank branch first");
    }

    #[test]
    fn zero_cost_tasks_fall_back_to_topo_position() {
        let mut b = WorkflowBuilder::new("zeros");
        let t0 = b.task("t0", 0.0);
        let t1 = b.task("t1", 0.0);
        let t2 = b.task("t2", 0.0);
        b.edge(t0, t1).edge(t1, t2);
        let wf = b.build().unwrap();
        let order = rank_order_by(&wf, |_| 0.0, |_| 0.0);
        assert_eq!(order, vec![t0, t1, t2]);
    }

    #[test]
    fn min_finish_breaks_ties_by_vm_id() {
        let candidates = [(VmId(2), 5.0), (VmId(0), 5.0), (VmId(1), 7.0)];
        assert_eq!(
            min_finish(candidates.into_iter()),
            Some((VmId(0), 5.0)),
            "equal finishes pick the lower id"
        );
        assert_eq!(min_finish(std::iter::empty()), None);
    }

    #[test]
    fn best_insertion_over_empty_pool_is_none() {
        let mut b = WorkflowBuilder::new("single");
        let t = b.task("t", 100.0);
        let wf = b.build().unwrap();
        let p = Platform::ec2_paper();
        let sb = ScheduleBuilder::new(&wf, &p);
        assert_eq!(best_insertion(&mut sb.probe(t), &[], 100.0), None);
    }
}
