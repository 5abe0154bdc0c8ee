//! Min-Min and Max-Min ready-list scheduling on a fixed VM pool.
//!
//! Classics of the grid/BoT literature (the paper's related work cites
//! Liu's *Min-Min-Average*): at every step, compute for each *ready*
//! task its earliest completion time over the pool; **Min-Min** schedules
//! the task with the smallest such completion (fast tasks first — good
//! average flow), **Max-Min** the largest (long tasks first — better
//! load balance). Both extend naturally from bags to DAGs by keeping the
//! ready set dependency-aware.

use crate::schedule::Schedule;
use crate::state::ScheduleBuilder;
use crate::vm::VmId;
use cws_dag::{TaskId, Workflow};
use cws_platform::{InstanceType, Platform};

/// Which extreme the ready-list heuristic picks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListRule {
    /// Schedule the ready task with the *smallest* earliest completion.
    MinMin,
    /// Schedule the ready task with the *largest* earliest completion.
    MaxMin,
}

impl ListRule {
    /// Label fragment used in schedule names.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            ListRule::MinMin => "MinMin",
            ListRule::MaxMin => "MaxMin",
        }
    }
}

/// Schedule `wf` with Min-Min or Max-Min over a fixed pool of
/// `machines` VMs of type `itype` (opened lazily).
///
/// # Panics
/// Panics if `machines == 0`.
#[must_use]
pub fn list_schedule(
    wf: &Workflow,
    platform: &Platform,
    rule: ListRule,
    itype: InstanceType,
    machines: usize,
) -> Schedule {
    assert!(machines >= 1, "need at least one machine");
    let mut sb = ScheduleBuilder::new(wf, platform);
    let mut pool: Vec<VmId> = Vec::new();
    let mut remaining_preds: Vec<usize> = wf.ids().map(|t| wf.predecessors(t).len()).collect();
    let mut ready: Vec<TaskId> = wf
        .ids()
        .filter(|t| remaining_preds[t.index()] == 0)
        .collect();
    let mut placed = vec![false; wf.len()];

    while !ready.is_empty() {
        // Earliest completion per ready task over (existing pool ∪ one
        // fresh slot while the cap allows).
        let best_for =
            |sb: &ScheduleBuilder<'_>, pool: &[VmId], t: TaskId| -> (Option<VmId>, f64) {
                // One probe per (round, task): the ready reduction over
                // `t`'s predecessors is paid once for the whole pool.
                let mut probe = sb.probe(t);
                let mut best: (Option<VmId>, f64) = (None, f64::INFINITY);
                for &vm in pool {
                    let f = probe.finish_on(vm);
                    if f < best.1 {
                        best = (Some(vm), f);
                    }
                }
                if pool.len() < machines {
                    let ready_t = probe.ready_fresh(itype, platform.default_region);
                    let f = ready_t + platform.boot_time_s + sb.exec_time(t, itype);
                    if f < best.1 {
                        best = (None, f);
                    }
                }
                best
            };

        let mut choice: Option<(usize, Option<VmId>, f64)> = None;
        for (i, &t) in ready.iter().enumerate() {
            let (vm, f) = best_for(&sb, &pool, t);
            let better = match (&choice, rule) {
                (None, _) => true,
                (Some((_, _, bf)), ListRule::MinMin) => f < *bf - 1e-12,
                (Some((_, _, bf)), ListRule::MaxMin) => f > *bf + 1e-12,
            };
            if better {
                choice = Some((i, vm, f));
            }
        }
        // The loop above visits every (task, vm) pair of a non-empty
        // ready set, so at least one candidate was recorded.
        // cws-lint: allow(unwrap-in-kernel)
        let (idx, vm, _) = choice.expect("ready set is non-empty");
        let task = ready.swap_remove(idx);
        match vm {
            Some(vm) => sb.place_on(task, vm),
            None => {
                let vm = sb.place_on_new(task, itype);
                pool.push(vm);
            }
        }
        placed[task.index()] = true;
        for e in wf.successors(task) {
            remaining_preds[e.to.index()] -= 1;
            if remaining_preds[e.to.index()] == 0 && !placed[e.to.index()] {
                ready.push(e.to);
            }
        }
    }
    sb.build(format!("{}-{}x{machines}", rule.name(), itype.suffix()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_dag::WorkflowBuilder;

    fn bag(times: &[f64]) -> Workflow {
        let mut b = WorkflowBuilder::new("bag");
        for (i, &t) in times.iter().enumerate() {
            b.task(format!("j{i}"), t);
        }
        b.build().unwrap()
    }

    #[test]
    fn both_rules_validate_on_bags_and_dags() {
        let p = Platform::ec2_paper();
        let mut dag = WorkflowBuilder::new("dag");
        let a = dag.task("a", 100.0);
        let x = dag.task("x", 400.0);
        let y = dag.task("y", 300.0);
        dag.edge(a, x).edge(a, y);
        let dag = dag.build().unwrap();
        for wf in [bag(&[500.0, 300.0, 900.0, 100.0]), dag] {
            for rule in [ListRule::MinMin, ListRule::MaxMin] {
                for machines in [1, 2, 3] {
                    let s = list_schedule(&wf, &p, rule, InstanceType::Small, machines);
                    s.validate(&wf, &p)
                        .unwrap_or_else(|e| panic!("{rule:?} x{machines}: {e}"));
                    assert!(s.vm_count() <= machines);
                }
            }
        }
    }

    #[test]
    fn min_min_runs_short_tasks_first() {
        let p = Platform::ec2_paper();
        let wf = bag(&[900.0, 100.0, 500.0]);
        let s = list_schedule(&wf, &p, ListRule::MinMin, InstanceType::Small, 1);
        // single machine: order of starts is ascending duration
        let mut order: Vec<(f64, TaskId)> = wf.ids().map(|t| (s.placement(t).start, t)).collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0));
        let durations: Vec<f64> = order.iter().map(|&(_, t)| wf.task(t).base_time).collect();
        assert_eq!(durations, vec![100.0, 500.0, 900.0]);
    }

    #[test]
    fn max_min_runs_long_tasks_first() {
        let p = Platform::ec2_paper();
        let wf = bag(&[900.0, 100.0, 500.0]);
        let s = list_schedule(&wf, &p, ListRule::MaxMin, InstanceType::Small, 1);
        let mut order: Vec<(f64, TaskId)> = wf.ids().map(|t| (s.placement(t).start, t)).collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0));
        let durations: Vec<f64> = order.iter().map(|&(_, t)| wf.task(t).base_time).collect();
        assert_eq!(durations, vec![900.0, 500.0, 100.0]);
    }

    #[test]
    fn max_min_balances_mixed_bags_at_least_as_well() {
        // The textbook case: one long task plus many short ones on two
        // machines — Max-Min starts the long task immediately.
        let p = Platform::ec2_paper();
        let wf = bag(&[1000.0, 260.0, 240.0, 250.0, 250.0]);
        let min = list_schedule(&wf, &p, ListRule::MinMin, InstanceType::Small, 2);
        let max = list_schedule(&wf, &p, ListRule::MaxMin, InstanceType::Small, 2);
        assert!(max.makespan() <= min.makespan() + 1e-9);
    }

    #[test]
    fn labels_encode_rule_and_pool() {
        let p = Platform::ec2_paper();
        let s = list_schedule(&bag(&[10.0]), &p, ListRule::MaxMin, InstanceType::Large, 3);
        assert_eq!(s.strategy, "MaxMin-lx3");
    }

    #[test]
    fn respects_dependencies() {
        let p = Platform::ec2_paper();
        let mut b = WorkflowBuilder::new("chain");
        let a = b.task("a", 100.0);
        let c = b.task("c", 100.0);
        b.edge(a, c);
        let wf = b.build().unwrap();
        let s = list_schedule(&wf, &p, ListRule::MinMin, InstanceType::Small, 4);
        assert!(s.placement(c).start >= s.placement(a).finish);
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn zero_machines_rejected() {
        let p = Platform::ec2_paper();
        let _ = list_schedule(&bag(&[1.0]), &p, ListRule::MinMin, InstanceType::Small, 0);
    }
}
