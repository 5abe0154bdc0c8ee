//! HEFT: Heterogeneous Earliest Finish Time (rank-based list scheduling).
//!
//! The paper pairs HEFT's upward-rank priority ordering with the three
//! provisioning policies that need no knowledge of task parallelism:
//! `OneVMperTask`, `StartParNotExceed` and `StartParExceed` (Table I).
//! In the homogeneous experiments every VM has a fixed instance type, so
//! the "heterogeneous" part of classic HEFT (mean execution cost across
//! machines) degenerates to the task's execution time on that type —
//! which is exactly what the ranks use here.

use super::ranking::rank_order_by;
use crate::provisioning::ProvisioningPolicy;
use crate::schedule::Schedule;
use crate::state::{KernelTables, ScheduleBuilder};
use crate::vm::VmId;
use cws_dag::{TaskId, Workflow};
use cws_platform::{InstanceType, Platform};

/// The HEFT priority order for `wf` when every VM has type `itype`:
/// tasks by descending upward rank, ties broken by topological position
/// (so the order is always a valid topological order even with zero-cost
/// tasks).
#[must_use]
pub fn heft_order(wf: &Workflow, platform: &Platform, itype: InstanceType) -> Vec<TaskId> {
    rank_order_by(
        wf,
        |t| itype.execution_time(wf.task(t).base_time),
        |e| platform.transfer_time(e.data_mb, itype, itype),
    )
}

/// Schedule `wf` with HEFT ordering under the given provisioning policy,
/// renting only instances of type `itype`.
///
/// The returned schedule is labelled with the paper's figure-legend name,
/// e.g. `"StartParExceed-m"`.
#[must_use]
pub fn heft(
    wf: &Workflow,
    platform: &Platform,
    policy: ProvisioningPolicy,
    itype: InstanceType,
) -> Schedule {
    heft_with(wf, platform, policy, itype, None)
}

/// [`heft`] borrowing shared [`KernelTables`] when a sweep has them.
#[must_use]
pub fn heft_with(
    wf: &Workflow,
    platform: &Platform,
    policy: ProvisioningPolicy,
    itype: InstanceType,
    tables: Option<&KernelTables>,
) -> Schedule {
    let mut sb = ScheduleBuilder::with_tables(wf, platform, tables);
    heft_loop(&mut sb, policy, itype, |sb, task| {
        sb.place_on_new(task, itype)
    });
    sb.build(format!("{}-{}", policy.name(), itype.suffix()))
}

/// Place every task of `sb`'s workflow in HEFT order under `policy`,
/// calling `rent` (which places the task and returns its VM) wherever
/// the policy picks no existing VM. The offline strategy rents a fresh
/// VM there; the pooled one may claim a warm one.
pub(crate) fn heft_loop<'a>(
    sb: &mut ScheduleBuilder<'a>,
    policy: ProvisioningPolicy,
    itype: InstanceType,
    mut rent: impl FnMut(&mut ScheduleBuilder<'a>, TaskId) -> VmId,
) {
    for task in heft_order(sb.workflow(), sb.platform(), itype) {
        match policy.pick_vm(sb, task) {
            Some(vm) => sb.place_on(task, vm),
            None => {
                rent(sb, task);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_dag::WorkflowBuilder;
    use cws_platform::BTU_SECONDS;

    fn diamond() -> Workflow {
        let mut b = WorkflowBuilder::new("diamond");
        let a = b.task("a", 100.0);
        let x = b.task("x", 200.0);
        let y = b.task("y", 300.0);
        let d = b.task("d", 100.0);
        b.edge(a, x).edge(a, y).edge(x, d).edge(y, d);
        b.build().unwrap()
    }

    #[test]
    fn order_is_topological_and_rank_descending() {
        let wf = diamond();
        let p = Platform::ec2_paper();
        let order = heft_order(&wf, &p, InstanceType::Small);
        assert_eq!(order[0], TaskId(0), "entry first");
        assert_eq!(order[3], TaskId(3), "exit last");
        // y has a larger rank than x
        let pos = |id: TaskId| order.iter().position(|&t| t == id).unwrap();
        assert!(pos(TaskId(2)) < pos(TaskId(1)));
    }

    #[test]
    fn one_vm_per_task_rents_n_vms() {
        let wf = diamond();
        let p = Platform::ec2_paper();
        let s = heft(
            &wf,
            &p,
            ProvisioningPolicy::OneVmPerTask,
            InstanceType::Small,
        );
        s.validate(&wf, &p).unwrap();
        assert_eq!(s.vm_count(), 4);
        assert_eq!(s.strategy, "OneVMperTask-s");
    }

    #[test]
    fn start_par_exceed_single_entry_uses_one_vm() {
        // "If a single initial task exists this heuristic will schedule
        // all workflow tasks" on the same VM (Sect. IV-B).
        let wf = diamond();
        let p = Platform::ec2_paper();
        let s = heft(
            &wf,
            &p,
            ProvisioningPolicy::StartParExceed,
            InstanceType::Small,
        );
        s.validate(&wf, &p).unwrap();
        assert_eq!(s.vm_count(), 1);
        // fully serial: makespan = total work
        assert!((s.makespan() - 700.0).abs() < 1e-6);
    }

    #[test]
    fn start_par_not_exceed_equals_exceed_when_everything_fits() {
        let wf = diamond(); // total 700s << 1 BTU
        let p = Platform::ec2_paper();
        let a = heft(
            &wf,
            &p,
            ProvisioningPolicy::StartParNotExceed,
            InstanceType::Small,
        );
        let b = heft(
            &wf,
            &p,
            ProvisioningPolicy::StartParExceed,
            InstanceType::Small,
        );
        assert_eq!(a.makespan(), b.makespan());
        assert_eq!(a.vm_count(), b.vm_count());
    }

    #[test]
    fn start_par_not_exceed_splits_on_btu_overflow() {
        // Two entry tasks then a long chain that overflows the BTU.
        let mut b = WorkflowBuilder::new("overflow");
        let e1 = b.task("e1", 2000.0);
        let e2 = b.task("e2", 1800.0);
        let big = b.task("big", 3000.0);
        b.edge(e1, big).edge(e2, big);
        let wf = b.build().unwrap();
        let p = Platform::ec2_paper();
        let not = heft(
            &wf,
            &p,
            ProvisioningPolicy::StartParNotExceed,
            InstanceType::Small,
        );
        let exc = heft(
            &wf,
            &p,
            ProvisioningPolicy::StartParExceed,
            InstanceType::Small,
        );
        not.validate(&wf, &p).unwrap();
        exc.validate(&wf, &p).unwrap();
        assert_eq!(not.vm_count(), 3, "big does not fit either entry VM");
        assert_eq!(exc.vm_count(), 2, "Exceed keeps big on the busiest VM");
    }

    #[test]
    fn worst_case_not_exceed_degenerates_to_one_vm_per_task() {
        // Every task exceeds one BTU: StartParNotExceed == OneVMperTask
        // (the paper's worst-case identity).
        let wf = diamond().with_uniform_time(3.0 * BTU_SECONDS);
        let p = Platform::ec2_paper();
        let not = heft(
            &wf,
            &p,
            ProvisioningPolicy::StartParNotExceed,
            InstanceType::Small,
        );
        let one = heft(
            &wf,
            &p,
            ProvisioningPolicy::OneVmPerTask,
            InstanceType::Small,
        );
        assert_eq!(not.vm_count(), one.vm_count());
        assert_eq!(not.total_btus(), one.total_btus());
        assert_eq!(not.makespan(), one.makespan());
    }

    #[test]
    fn faster_instances_shrink_makespan() {
        let wf = diamond();
        let p = Platform::ec2_paper();
        let s = heft(
            &wf,
            &p,
            ProvisioningPolicy::OneVmPerTask,
            InstanceType::Small,
        );
        let m = heft(
            &wf,
            &p,
            ProvisioningPolicy::OneVmPerTask,
            InstanceType::Medium,
        );
        assert!(m.makespan() < s.makespan());
        assert_eq!(m.strategy, "OneVMperTask-m");
    }

    #[test]
    fn schedules_validate_on_all_policies_and_types() {
        let wf = diamond();
        let p = Platform::ec2_paper();
        for policy in [
            ProvisioningPolicy::OneVmPerTask,
            ProvisioningPolicy::StartParNotExceed,
            ProvisioningPolicy::StartParExceed,
        ] {
            for itype in InstanceType::ALL {
                let s = heft(&wf, &p, policy, itype);
                s.validate(&wf, &p)
                    .unwrap_or_else(|e| panic!("{policy}-{}: {e}", itype.suffix()));
            }
        }
    }
}
