//! Stand-alone level-ranking schedulers: `AllParNotExceed` and
//! `AllParExceed`.
//!
//! "AllParNotExceed and AllParExceed are similar SAs proposed by us that
//! split the workflow in levels based on task parallelism. Then each task
//! in a level is scheduled arbitrarily based on the provisioning method
//! with the same name." (Sect. III-B). Per Table I the ordering inside a
//! level is by descending execution time.

use crate::provisioning::ProvisioningPolicy;
use crate::schedule::Schedule;
use crate::state::{KernelTables, LevelIndex, ScheduleBuilder};
use crate::vm::VmId;
use cws_dag::{TaskId, Workflow};
use cws_platform::{InstanceType, Platform};

/// Order the tasks of one level by descending execution time (ties by
/// task id for determinism).
#[must_use]
pub fn level_et_descending(wf: &Workflow, level: &[TaskId]) -> Vec<TaskId> {
    let mut order = level.to_vec();
    order.sort_by(|a, b| {
        wf.task(*b)
            .base_time
            .total_cmp(&wf.task(*a).base_time)
            .then(a.0.cmp(&b.0))
    });
    order
}

/// Schedule `wf` level by level with the `AllPar*` provisioning policy
/// given by `policy` (must be [`ProvisioningPolicy::AllParNotExceed`] or
/// [`ProvisioningPolicy::AllParExceed`]), renting instances of type
/// `itype` only.
///
/// Within a level every task gets its own VM (reused across levels when
/// the policy permits); the VMs claimed inside the current level are
/// mutually exclusive, which is what realizes the level's parallelism.
///
/// # Panics
/// Panics if `policy` is not one of the two `AllPar*` variants.
#[must_use]
pub fn all_par(
    wf: &Workflow,
    platform: &Platform,
    policy: ProvisioningPolicy,
    itype: InstanceType,
) -> Schedule {
    all_par_with(wf, platform, policy, itype, None)
}

/// [`all_par`] borrowing shared [`KernelTables`] when a sweep has them.
///
/// # Panics
/// Panics if `policy` is not one of the two `AllPar*` variants.
#[must_use]
pub fn all_par_with(
    wf: &Workflow,
    platform: &Platform,
    policy: ProvisioningPolicy,
    itype: InstanceType,
    tables: Option<&KernelTables>,
) -> Schedule {
    assert!(
        policy.is_all_par(),
        "all_par requires an AllPar* policy, got {policy}"
    );
    let mut sb = ScheduleBuilder::with_tables(wf, platform, tables);
    all_par_loop(&mut sb, policy, |sb, task| sb.place_on_new(task, itype));
    sb.build(format!("{}-{}", policy.name(), itype.suffix()))
}

/// Place every task of `sb`'s workflow level by level under the AllPar
/// `policy`, calling `rent` (which places the task and returns its VM)
/// wherever the policy picks no existing VM. The offline strategy rents
/// a fresh VM there; the pooled one may claim a warm one.
pub(crate) fn all_par_loop<'a>(
    sb: &mut ScheduleBuilder<'a>,
    policy: ProvisioningPolicy,
    mut rent: impl FnMut(&mut ScheduleBuilder<'a>, TaskId) -> VmId,
) {
    let wf = sb.workflow();
    let mut in_level = LevelIndex::new();
    for level in wf.levels() {
        in_level.begin(sb);
        for task in level_et_descending(wf, level) {
            let vm = match policy.pick_vm_in_level(sb, task, &mut in_level) {
                Some(vm) => {
                    sb.place_on(task, vm);
                    vm
                }
                None => rent(sb, task),
            };
            in_level.claim(vm);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_dag::WorkflowBuilder;
    use cws_platform::BTU_SECONDS;

    /// entry(100) -> six parallel 500s tasks (the Fig. 1 sub-workflow).
    fn fig1() -> Workflow {
        let mut b = WorkflowBuilder::new("fig1");
        let e = b.task("entry", 100.0);
        for i in 0..6 {
            let t = b.task(format!("p{i}"), 500.0);
            b.edge(e, t);
        }
        b.build().unwrap()
    }

    #[test]
    fn level_ordering_is_et_descending() {
        let mut b = WorkflowBuilder::new("ord");
        let t0 = b.task("short", 10.0);
        let t1 = b.task("long", 100.0);
        let t2 = b.task("mid", 50.0);
        let wf = b.build().unwrap();
        let order = level_et_descending(&wf, &wf.levels()[0]);
        assert_eq!(order, vec![t1, t2, t0]);
    }

    #[test]
    fn fig1_parallel_tasks_get_distinct_vms() {
        let wf = fig1();
        let p = Platform::ec2_paper();
        let s = all_par(
            &wf,
            &p,
            ProvisioningPolicy::AllParExceed,
            InstanceType::Small,
        );
        s.validate(&wf, &p).unwrap();
        // entry VM + 5 new VMs: one parallel task reuses the entry VM
        assert_eq!(s.vm_count(), 6);
        // all six parallel tasks run concurrently (cross-VM starts pay
        // the sub-millisecond intra-region latency)
        let makespan = s.makespan();
        assert!((makespan - 600.0).abs() < 0.01, "makespan {makespan}");
    }

    #[test]
    fn not_exceed_equals_exceed_when_fitting() {
        let wf = fig1(); // everything fits first BTUs
        let p = Platform::ec2_paper();
        let a = all_par(
            &wf,
            &p,
            ProvisioningPolicy::AllParNotExceed,
            InstanceType::Small,
        );
        let b = all_par(
            &wf,
            &p,
            ProvisioningPolicy::AllParExceed,
            InstanceType::Small,
        );
        assert_eq!(a.makespan(), b.makespan());
        assert_eq!(a.total_btus(), b.total_btus());
    }

    #[test]
    fn worst_case_not_exceed_never_reuses() {
        // every task exceeds one BTU => AllParNotExceed == OneVMperTask
        let wf = fig1().with_uniform_time(3.0 * BTU_SECONDS);
        let p = Platform::ec2_paper();
        let s = all_par(
            &wf,
            &p,
            ProvisioningPolicy::AllParNotExceed,
            InstanceType::Small,
        );
        s.validate(&wf, &p).unwrap();
        assert_eq!(s.vm_count(), wf.len());
    }

    #[test]
    fn worst_case_exceed_still_reuses() {
        let wf = fig1().with_uniform_time(3.0 * BTU_SECONDS);
        let p = Platform::ec2_paper();
        let s = all_par(
            &wf,
            &p,
            ProvisioningPolicy::AllParExceed,
            InstanceType::Small,
        );
        s.validate(&wf, &p).unwrap();
        assert_eq!(s.vm_count(), 6, "entry VM reused by one parallel task");
    }

    #[test]
    fn sequential_chain_packs_one_vm() {
        let mut b = WorkflowBuilder::new("chain");
        let ids: Vec<_> = (0..5).map(|i| b.task(format!("t{i}"), 100.0)).collect();
        for w in ids.windows(2) {
            b.edge(w[0], w[1]);
        }
        let wf = b.build().unwrap();
        let p = Platform::ec2_paper();
        let s = all_par(
            &wf,
            &p,
            ProvisioningPolicy::AllParExceed,
            InstanceType::Small,
        );
        s.validate(&wf, &p).unwrap();
        assert_eq!(s.vm_count(), 1, "chain levels have width 1: keep packing");
    }

    #[test]
    fn validates_across_types() {
        let wf = fig1();
        let p = Platform::ec2_paper();
        for itype in InstanceType::ALL {
            for policy in [
                ProvisioningPolicy::AllParNotExceed,
                ProvisioningPolicy::AllParExceed,
            ] {
                all_par(&wf, &p, policy, itype).validate(&wf, &p).unwrap();
            }
        }
    }

    #[test]
    #[should_panic(expected = "requires an AllPar* policy")]
    fn rejects_non_all_par_policy() {
        let wf = fig1();
        let p = Platform::ec2_paper();
        let _ = all_par(
            &wf,
            &p,
            ProvisioningPolicy::OneVmPerTask,
            InstanceType::Small,
        );
    }
}
