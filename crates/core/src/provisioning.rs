//! The five VM provisioning policies of Sect. III-A.
//!
//! A provisioning policy answers one question per task: *which VM runs
//! it* — a reused one or a freshly rented one. The allocation strategies
//! decide the task visit order; the policy decides the VM. The shared
//! decision procedure lives in [`ProvisioningPolicy::pick_vm`].

use crate::state::{LevelIndex, ScheduleBuilder};
use crate::vm::VmId;
use cws_dag::TaskId;

/// One of the paper's five provisioning policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProvisioningPolicy {
    /// A fresh VM for every task, "even if there remains enough idle time
    /// on another that could be used by the ready task".
    OneVmPerTask,
    /// Fresh VMs for entry tasks only; every other task is packed onto
    /// the existing VM with the largest accumulated execution time —
    /// unless its BTU would be exceeded, in which case a fresh VM is
    /// rented.
    StartParNotExceed,
    /// Like [`Self::StartParNotExceed`] but BTU overflow never triggers a
    /// new rental: the busiest VM is always reused. With a single entry
    /// task the entire workflow serializes on one VM.
    StartParExceed,
    /// Each *parallel* task (a task sharing its level with others) gets
    /// its own VM — an idle existing one if the task fits its paid BTUs,
    /// a fresh one otherwise. *Sequential* tasks (alone in their level)
    /// follow the VM with the longest execution time, typically their
    /// largest predecessor's.
    AllParNotExceed,
    /// Like [`Self::AllParNotExceed`] without the BTU-fit constraint on
    /// reuse.
    AllParExceed,
}

impl ProvisioningPolicy {
    /// All five policies in the paper's presentation order.
    pub const ALL: [ProvisioningPolicy; 5] = [
        ProvisioningPolicy::OneVmPerTask,
        ProvisioningPolicy::StartParNotExceed,
        ProvisioningPolicy::StartParExceed,
        ProvisioningPolicy::AllParNotExceed,
        ProvisioningPolicy::AllParExceed,
    ];

    /// The figure-legend name (`OneVMperTask`, `StartParNotExceed`, …).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            ProvisioningPolicy::OneVmPerTask => "OneVMperTask",
            ProvisioningPolicy::StartParNotExceed => "StartParNotExceed",
            ProvisioningPolicy::StartParExceed => "StartParExceed",
            ProvisioningPolicy::AllParNotExceed => "AllParNotExceed",
            ProvisioningPolicy::AllParExceed => "AllParExceed",
        }
    }

    /// Whether the policy refuses reuses that would open a new BTU.
    #[must_use]
    pub const fn is_not_exceed(self) -> bool {
        matches!(
            self,
            ProvisioningPolicy::StartParNotExceed | ProvisioningPolicy::AllParNotExceed
        )
    }

    /// Whether the policy provisions level-parallel tasks on distinct VMs
    /// (the `AllPar*` family) rather than packing sequentially.
    #[must_use]
    pub const fn is_all_par(self) -> bool {
        matches!(
            self,
            ProvisioningPolicy::AllParNotExceed | ProvisioningPolicy::AllParExceed
        )
    }

    /// Decide the host VM for `task` when tasks are visited in a priority
    /// order (the HEFT pairing of Table I). Returns `Some(vm)` to reuse
    /// an existing VM or `None` to rent a fresh one.
    ///
    /// * `OneVmPerTask` — always `None`.
    /// * `StartPar*` — `None` for entry tasks; otherwise the busiest VM,
    ///   subject to the BTU-fit test for the NotExceed variant.
    ///
    /// The `AllPar*` policies are level-based and use
    /// [`Self::pick_vm_in_level`] instead; calling `pick_vm` for them
    /// falls back to the StartPar behaviour (the paper pairs them only
    /// with level-ranking allocation).
    #[must_use]
    pub fn pick_vm(self, sb: &ScheduleBuilder<'_>, task: TaskId) -> Option<VmId> {
        match self {
            ProvisioningPolicy::OneVmPerTask => None,
            ProvisioningPolicy::StartParNotExceed | ProvisioningPolicy::AllParNotExceed => {
                if sb.workflow().predecessors(task).is_empty() {
                    return None;
                }
                let vm = sb.busiest_vm()?;
                if sb.fits_on(task, vm) {
                    Some(vm)
                } else {
                    None
                }
            }
            ProvisioningPolicy::StartParExceed | ProvisioningPolicy::AllParExceed => {
                if sb.workflow().predecessors(task).is_empty() {
                    return None;
                }
                sb.busiest_vm()
            }
        }
    }

    /// Decide the host VM for `task` inside a level of parallel tasks
    /// (the AllPar pairing of Table I). `level` marks VMs already claimed
    /// by other tasks of the same level — parallel tasks must not share a
    /// VM, so those are excluded. Each parallel task goes to "its
    /// own VM — existing or new": among the free VMs the one that lets
    /// the task start earliest is chosen (typically the VM hosting its
    /// predecessor, which keeps the AllPar makespan at the pure speed-up
    /// margin the paper's Table IV calls the *stable gain*); ties break
    /// towards the largest accumulated execution time (packing BTUs).
    /// The NotExceed variant additionally requires the BTU-fit test.
    /// Returns `None` to rent fresh.
    #[must_use]
    pub fn pick_vm_in_level(
        self,
        sb: &ScheduleBuilder<'_>,
        task: TaskId,
        level: &mut LevelIndex,
    ) -> Option<VmId> {
        match self {
            ProvisioningPolicy::OneVmPerTask => None,
            ProvisioningPolicy::AllParExceed | ProvisioningPolicy::StartParExceed => {
                sb.earliest_start_vm_in_level(task, level, None, |_| true)
            }
            ProvisioningPolicy::AllParNotExceed | ProvisioningPolicy::StartParNotExceed => {
                sb.earliest_start_vm_in_level(task, level, None, |vm| sb.fits_on(task, vm))
            }
        }
    }
}

impl std::fmt::Display for ProvisioningPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_dag::{Workflow, WorkflowBuilder};
    use cws_platform::{InstanceType, Platform};

    /// entry(100) -> {p1(500), p2(500)}
    fn fork() -> Workflow {
        let mut b = WorkflowBuilder::new("fork");
        let e = b.task("entry", 100.0);
        let p1 = b.task("p1", 500.0);
        let p2 = b.task("p2", 500.0);
        b.edge(e, p1).edge(e, p2);
        b.build().unwrap()
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<&str> = ProvisioningPolicy::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec![
                "OneVMperTask",
                "StartParNotExceed",
                "StartParExceed",
                "AllParNotExceed",
                "AllParExceed"
            ]
        );
    }

    #[test]
    fn one_vm_per_task_never_reuses() {
        let wf = fork();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        sb.place_on_new(TaskId(0), InstanceType::Small);
        assert_eq!(
            ProvisioningPolicy::OneVmPerTask.pick_vm(&sb, TaskId(1)),
            None
        );
    }

    #[test]
    fn start_par_rents_for_entries() {
        let wf = fork();
        let p = Platform::ec2_paper();
        let sb = ScheduleBuilder::new(&wf, &p);
        assert_eq!(
            ProvisioningPolicy::StartParExceed.pick_vm(&sb, TaskId(0)),
            None
        );
    }

    #[test]
    fn start_par_exceed_reuses_busiest_unconditionally() {
        let wf = fork();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        let vm = sb.place_on_new(TaskId(0), InstanceType::Small);
        sb.place_on(TaskId(1), vm); // 600s busy now
                                    // even though another task would exceed nothing here, Exceed
                                    // always returns the busiest VM
        assert_eq!(
            ProvisioningPolicy::StartParExceed.pick_vm(&sb, TaskId(2)),
            Some(vm)
        );
    }

    #[test]
    fn start_par_not_exceed_respects_btu() {
        // entry of 3000s then two 500s tasks: the second does not fit
        let mut b = WorkflowBuilder::new("tight");
        let e = b.task("entry", 3000.0);
        let p1 = b.task("p1", 500.0);
        let p2 = b.task("p2", 500.0);
        b.edge(e, p1).edge(e, p2);
        let wf = b.build().unwrap();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        let vm = sb.place_on_new(TaskId(0), InstanceType::Small);
        assert_eq!(
            ProvisioningPolicy::StartParNotExceed.pick_vm(&sb, TaskId(1)),
            Some(vm)
        );
        sb.place_on(TaskId(1), vm); // 3500s used
        assert_eq!(
            ProvisioningPolicy::StartParNotExceed.pick_vm(&sb, TaskId(2)),
            None,
            "500s does not fit the 100s left in the BTU"
        );
    }

    #[test]
    fn level_pick_excludes_vms_used_this_level() {
        let wf = fork();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        let vm = sb.place_on_new(TaskId(0), InstanceType::Small);
        let mut level = LevelIndex::new();
        level.begin(&sb);
        // p1 may reuse the entry's VM…
        assert_eq!(
            ProvisioningPolicy::AllParExceed.pick_vm_in_level(&sb, TaskId(1), &mut level),
            Some(vm)
        );
        // …but p2 must not share with p1 if p1 claimed it
        level.claim(vm);
        assert_eq!(
            ProvisioningPolicy::AllParExceed.pick_vm_in_level(&sb, TaskId(2), &mut level),
            None
        );
    }

    #[test]
    fn level_pick_not_exceed_requires_fit() {
        let mut b = WorkflowBuilder::new("tight");
        let e = b.task("entry", 3400.0);
        let p1 = b.task("p1", 500.0);
        b.edge(e, p1);
        let wf = b.build().unwrap();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        sb.place_on_new(TaskId(0), InstanceType::Small);
        let mut level = LevelIndex::new();
        level.begin(&sb);
        assert_eq!(
            ProvisioningPolicy::AllParNotExceed.pick_vm_in_level(&sb, TaskId(1), &mut level),
            None,
            "500s does not fit the 200s left"
        );
        assert!(ProvisioningPolicy::AllParExceed
            .pick_vm_in_level(&sb, TaskId(1), &mut level)
            .is_some());
    }

    #[test]
    fn classification_helpers() {
        use ProvisioningPolicy::*;
        assert!(StartParNotExceed.is_not_exceed());
        assert!(AllParNotExceed.is_not_exceed());
        assert!(!StartParExceed.is_not_exceed());
        assert!(!OneVmPerTask.is_not_exceed());
        assert!(AllParExceed.is_all_par());
        assert!(!StartParExceed.is_all_par());
    }
}
