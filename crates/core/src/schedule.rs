//! The schedule representation and its validity checks.

use crate::vm::{Vm, VmId};
use cws_dag::{TaskId, Workflow};
use cws_platform::Platform;

/// Where and when one task executes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskPlacement {
    /// Host VM.
    pub vm: VmId,
    /// Start time (seconds since schedule origin).
    pub start: f64,
    /// Finish time.
    pub finish: f64,
}

/// A complete mapping of a workflow onto rented VMs.
///
/// Produced by the allocation strategies; consumed by the metrics, the
/// experiment harness and the discrete-event simulator. A schedule owns
/// its VM table and one placement per task. Each fact is stored once: a
/// task's VM and times live in its placement, and each VM lists its
/// tasks' ids in the order they run.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Name of the strategy that produced the schedule (figure label,
    /// e.g. `"StartParExceed-m"`).
    pub strategy: String,
    /// Rented VMs; a VM's [`VmId`] is its index here.
    pub vms: Vec<Vm>,
    /// Placement per task, indexed by [`TaskId::index`].
    pub placements: Vec<TaskPlacement>,
}

/// One VM's share of a schedule's economics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmMetrics {
    /// The VM.
    pub vm: VmId,
    /// Its instance type.
    pub itype: cws_platform::InstanceType,
    /// Tasks hosted.
    pub tasks: usize,
    /// Seconds spent executing.
    pub busy_seconds: f64,
    /// Billed BTUs.
    pub btus: u64,
    /// Rental cost in USD.
    pub cost: f64,
    /// `busy / billed` fraction.
    pub utilization: f64,
}

/// Violations detected by [`Schedule::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// The schedule does not place every task exactly once.
    WrongTaskCount {
        /// Tasks the workflow has.
        expected: usize,
        /// Placements the schedule has.
        actual: usize,
    },
    /// A placement references a VM that does not exist.
    UnknownVm(TaskId, VmId),
    /// A task starts before one of its predecessors (plus transfer)
    /// completes.
    PrecedenceViolation {
        /// The offending task.
        task: TaskId,
        /// The predecessor it does not wait for.
        predecessor: TaskId,
        /// When the task starts.
        start: f64,
        /// Earliest legal start given the predecessor and transfer.
        earliest: f64,
    },
    /// Two tasks overlap on the same VM.
    VmOverlap {
        /// The VM on which the overlap occurs.
        vm: VmId,
        /// First task.
        a: TaskId,
        /// Second task.
        b: TaskId,
    },
    /// A task's duration is inconsistent with its VM's speed-up.
    WrongDuration {
        /// The offending task.
        task: TaskId,
        /// Duration in the schedule.
        actual: f64,
        /// Duration implied by `base_time / speedup`.
        expected: f64,
    },
    /// A VM's recorded task list disagrees with the placements.
    InconsistentVmTasks(VmId),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::WrongTaskCount { expected, actual } => {
                write!(f, "schedule places {actual} tasks, workflow has {expected}")
            }
            ScheduleError::UnknownVm(t, v) => write!(f, "task {t} placed on unknown {v}"),
            ScheduleError::PrecedenceViolation {
                task,
                predecessor,
                start,
                earliest,
            } => write!(
                f,
                "task {task} starts at {start} before predecessor {predecessor} \
                 allows (earliest {earliest})"
            ),
            ScheduleError::VmOverlap { vm, a, b } => {
                write!(f, "tasks {a} and {b} overlap on {vm}")
            }
            ScheduleError::WrongDuration {
                task,
                actual,
                expected,
            } => write!(
                f,
                "task {task} runs for {actual}s, expected {expected}s on its VM type"
            ),
            ScheduleError::InconsistentVmTasks(v) => {
                write!(f, "{v} task list disagrees with placements")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

const EPS: f64 = 1e-6;

impl Schedule {
    /// Makespan: the finish time of the last task. Schedules start at
    /// time 0 (the first entry task starts at 0 unless the strategy
    /// delays it).
    #[must_use]
    pub fn makespan(&self) -> f64 {
        self.placements
            .iter()
            .map(|p| p.finish)
            .fold(0.0_f64, f64::max)
    }

    /// Total rental cost in USD: billed BTUs × per-BTU price of each VM
    /// in its region.
    #[must_use]
    pub fn rental_cost(&self, platform: &Platform) -> f64 {
        self.vms
            .iter()
            .map(|vm| vm.meter.cost(platform.price_in(vm.region, vm.itype)))
            .sum()
    }

    /// Total outbound transfer cost in USD. Zero when every VM shares a
    /// region (the paper's CPU-intensive experiments). Volume accumulates
    /// per source region across the whole schedule, matching the monthly
    /// bracket rule.
    #[must_use]
    pub fn transfer_cost(&self, wf: &Workflow, platform: &Platform) -> f64 {
        // Every edge below stays inside one region and adds nothing.
        if let Some(first) = self.vms.first() {
            if self.vms.iter().all(|v| v.region == first.region) {
                return 0.0;
            }
        }
        let mut monthly: std::collections::BTreeMap<cws_platform::Region, f64> =
            std::collections::BTreeMap::new();
        let mut cost = 0.0;
        for e in wf.edges() {
            let from_vm = &self.vms[self.placements[e.from.index()].vm.index()];
            let to_vm = &self.vms[self.placements[e.to.index()].vm.index()];
            if from_vm.region == to_vm.region {
                continue;
            }
            let gb = e.data_mb / 1024.0;
            let so_far = monthly.entry(from_vm.region).or_insert(0.0);
            cost += platform
                .prices
                .transfer_cost(from_vm.region, to_vm.region, gb, *so_far);
            *so_far += gb;
        }
        cost
    }

    /// Total cost: rental + transfers.
    #[must_use]
    pub fn total_cost(&self, wf: &Workflow, platform: &Platform) -> f64 {
        self.rental_cost(platform) + self.transfer_cost(wf, platform)
    }

    /// Total idle seconds over all VMs: billed time minus busy time — the
    /// quantity of the paper's Fig. 5.
    #[must_use]
    pub fn idle_seconds(&self) -> f64 {
        self.vms.iter().map(|vm| vm.meter.idle_seconds()).sum()
    }

    /// Total billed BTUs over all VMs.
    #[must_use]
    pub fn total_btus(&self) -> u64 {
        self.vms.iter().map(|vm| vm.meter.btus()).sum()
    }

    /// Number of rented VMs.
    #[must_use]
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// The placement of one task.
    #[must_use]
    pub fn placement(&self, task: TaskId) -> TaskPlacement {
        self.placements[task.index()]
    }

    /// The VM hosting one task.
    #[must_use]
    pub fn vm_of(&self, task: TaskId) -> &Vm {
        &self.vms[self.placements[task.index()].vm.index()]
    }

    /// Per-VM economics breakdown.
    #[must_use]
    pub fn vm_metrics(&self, platform: &Platform) -> Vec<VmMetrics> {
        self.vms
            .iter()
            .enumerate()
            .map(|(v, vm)| {
                let billed = vm.meter.billed_seconds();
                VmMetrics {
                    vm: VmId(v as u32),
                    itype: vm.itype,
                    tasks: vm.tasks.len(),
                    busy_seconds: vm.meter.busy,
                    btus: vm.meter.btus(),
                    cost: vm.meter.cost(platform.price_in(vm.region, vm.itype)),
                    utilization: if billed > 0.0 {
                        vm.meter.busy / billed
                    } else {
                        0.0
                    },
                }
            })
            .collect()
    }

    /// Fraction of paid BTU time actually spent executing, across all
    /// VMs (`1 − idle/billed`).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let billed: f64 = self.vms.iter().map(|v| v.meter.billed_seconds()).sum();
        let busy: f64 = self.vms.iter().map(|v| v.meter.busy).sum();
        if billed > 0.0 {
            busy / billed
        } else {
            0.0
        }
    }

    /// Check every invariant of a well-formed schedule against its
    /// workflow and platform:
    ///
    /// 1. exactly one placement per task, on an existing VM,
    /// 2. task start and finish times are finite and durations equal
    ///    `base_time / speedup(vm type)`,
    /// 3. every task is listed exactly once, on the VM its placement
    ///    names ([`Self::check_vm_lists`]),
    /// 4. no two tasks overlap on a VM,
    /// 5. every task starts no earlier than each predecessor's finish
    ///    plus the inter-VM transfer time (zero within a VM).
    ///
    /// Overlaps are checked in start order, equal starts in list order,
    /// so a zero-runtime task may share its start with the next task on
    /// its VM. A list out of start order still validates (`verify` sees
    /// it). Every check fails closed: a comparison that a NaN makes false
    /// reports a violation rather than passing.
    ///
    /// # Errors
    /// Returns the first violation found.
    pub fn validate(&self, wf: &Workflow, platform: &Platform) -> Result<(), ScheduleError> {
        if self.placements.len() != wf.len() {
            return Err(ScheduleError::WrongTaskCount {
                expected: wf.len(),
                actual: self.placements.len(),
            });
        }
        for id in wf.ids() {
            let p = self.placements[id.index()];
            if p.vm.index() >= self.vms.len() {
                return Err(ScheduleError::UnknownVm(id, p.vm));
            }
            let vm = &self.vms[p.vm.index()];
            let expected = vm.itype.execution_time(wf.task(id).base_time);
            let actual = p.finish - p.start;
            let exact =
                p.start.is_finite() && p.finish.is_finite() && (actual - expected).abs() <= EPS;
            if !exact {
                return Err(ScheduleError::WrongDuration {
                    task: id,
                    actual,
                    expected,
                });
            }
        }
        self.check_vm_lists()?;
        // Per-VM serialization, one buffer for every VM: list positions
        // by start, ties by position, so equal starts keep list order.
        let mut by_start: Vec<(f64, usize)> = Vec::new();
        for (v, vm) in self.vms.iter().enumerate() {
            by_start.clear();
            by_start.extend(
                vm.tasks
                    .iter()
                    .enumerate()
                    .map(|(pos, t)| (self.placements[t.index()].start, pos)),
            );
            by_start.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            for w in by_start.windows(2) {
                let (a, b) = (vm.tasks[w[0].1], vm.tasks[w[1].1]);
                let after = w[1].0 >= self.placements[a.index()].finish - EPS;
                if !after {
                    return Err(ScheduleError::VmOverlap {
                        vm: VmId(v as u32),
                        a,
                        b,
                    });
                }
            }
        }
        // Precedence + transfers.
        for id in wf.ids() {
            let p = self.placements[id.index()];
            let to_vm = &self.vms[p.vm.index()];
            for e in wf.predecessors(id) {
                let pp = self.placements[e.from.index()];
                let from_vm = &self.vms[pp.vm.index()];
                let transfer = if pp.vm == p.vm {
                    0.0
                } else {
                    platform.transfer_time_between(
                        e.data_mb,
                        (from_vm.region, from_vm.itype),
                        (to_vm.region, to_vm.itype),
                    )
                };
                let earliest = pp.finish + transfer;
                let waits = p.start >= earliest - EPS;
                if !waits {
                    return Err(ScheduleError::PrecedenceViolation {
                        task: id,
                        predecessor: e.from,
                        start: p.start,
                        earliest,
                    });
                }
            }
        }
        Ok(())
    }

    /// Check that every task is listed exactly once, on the VM its
    /// placement names. [`Self::validate`] runs this check, and the
    /// simulator replays a plan that passes it in one pass along its lists.
    ///
    /// # Errors
    /// [`ScheduleError::InconsistentVmTasks`] naming the lowest VM whose
    /// list holds a task it should not, or lacks one it should.
    pub fn check_vm_lists(&self) -> Result<(), ScheduleError> {
        let mut seen = vec![false; self.placements.len()];
        // The lowest VM found wrong: one listing a task twice or a task
        // placed elsewhere, or one a task is placed on but not listed by.
        let mut wrong = usize::MAX;
        for (v, vm) in self.vms.iter().enumerate() {
            for t in &vm.tasks {
                match seen.get_mut(t.index()) {
                    Some(seen) if !*seen => {
                        *seen = true;
                        let host = self.placements[t.index()].vm.index();
                        if host != v {
                            wrong = wrong.min(v).min(host);
                        }
                    }
                    _ => wrong = wrong.min(v),
                }
            }
        }
        for (p, _) in self.placements.iter().zip(&seen).filter(|(_, &s)| !s) {
            wrong = wrong.min(p.vm.index());
        }
        match wrong {
            usize::MAX => Ok(()),
            v => Err(ScheduleError::InconsistentVmTasks(VmId(v as u32))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_dag::WorkflowBuilder;
    use cws_platform::{InstanceType, Region};

    fn two_task_chain() -> Workflow {
        let mut b = WorkflowBuilder::new("chain2");
        let a = b.task("a", 100.0);
        let c = b.task("c", 200.0);
        b.edge(a, c);
        b.build().unwrap()
    }

    /// Hand-build a valid schedule: both tasks on one small VM.
    fn valid_schedule() -> Schedule {
        let mut vm = Vm::new(InstanceType::Small, Region::UsEastVirginia, 0.0);
        vm.push_task(TaskId(0), 0.0, 100.0);
        vm.push_task(TaskId(1), 100.0, 300.0);
        Schedule {
            strategy: "hand".into(),
            vms: vec![vm],
            placements: vec![
                TaskPlacement {
                    vm: VmId(0),
                    start: 0.0,
                    finish: 100.0,
                },
                TaskPlacement {
                    vm: VmId(0),
                    start: 100.0,
                    finish: 300.0,
                },
            ],
        }
    }

    #[test]
    fn valid_schedule_passes() {
        let wf = two_task_chain();
        let p = Platform::ec2_paper();
        valid_schedule().validate(&wf, &p).unwrap();
    }

    #[test]
    fn metrics_of_hand_schedule() {
        let s = valid_schedule();
        let p = Platform::ec2_paper();
        assert_eq!(s.makespan(), 300.0);
        assert_eq!(s.total_btus(), 1);
        assert!((s.rental_cost(&p) - 0.08).abs() < 1e-12);
        assert!((s.idle_seconds() - 3300.0).abs() < 1e-9);
        assert_eq!(s.vm_count(), 1);
    }

    #[test]
    fn vm_metrics_breakdown() {
        let s = valid_schedule();
        let p = Platform::ec2_paper();
        let vms = s.vm_metrics(&p);
        assert_eq!(vms.len(), 1);
        assert_eq!(vms[0].tasks, 2);
        assert_eq!(vms[0].btus, 1);
        assert!((vms[0].busy_seconds - 300.0).abs() < 1e-9);
        assert!((vms[0].utilization - 300.0 / 3600.0).abs() < 1e-12);
        assert!((s.utilization() - 300.0 / 3600.0).abs() < 1e-12);
    }

    #[test]
    fn precedence_violation_detected() {
        let wf = two_task_chain();
        let p = Platform::ec2_paper();
        let mut s = valid_schedule();
        // start the successor before the predecessor finishes
        s.placements[1].start = 50.0;
        s.placements[1].finish = 250.0;
        match s.validate(&wf, &p) {
            Err(ScheduleError::VmOverlap { .. })
            | Err(ScheduleError::PrecedenceViolation { .. }) => {}
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn wrong_duration_detected() {
        let wf = two_task_chain();
        let p = Platform::ec2_paper();
        let mut s = valid_schedule();
        s.placements[0].finish = 90.0;
        match s.validate(&wf, &p) {
            Err(ScheduleError::WrongDuration { task, .. }) => assert_eq!(task, TaskId(0)),
            other => panic!("expected WrongDuration, got {other:?}"),
        }
    }

    #[test]
    fn missing_placement_detected() {
        let wf = two_task_chain();
        let p = Platform::ec2_paper();
        let mut s = valid_schedule();
        s.placements.pop();
        assert_eq!(
            s.validate(&wf, &p),
            Err(ScheduleError::WrongTaskCount {
                expected: 2,
                actual: 1
            })
        );
    }

    #[test]
    fn unknown_vm_detected() {
        let wf = two_task_chain();
        let p = Platform::ec2_paper();
        let mut s = valid_schedule();
        s.placements[1].vm = VmId(9);
        assert!(matches!(
            s.validate(&wf, &p),
            Err(ScheduleError::UnknownVm(TaskId(1), VmId(9)))
        ));
    }

    #[test]
    fn cross_vm_transfer_must_be_waited_for() {
        // put the two tasks on different VMs with a payload and no wait
        let mut b = WorkflowBuilder::new("xfer");
        let a = b.task("a", 100.0);
        let c = b.task("c", 200.0);
        b.data_edge(a, c, 12_500.0); // 100s on a 1 Gb/s link
        let wf = b.build().unwrap();
        let p = Platform::ec2_paper();

        let mut vm0 = Vm::new(InstanceType::Small, Region::UsEastVirginia, 0.0);
        vm0.push_task(TaskId(0), 0.0, 100.0);
        let mut vm1 = Vm::new(InstanceType::Small, Region::UsEastVirginia, 100.0);
        vm1.push_task(TaskId(1), 100.0, 300.0);
        let s = Schedule {
            strategy: "hand".into(),
            vms: vec![vm0, vm1],
            placements: vec![
                TaskPlacement {
                    vm: VmId(0),
                    start: 0.0,
                    finish: 100.0,
                },
                TaskPlacement {
                    vm: VmId(1),
                    start: 100.0,
                    finish: 300.0,
                },
            ],
        };
        match s.validate(&wf, &p) {
            Err(ScheduleError::PrecedenceViolation { task, .. }) => assert_eq!(task, TaskId(1)),
            other => panic!("expected PrecedenceViolation, got {other:?}"),
        }
    }

    #[test]
    fn transfer_cost_zero_within_region() {
        let wf = two_task_chain();
        let p = Platform::ec2_paper();
        assert_eq!(valid_schedule().transfer_cost(&wf, &p), 0.0);
    }

    #[test]
    fn transfer_cost_bills_edges_between_regions() {
        let mut b = WorkflowBuilder::new("two-regions");
        let a = b.task("a", 100.0);
        let c = b.task("c", 200.0);
        b.data_edge(a, c, 2048.0);
        let wf = b.build().unwrap();
        let p = Platform::ec2_paper();
        let mut sb = crate::state::ScheduleBuilder::new(&wf, &p);
        sb.place_on_new_in(a, InstanceType::Small, Region::UsEastVirginia);
        sb.place_on_new_in(c, InstanceType::Small, Region::EuDublin);
        let cost = sb.build("hand").transfer_cost(&wf, &p);
        let expected = p
            .prices
            .transfer_cost(Region::UsEastVirginia, Region::EuDublin, 2.0, 0.0);
        assert!(expected > 0.0);
        assert_eq!(cost, expected);
    }

    /// Montage-24's `OneVMperTask-s` plan: 24 VMs, one task each.
    fn montage_one_vm_per_task() -> (Workflow, Schedule) {
        let wf = cws_workloads::montage_24();
        let s = crate::Strategy::parse("OneVMperTask-s")
            .expect("known label")
            .schedule(&wf, &Platform::ec2_paper());
        (wf, s)
    }

    /// A NaN start makes every comparison on it false; the duration
    /// check must still reject it rather than let it pass.
    #[test]
    fn nan_start_is_a_wrong_duration() {
        let (wf, mut s) = montage_one_vm_per_task();
        let p = Platform::ec2_paper();
        s.validate(&wf, &p).unwrap();
        s.placements[5].start = f64::NAN;
        assert!(matches!(
            s.validate(&wf, &p),
            Err(ScheduleError::WrongDuration {
                task: TaskId(5),
                ..
            })
        ));
    }

    /// A list entry moved, repeated or naming a task that does not
    /// exist makes the lowest VM it touches inconsistent.
    #[test]
    fn list_defects_name_the_lowest_wrong_vm() {
        let (wf, s) = montage_one_vm_per_task();
        let p = Platform::ec2_paper();
        let inconsistent = |edit: &dyn Fn(&mut Schedule)| {
            let mut t = s.clone();
            edit(&mut t);
            assert_eq!(
                t.validate(&wf, &p),
                t.check_vm_lists(),
                "validate reports the list check's error"
            );
            t.check_vm_lists()
        };
        let err = |v| Err(ScheduleError::InconsistentVmTasks(VmId(v)));
        assert_eq!(inconsistent(&|_| {}), Ok(()));
        // vm7's task moves to vm3: both lists are wrong.
        assert_eq!(
            inconsistent(&|t| {
                let moved = t.vms[7].tasks.remove(0);
                t.vms[3].tasks.push(moved);
            }),
            err(3)
        );
        // vm3's task moves to vm7.
        assert_eq!(
            inconsistent(&|t| {
                let moved = t.vms[3].tasks.remove(0);
                t.vms[7].tasks.push(moved);
            }),
            err(3)
        );
        // vm2's task is listed again on vm9, or never listed.
        assert_eq!(
            inconsistent(&|t| {
                let copy = t.vms[2].tasks[0];
                t.vms[9].tasks.push(copy);
            }),
            err(9)
        );
        assert_eq!(inconsistent(&|t| t.vms[5].tasks.clear()), err(5));
        // A task id past the workflow.
        assert_eq!(inconsistent(&|t| t.vms[4].tasks[0] = TaskId(99)), err(4));
    }

    /// `s` ← `z` (0 s) ← `e`, declared in that order and run on one VM:
    /// `z` and its successor `s` both start when `e` finishes, and `s`
    /// has the smaller id. Equal starts keep list order, so the plan
    /// validates; listed after `s`, `z` would start while `s` runs.
    #[test]
    fn equal_starts_keep_list_order() {
        let mut b = WorkflowBuilder::new("zero");
        let s_ = b.task("s", 50.0);
        let z = b.task("z", 0.0);
        let e = b.task("e", 100.0);
        b.edge(z, s_);
        b.edge(e, z);
        let wf = b.build().unwrap();
        let p = Platform::ec2_paper();
        let mut sb = crate::state::ScheduleBuilder::new(&wf, &p);
        let vm = sb.place_on_new(e, InstanceType::Small);
        sb.place_on(z, vm);
        sb.place_on(s_, vm);
        let mut plan = sb.build("hand");
        assert_eq!(plan.placement(z).start, plan.placement(s_).start);
        plan.validate(&wf, &p).unwrap();
        plan.vms[0].tasks = vec![e, s_, z];
        assert_eq!(
            plan.validate(&wf, &p),
            Err(ScheduleError::VmOverlap {
                vm: VmId(0),
                a: s_,
                b: z
            })
        );
    }

    #[test]
    fn inconsistent_vm_task_list_detected() {
        let wf = two_task_chain();
        let p = Platform::ec2_paper();
        let mut s = valid_schedule();
        s.vms[0].tasks.pop();
        assert!(matches!(
            s.validate(&wf, &p),
            Err(ScheduleError::InconsistentVmTasks(VmId(0)))
        ));
    }
}
