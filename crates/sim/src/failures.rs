//! VM failure impact analysis and greedy recovery.
//!
//! The paper's schedules are static plans with no failure handling; this
//! module quantifies what a VM crash does to such a plan and what a
//! simple recovery costs:
//!
//! * [`failure_impact`] — given crash times per VM, determines which
//!   tasks still complete. A task is lost when its VM dies before the
//!   task finishes, when any predecessor is lost, or when an earlier
//!   task in its VM's queue is lost (the static plan's queue blocks —
//!   there is *no* rescheduling).
//! * [`recover`] — replans the lost tasks OneVMperTask-style on fresh
//!   VMs rented after the crash, reporting the recovered makespan and
//!   the extra rent.

use crate::engine::simulate;
use crate::report::SimReport;
use cws_core::{Schedule, VmId};
use cws_dag::{TaskId, Workflow};
use cws_platform::{billing::btus_for_span, InstanceType, Platform};

/// One VM crash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmFailure {
    /// The failing VM.
    pub vm: VmId,
    /// Crash time (seconds since schedule origin). Tasks finishing
    /// strictly after this moment on the VM are lost.
    pub at: f64,
}

/// What survives a set of crashes.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureImpact {
    /// Per task: did it complete?
    pub completed: Vec<bool>,
    /// Lost tasks, in topological order.
    pub lost: Vec<TaskId>,
    /// Finish time of the last completed task (0 when nothing ran).
    pub completed_makespan: f64,
}

impl FailureImpact {
    /// Fraction of tasks that completed.
    #[must_use]
    pub fn completion_rate(&self) -> f64 {
        let done = self.completed.iter().filter(|&&c| c).count();
        done as f64 / self.completed.len().max(1) as f64
    }
}

/// Compute the impact of `failures` on a static plan.
#[must_use]
pub fn failure_impact(
    wf: &Workflow,
    platform: &Platform,
    schedule: &Schedule,
    failures: &[VmFailure],
) -> FailureImpact {
    failure_impact_from(wf, schedule, &simulate(wf, platform, schedule), failures)
}

/// [`failure_impact`] on an already-replayed plan. Callers that need
/// several analyses of one schedule (or that record traces, where every
/// extra replay would pollute the event stream) simulate once and share
/// the report.
#[must_use]
pub fn failure_impact_from(
    wf: &Workflow,
    schedule: &Schedule,
    report: &SimReport,
    failures: &[VmFailure],
) -> FailureImpact {
    let fail_time = |vm: VmId| -> f64 {
        failures
            .iter()
            .filter(|f| f.vm == vm)
            .map(|f| f.at)
            .fold(f64::INFINITY, f64::min)
    };

    let mut completed = vec![false; wf.len()];
    // Walk per-VM queues in plan order inside a global topological walk:
    // process tasks by observed start time (a valid execution order).
    let mut order: Vec<TaskId> = wf.ids().collect();
    order.sort_by(|a, b| {
        report.tasks[a.index()]
            .start
            .total_cmp(&report.tasks[b.index()].start)
            .then(a.0.cmp(&b.0))
    });
    // Track whether each VM's queue is blocked by an earlier loss.
    let mut vm_blocked = vec![false; schedule.vms.len()];
    for t in order {
        let obs = report.tasks[t.index()];
        let preds_ok = wf.predecessors(t).iter().all(|e| completed[e.from.index()]);
        let vm_ok = !vm_blocked[obs.vm.index()] && obs.finish <= fail_time(obs.vm);
        if preds_ok && vm_ok {
            completed[t.index()] = true;
        } else {
            vm_blocked[obs.vm.index()] = true;
        }
    }

    let lost: Vec<TaskId> = wf
        .topological_order()
        .iter()
        .copied()
        .filter(|t| !completed[t.index()])
        .collect();
    let completed_makespan = wf
        .ids()
        .filter(|t| completed[t.index()])
        .map(|t| report.tasks[t.index()].finish)
        .fold(0.0_f64, f64::max);
    FailureImpact {
        completed,
        lost,
        completed_makespan,
    }
}

/// Cost and makespan of greedily recovering from `impact`: every lost
/// task reruns on a fresh VM of `itype`, starting no earlier than
/// `restart_at` and its (possibly recovered) predecessors' finishes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recovery {
    /// Makespan including the recovery tail.
    pub recovered_makespan: f64,
    /// Extra rent for the recovery VMs, USD.
    pub extra_cost: f64,
    /// Number of recovery VMs rented.
    pub recovery_vms: usize,
}

/// Greedy OneVMperTask recovery of the lost tasks.
#[must_use]
pub fn recover(
    wf: &Workflow,
    platform: &Platform,
    schedule: &Schedule,
    impact: &FailureImpact,
    restart_at: f64,
    itype: InstanceType,
) -> Recovery {
    let report = simulate(wf, platform, schedule);
    recover_from(wf, platform, &report, impact, restart_at, itype)
}

/// [`recover`] on an already-replayed plan — same sharing rationale as
/// [`failure_impact_from`].
#[must_use]
pub fn recover_from(
    wf: &Workflow,
    platform: &Platform,
    report: &SimReport,
    impact: &FailureImpact,
    restart_at: f64,
    itype: InstanceType,
) -> Recovery {
    let mut finish = vec![0.0f64; wf.len()];
    for t in wf.ids() {
        if impact.completed[t.index()] {
            finish[t.index()] = report.tasks[t.index()].finish;
        }
    }
    let mut extra_cost = 0.0;
    let mut makespan = impact.completed_makespan;
    for &t in &impact.lost {
        let ready = wf
            .predecessors(t)
            .iter()
            .map(|e| finish[e.from.index()])
            .fold(restart_at, f64::max);
        let et = itype.execution_time(wf.task(t).base_time);
        let end = ready + et;
        finish[t.index()] = end;
        makespan = makespan.max(end);
        extra_cost += btus_for_span(et) as f64 * platform.price(itype);
    }
    Recovery {
        recovered_makespan: makespan,
        extra_cost,
        recovery_vms: impact.lost.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_core::Strategy;
    use cws_workloads::{sequential, Scenario};

    fn setup() -> (Workflow, Platform, Schedule) {
        let p = Platform::ec2_paper();
        let wf = Scenario::Pareto { seed: 6 }.apply(&cws_workloads::montage_24());
        let s = Strategy::BASELINE.schedule(&wf, &p);
        (wf, p, s)
    }

    #[test]
    fn no_failures_means_full_completion() {
        let (wf, p, s) = setup();
        let impact = failure_impact(&wf, &p, &s, &[]);
        assert!(impact.lost.is_empty());
        assert_eq!(impact.completion_rate(), 1.0);
        assert!((impact.completed_makespan - s.makespan()).abs() < 1e-6);
    }

    #[test]
    fn early_crash_of_entry_vm_cascades() {
        let (wf, p, s) = setup();
        // kill the VM of the first entry task before anything finishes
        let entry_vm = s.placement(wf.entries()[0]).vm;
        let impact = failure_impact(
            &wf,
            &p,
            &s,
            &[VmFailure {
                vm: entry_vm,
                at: 0.0,
            }],
        );
        assert!(!impact.lost.is_empty());
        // the entry itself is lost, so every task depending on it is too
        assert!(!impact.completed[wf.entries()[0].index()]);
        assert!(impact.completion_rate() < 1.0);
    }

    #[test]
    fn serial_plan_loses_everything_after_the_crash() {
        let p = Platform::ec2_paper();
        let wf = Scenario::BestCase.apply(&sequential(10)); // 360s tasks
        let s = Strategy::parse("StartParExceed-s")
            .unwrap()
            .schedule(&wf, &p);
        assert_eq!(s.vm_count(), 1);
        // crash after the 3rd task (~1080s)
        let impact = failure_impact(
            &wf,
            &p,
            &s,
            &[VmFailure {
                vm: cws_core::VmId(0),
                at: 1100.0,
            }],
        );
        assert_eq!(impact.lost.len(), 7);
        assert!((impact.completion_rate() - 0.3).abs() < 1e-9);
        assert!((impact.completed_makespan - 1080.0).abs() < 1.0);
    }

    #[test]
    fn crash_after_completion_changes_nothing() {
        let (wf, p, s) = setup();
        let impact = failure_impact(
            &wf,
            &p,
            &s,
            &[VmFailure {
                vm: cws_core::VmId(0),
                at: s.makespan() + 1.0,
            }],
        );
        assert!(impact.lost.is_empty());
    }

    #[test]
    fn recovery_finishes_the_workflow_at_extra_cost() {
        let p = Platform::ec2_paper();
        let wf = Scenario::BestCase.apply(&sequential(10));
        let s = Strategy::parse("StartParExceed-s")
            .unwrap()
            .schedule(&wf, &p);
        let impact = failure_impact(
            &wf,
            &p,
            &s,
            &[VmFailure {
                vm: cws_core::VmId(0),
                at: 1100.0,
            }],
        );
        let rec = recover(&wf, &p, &s, &impact, 1100.0, InstanceType::Small);
        assert_eq!(rec.recovery_vms, 7);
        assert!(rec.extra_cost > 0.0);
        // serial recovery of 7 × 360s from t=1100
        assert!((rec.recovered_makespan - (1100.0 + 7.0 * 360.0)).abs() < 1.0);
    }

    #[test]
    fn parallel_plans_contain_failures_better_than_serial_ones() {
        let p = Platform::ec2_paper();
        let wf = Scenario::BestCase.apply(&sequential(1)); // trivial guard
        let _ = wf;
        let wf = Scenario::Pareto { seed: 9 }.apply(&cws_workloads::mapreduce_default());
        let spread = Strategy::BASELINE.schedule(&wf, &p);
        let packed = Strategy::parse("StartParExceed-s")
            .unwrap()
            .schedule(&wf, &p);
        let mid = packed.makespan() / 4.0;
        let spread_impact = failure_impact(
            &wf,
            &p,
            &spread,
            &[VmFailure {
                vm: cws_core::VmId(0),
                at: mid,
            }],
        );
        let packed_impact = failure_impact(
            &wf,
            &p,
            &packed,
            &[VmFailure {
                vm: cws_core::VmId(0),
                at: mid,
            }],
        );
        assert!(
            spread_impact.completion_rate() >= packed_impact.completion_rate(),
            "one VM holding everything is the worst failure domain"
        );
    }
}
