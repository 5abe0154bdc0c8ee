//! The discrete-event replay engine.

use crate::queue::EventQueue;
use crate::report::{ObservedTask, SimReport};
use cws_core::{Schedule, VmId};
use cws_dag::{TaskId, Workflow};
use cws_obs as obs;
use cws_platform::billing::{btus_for_span, BTU_EPSILON, BTU_SECONDS};
use cws_platform::Platform;

/// Internal event payloads.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// A VM finished booting.
    VmReady(VmId),
    /// A task completed on its VM.
    TaskFinish(TaskId, VmId),
    /// One input dependency of a task became available at its VM.
    InputArrive { from: TaskId, to: TaskId },
}

/// A discrete-event simulator replaying one schedule.
///
/// The schedule supplies the *plan*: which VM each task runs on and in
/// which order tasks execute per VM. The engine derives all timing
/// itself: VMs boot (per the platform's boot time), a task starts when
/// it is at the head of its VM's queue, the VM is idle, and every input
/// (predecessor output, possibly shipped across the network) has
/// arrived.
#[derive(Debug)]
pub struct Simulator<'a> {
    wf: &'a Workflow,
    platform: &'a Platform,
    schedule: &'a Schedule,
}

impl<'a> Simulator<'a> {
    /// Create a simulator for one (workflow, platform, schedule) triple.
    #[must_use]
    pub fn new(wf: &'a Workflow, platform: &'a Platform, schedule: &'a Schedule) -> Self {
        Simulator {
            wf,
            platform,
            schedule,
        }
    }

    /// Run the replay to completion and report what happened.
    #[must_use]
    pub fn run(&self) -> SimReport {
        self.run_perturbed(|_, d| d)
    }

    /// Run the replay with perturbed task durations: `perturb(task,
    /// planned_duration)` returns the duration actually simulated. The
    /// plan's task order and VM mapping are kept — this is how a *static*
    /// schedule behaves when reality diverges from the estimates, the
    /// robustness question behind [`crate::jitter`].
    #[must_use]
    pub fn run_perturbed(&self, perturb: impl Fn(cws_dag::TaskId, f64) -> f64) -> SimReport {
        let n = self.wf.len();
        let vm_count = self.schedule.vms.len();

        // Effective duration per task (planned duration through the
        // perturbation hook).
        let durations: Vec<f64> = self
            .wf
            .ids()
            .map(|t| {
                let vm = &self.schedule.vms[self.schedule.placements[t.index()].vm.index()];
                let planned = vm.itype.execution_time(self.wf.task(t).base_time);
                let d = perturb(t, planned);
                assert!(
                    d.is_finite() && d >= 0.0,
                    "perturbed duration must be finite and non-negative, got {d}"
                );
                d
            })
            .collect();

        // Per-VM planned task order.
        let mut vm_queue: Vec<std::collections::VecDeque<TaskId>> =
            vec![std::collections::VecDeque::new(); vm_count];
        for vm in &self.schedule.vms {
            for &(t, _, _) in &vm.tasks {
                vm_queue[vm.id.index()].push_back(t);
            }
        }

        // Inputs still missing per task.
        let mut missing_inputs: Vec<usize> = self
            .wf
            .ids()
            .map(|t| self.wf.predecessors(t).len())
            .collect();
        let mut vm_busy = vec![false; vm_count];
        let mut vm_booted = vec![false; vm_count];
        let mut observed: Vec<Option<ObservedTask>> = vec![None; n];
        let mut queue: EventQueue<Ev> = EventQueue::new();
        let mut processed = 0usize;
        let mut clock = 0.0f64;
        // Captured once per replay: a disabled trace costs one branch on
        // a local per event (same pattern as the kernel's flags).
        let trace_on = obs::trace_enabled();

        // Each VM starts booting when its rental opens (`meter.start` is
        // the decision time) and becomes ready `boot_time_s` later — the
        // simulator models boot independently of whatever the planner
        // assumed, so a plan that fails to wait out boot diverges here.
        for vm in &self.schedule.vms {
            let ready_at = vm.meter.start + self.platform.boot_time_s;
            queue.push(ready_at, Ev::VmReady(vm.id));
        }

        while let Some(te) = queue.pop() {
            processed += 1;
            clock = clock.max(te.time);
            match te.event {
                Ev::VmReady(vm) => {
                    vm_booted[vm.index()] = true;
                    if trace_on {
                        obs::emit(|| obs::TraceEvent::VmBoot {
                            vm: vm.0,
                            time: te.time,
                        });
                    }
                    try_start(
                        self,
                        vm,
                        te.time,
                        &durations,
                        &mut vm_queue,
                        &missing_inputs,
                        &mut vm_busy,
                        &vm_booted,
                        &mut observed,
                        &mut queue,
                    );
                }
                Ev::TaskFinish(task, vm) => {
                    if trace_on {
                        obs::emit(|| obs::TraceEvent::TaskFinish {
                            task: task.index() as u32,
                            vm: vm.0,
                            time: te.time,
                        });
                    }
                    vm_busy[vm.index()] = false;
                    // Release successors: data ships to each consumer.
                    for e in self.wf.successors(task) {
                        let dest_vm = self.schedule.placements[e.to.index()].vm;
                        let delay = if dest_vm == vm {
                            0.0
                        } else {
                            let from_vm = &self.schedule.vms[vm.index()];
                            let to_vm = &self.schedule.vms[dest_vm.index()];
                            self.platform.transfer_time_between(
                                e.data_mb,
                                (from_vm.region, from_vm.itype),
                                (to_vm.region, to_vm.itype),
                            )
                        };
                        if trace_on && dest_vm != vm {
                            obs::emit(|| obs::TraceEvent::TransferStart {
                                from: task.index() as u32,
                                to: e.to.index() as u32,
                                data_mb: e.data_mb,
                                time: te.time,
                            });
                        }
                        queue.push(
                            te.time + delay,
                            Ev::InputArrive {
                                from: task,
                                to: e.to,
                            },
                        );
                    }
                    // The VM may start its next planned task.
                    try_start(
                        self,
                        vm,
                        te.time,
                        &durations,
                        &mut vm_queue,
                        &missing_inputs,
                        &mut vm_busy,
                        &vm_booted,
                        &mut observed,
                        &mut queue,
                    );
                }
                Ev::InputArrive { from, to } => {
                    missing_inputs[to.index()] -= 1;
                    let vm = self.schedule.placements[to.index()].vm;
                    if trace_on && self.schedule.placements[from.index()].vm != vm {
                        obs::emit(|| obs::TraceEvent::TransferFinish {
                            from: from.index() as u32,
                            to: to.index() as u32,
                            time: te.time,
                        });
                    }
                    try_start(
                        self,
                        vm,
                        te.time,
                        &durations,
                        &mut vm_queue,
                        &missing_inputs,
                        &mut vm_busy,
                        &vm_booted,
                        &mut observed,
                        &mut queue,
                    );
                }
            }
        }

        let tasks: Vec<ObservedTask> = observed
            .into_iter()
            .enumerate()
            .map(|(i, o)| {
                o.unwrap_or(ObservedTask {
                    // Deadlocked tasks are reported with NaN so
                    // verify_against flags them as mismatches.
                    start: f64::NAN,
                    finish: f64::NAN,
                    vm: self.schedule.placements[i].vm,
                })
            })
            .collect();
        let makespan = tasks.iter().map(|t| t.finish).fold(0.0f64, |acc, x| {
            if x.is_nan() {
                f64::NAN
            } else {
                acc.max(x)
            }
        });

        if trace_on {
            self.emit_billing_events(&tasks);
        }
        if obs::metrics_enabled() {
            obs::MetricsRegistry::global()
                .counter(obs::metrics::names::SIM_EVENTS)
                .add(processed as u64);
        }

        SimReport {
            tasks,
            makespan,
            events_processed: processed,
        }
    }

    /// Walk the observed per-VM busy intervals and emit the billing
    /// events of the replay: one [`cws_obs::TraceEvent::BtuBoundary`]
    /// per committed billing unit (timed at the instant the VM's
    /// *consumed* execution time crosses a BTU multiple — busy-consumed
    /// billing, the paper's offline convention) and a closing
    /// [`cws_obs::TraceEvent::VmReclaim`] carrying billed BTUs, busy
    /// seconds and rental cost. Tasks the replay deadlocked on (NaN
    /// observations) are skipped.
    fn emit_billing_events(&self, tasks: &[ObservedTask]) {
        for vm in &self.schedule.vms {
            // Observed intervals on this VM, in chronological order.
            let mut intervals: Vec<(f64, f64)> = vm
                .tasks
                .iter()
                .filter_map(|&(t, _, _)| {
                    let o = &tasks[t.index()];
                    (o.start.is_finite() && o.finish.is_finite()).then_some((o.start, o.finish))
                })
                .collect();
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut busy = 0.0f64;
            let mut end = vm.meter.start;
            for &(start, finish) in &intervals {
                let before = busy;
                busy += finish - start;
                end = end.max(finish);
                // Boundaries crossed while this task ran: consumed time
                // passes k·BTU at start + (k·BTU − busy_before). Start
                // from the unit already being billed (btus_for_span,
                // not floor+1: if `before` sat exactly on a BTU
                // multiple that boundary was already emitted) and stop
                // with the same epsilon billing itself uses, so the
                // emitted set is exactly {1, …, billed − 1} even when
                // busy lands on an exact multiple.
                let mut k = btus_for_span(before);
                while (k as f64) * BTU_SECONDS + BTU_EPSILON <= busy {
                    let at = start + (k as f64) * BTU_SECONDS - before;
                    obs::emit(|| obs::TraceEvent::BtuBoundary {
                        vm: vm.id.0,
                        btu: k,
                        time: at,
                    });
                    k += 1;
                }
            }
            let billed = btus_for_span(busy);
            let price = self.platform.price_in(vm.region, vm.itype);
            obs::emit(|| obs::TraceEvent::VmReclaim {
                vm: vm.id.0,
                time: end,
                billed_btus: billed,
                busy_s: busy,
                cost_usd: billed as f64 * price,
            });
        }
    }
}

/// Start the head task of `vm`'s plan if the VM is booted, idle and the
/// task's inputs have all arrived.
#[allow(clippy::too_many_arguments)]
fn try_start(
    sim: &Simulator<'_>,
    vm: VmId,
    now: f64,
    durations: &[f64],
    vm_queue: &mut [std::collections::VecDeque<TaskId>],
    missing_inputs: &[usize],
    vm_busy: &mut [bool],
    vm_booted: &[bool],
    observed: &mut [Option<ObservedTask>],
    queue: &mut EventQueue<Ev>,
) {
    if vm_busy[vm.index()] || !vm_booted[vm.index()] {
        return;
    }
    let Some(&head) = vm_queue[vm.index()].front() else {
        return;
    };
    if missing_inputs[head.index()] > 0 {
        return;
    }
    vm_queue[vm.index()].pop_front();
    vm_busy[vm.index()] = true;
    let _ = sim; // the plan's VM table already fixed the duration basis
    let duration = durations[head.index()];
    observed[head.index()] = Some(ObservedTask {
        start: now,
        finish: now + duration,
        vm,
    });
    obs::emit(|| obs::TraceEvent::TaskStart {
        task: head.index() as u32,
        vm: vm.0,
        time: now,
    });
    queue.push(now + duration, Ev::TaskFinish(head, vm));
}

/// Replay `schedule` on the platform and report observed behaviour.
#[must_use]
pub fn simulate(wf: &Workflow, platform: &Platform, schedule: &Schedule) -> SimReport {
    Simulator::new(wf, platform, schedule).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_core::{ProvisioningPolicy, Strategy};
    use cws_dag::WorkflowBuilder;
    use cws_platform::InstanceType;

    fn diamond() -> Workflow {
        let mut b = WorkflowBuilder::new("diamond");
        let a = b.task("a", 100.0);
        let x = b.task("x", 200.0);
        let y = b.task("y", 300.0);
        let z = b.task("z", 100.0);
        b.edge(a, x).edge(a, y).edge(x, z).edge(y, z);
        b.build().unwrap()
    }

    #[test]
    fn replay_matches_plan_for_every_paper_strategy() {
        let wf = diamond();
        let p = Platform::ec2_paper();
        for s in Strategy::paper_set() {
            let sched = s.schedule(&wf, &p);
            let report = simulate(&wf, &p, &sched);
            report
                .verify_against(&sched, 1e-6)
                .unwrap_or_else(|e| panic!("{}: {e}", s.label()));
        }
    }

    #[test]
    fn boot_time_delays_replay_consistently() {
        let wf = diamond();
        let p = Platform::ec2_paper().with_boot_time(120.0);
        let sched = cws_core::alloc::heft(
            &wf,
            &p,
            ProvisioningPolicy::StartParExceed,
            InstanceType::Small,
        );
        let report = simulate(&wf, &p, &sched);
        report.verify_against(&sched, 1e-6).unwrap();
        assert!(report.tasks[0].start >= 120.0);
    }

    #[test]
    fn boot_time_shifts_and_never_shortens_replay() {
        // Every mid-schedule rental pays the boot delay. Replay under
        // growing boot times must agree with the analytic plan at every
        // setting and makespans must be non-decreasing; a plan that
        // keeps everything on one machine pays boot exactly once.
        let wf = diamond();
        let mut last = 0.0f64;
        for boot in [0.0, 60.0, 300.0] {
            let p = Platform::ec2_paper().with_boot_time(boot);
            for s in Strategy::paper_set() {
                let sched = s.schedule(&wf, &p);
                let report = simulate(&wf, &p, &sched);
                report
                    .verify_against(&sched, 1e-6)
                    .unwrap_or_else(|e| panic!("boot {boot}, {}: {e}", s.label()));
            }
            let one_vm = cws_core::alloc::heft(
                &wf,
                &p,
                ProvisioningPolicy::OneVmPerTask,
                InstanceType::Small,
            );
            let mk = simulate(&wf, &p, &one_vm).makespan;
            assert!(mk >= last - 1e-9, "boot {boot} shortened the replay");
            last = mk;
        }
        // StartParExceed opens a single VM for the diamond and chains
        // every task onto it, so only one boot is paid: the replayed
        // makespan shifts by exactly the boot delay.
        let single_vm = |boot: f64| {
            let p = Platform::ec2_paper().with_boot_time(boot);
            let sched = cws_core::alloc::heft(
                &wf,
                &p,
                ProvisioningPolicy::StartParExceed,
                InstanceType::Small,
            );
            assert_eq!(sched.vm_count(), 1, "diamond fits one serial VM");
            simulate(&wf, &p, &sched).makespan
        };
        let base = single_vm(0.0);
        assert!(
            (single_vm(300.0) - (base + 300.0)).abs() < 1e-6,
            "single-VM plan shifts by exactly one boot delay"
        );
    }

    #[test]
    fn busy_seconds_match_meters() {
        let wf = diamond();
        let p = Platform::ec2_paper();
        let sched = Strategy::BASELINE.schedule(&wf, &p);
        let report = simulate(&wf, &p, &sched);
        let busy = report.vm_busy_seconds(sched.vm_count());
        for vm in &sched.vms {
            assert!((busy[vm.id.index()] - vm.meter.busy).abs() < 1e-6);
        }
    }

    #[test]
    fn bad_plan_is_detected_as_divergence() {
        // Tamper with a planned start: replay computes the true value and
        // verification reports a mismatch.
        let wf = diamond();
        let p = Platform::ec2_paper();
        let mut sched = Strategy::BASELINE.schedule(&wf, &p);
        sched.placements[3].start += 500.0;
        sched.placements[3].finish += 500.0;
        let report = simulate(&wf, &p, &sched);
        assert!(report.verify_against(&sched, 1e-6).is_err());
    }

    #[test]
    fn event_count_scales_with_edges_and_tasks() {
        let wf = diamond();
        let p = Platform::ec2_paper();
        let sched = Strategy::BASELINE.schedule(&wf, &p);
        let report = simulate(&wf, &p, &sched);
        // VmReady per VM + start/finish per task + arrival per edge
        assert_eq!(
            report.events_processed,
            sched.vm_count() + wf.len() + wf.edge_count()
        );
    }
}
