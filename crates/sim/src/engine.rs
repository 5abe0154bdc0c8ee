//! The discrete-event replay engine.
//!
//! Three kinds of event drive a replay: a VM finishes booting, a task
//! finishes, and a finished task's outputs arrive at its successors.
//! The outputs of one finished task travel as **one** heap entry, an
//! `Ev::Arrivals` batch, rather than one entry per edge:
//!
//! 1. On a task's finish, each successor's arrival time is computed
//!    (zero delay on the same VM, the platform's transfer time across
//!    VMs), `TransferStart` is emitted in successor order, and the
//!    `(time, successor)` pairs are appended to one arrival arena per
//!    replay. The new slice is sorted stably by time, so equal times
//!    keep successor order, and the batch is pushed once, at its
//!    earliest time.
//! 2. When the batch pops at time `t`, every arrival at `t` is
//!    delivered in order. If arrivals remain, the batch goes back into
//!    the queue at the next one's time under its original sequence
//!    number (`EventQueue::requeue`).
//!
//! This replays exactly the event order of one queue entry per edge,
//! the model the batch stands for:
//!
//! * Per edge, a finish would push its `k` arrivals under the
//!   consecutive sequence numbers `s..s+k-1`, with nothing pushed in
//!   between. The batch holds the single number `s`, a monotone
//!   relabelling, so every (time, sequence) comparison between a batch
//!   element and any other event comes out the same, and the stable
//!   sort reproduces the order inside the batch.
//! * Arrivals at the popped time need no heap look-up: the batch was
//!   the minimum at `(t, s)`, and everything pushed while it drains
//!   gets a larger sequence number.
//! * Every state change tries to start its VM's next task, so after
//!   each event no booted, idle VM has a startable head. An arrival
//!   that leaves inputs missing therefore cannot start anything, and
//!   only a task's last arrival tries to start its VM.
//!
//! Each delivered arrival counts as one processed event, so
//! [`SimReport::events_processed`] stays one per VM boot, task finish
//! and edge.

use crate::queue::{check_time, EventQueue};
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
    /// The undelivered outputs of task `from`: the arena slice
    /// `next..end`, sorted by arrival time. The entry sits in the queue
    /// at the time of `arrivals[next]` under the sequence number the
    /// finish pushed it with (see the module docs).
    Arrivals {
        from: TaskId,
        next: usize,
        end: usize,
    },
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

/// The mutable state of one replay.
struct Replay<'s> {
    schedule: &'s Schedule,
    /// Effective duration per task.
    durations: Vec<f64>,
    /// Per VM, the position in its planned task order of the next task
    /// to start.
    next_task: Vec<usize>,
    /// Inputs still missing per task.
    missing_inputs: Vec<usize>,
    vm_busy: Vec<bool>,
    vm_booted: Vec<bool>,
    observed: Vec<Option<ObservedTask>>,
    queue: EventQueue<Ev>,
}

impl Replay<'_> {
    /// Start the head task of `vm`'s plan if the VM is booted, idle and
    /// the task's inputs have all arrived.
    fn try_start(&mut self, vm: VmId, now: f64) {
        let v = vm.index();
        if self.vm_busy[v] || !self.vm_booted[v] {
            return;
        }
        let Some(&(head, _, _)) = self.schedule.vms[v].tasks.get(self.next_task[v]) else {
            return;
        };
        if self.missing_inputs[head.index()] > 0 {
            return;
        }
        self.next_task[v] += 1;
        self.vm_busy[v] = true;
        let duration = self.durations[head.index()];
        self.observed[head.index()] = Some(ObservedTask {
            start: now,
            finish: now + duration,
            vm,
        });
        obs::emit(|| obs::TraceEvent::TaskStart {
            task: head.index() as u32,
            vm: vm.0,
            time: now,
        });
        self.queue.push(now + duration, Ev::TaskFinish(head, vm));
    }
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
        let placements = &self.schedule.placements;

        let mut st = Replay {
            schedule: self.schedule,
            // Planned duration through the perturbation hook.
            durations: self
                .wf
                .ids()
                .map(|t| {
                    let vm = &self.schedule.vms[placements[t.index()].vm.index()];
                    let planned = vm.itype.execution_time(self.wf.task(t).base_time);
                    let d = perturb(t, planned);
                    assert!(
                        d.is_finite() && d >= 0.0,
                        "perturbed duration must be finite and non-negative, got {d}"
                    );
                    d
                })
                .collect(),
            next_task: vec![0; vm_count],
            missing_inputs: self
                .wf
                .ids()
                .map(|t| self.wf.predecessors(t).len())
                .collect(),
            vm_busy: vec![false; vm_count],
            vm_booted: vec![false; vm_count],
            observed: vec![None; n],
            queue: EventQueue::new(),
        };
        // Every finished task's (arrival time, successor) pairs, one
        // slice per finish.
        let mut arrivals: Vec<(f64, TaskId)> = Vec::with_capacity(self.wf.edge_count());
        let mut processed = 0usize;
        // Captured once per replay: a disabled trace costs one branch on
        // a local per event (same pattern as the kernel's flags).
        let trace_on = obs::trace_enabled();

        // Each VM starts booting when its rental opens (`meter.start` is
        // the decision time) and becomes ready `boot_time_s` later — the
        // simulator models boot independently of whatever the planner
        // assumed, so a plan that fails to wait out boot diverges here.
        for vm in &self.schedule.vms {
            let ready_at = vm.meter.start + self.platform.boot_time_s;
            st.queue.push(ready_at, Ev::VmReady(vm.id));
        }

        while let Some(mut te) = st.queue.pop() {
            match te.event {
                Ev::VmReady(vm) => {
                    processed += 1;
                    st.vm_booted[vm.index()] = true;
                    if trace_on {
                        obs::emit(|| obs::TraceEvent::VmBoot {
                            vm: vm.0,
                            time: te.time,
                        });
                    }
                    st.try_start(vm, te.time);
                }
                Ev::TaskFinish(task, vm) => {
                    processed += 1;
                    if trace_on {
                        obs::emit(|| obs::TraceEvent::TaskFinish {
                            task: task.index() as u32,
                            vm: vm.0,
                            time: te.time,
                        });
                    }
                    st.vm_busy[vm.index()] = false;
                    // Release successors: data ships to each consumer.
                    let first = arrivals.len();
                    for e in self.wf.successors(task) {
                        let dest_vm = placements[e.to.index()].vm;
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
                        // Checked as `push` would check it, so a bad
                        // transfer time panics at this edge.
                        let at = te.time + delay;
                        check_time(at);
                        arrivals.push((at, e.to));
                    }
                    let end = arrivals.len();
                    if end > first {
                        arrivals[first..].sort_by(|a, b| a.0.total_cmp(&b.0));
                        st.queue.push(
                            arrivals[first].0,
                            Ev::Arrivals {
                                from: task,
                                next: first,
                                end,
                            },
                        );
                    }
                    // The VM may start its next planned task.
                    st.try_start(vm, te.time);
                }
                Ev::Arrivals {
                    from,
                    mut next,
                    end,
                } => {
                    let from_vm = placements[from.index()].vm;
                    loop {
                        let to = arrivals[next].1;
                        processed += 1;
                        st.missing_inputs[to.index()] -= 1;
                        let vm = placements[to.index()].vm;
                        if trace_on && from_vm != vm {
                            obs::emit(|| obs::TraceEvent::TransferFinish {
                                from: from.index() as u32,
                                to: to.index() as u32,
                                time: te.time,
                            });
                        }
                        // Only a task's last input can make its VM's head
                        // startable (see the module docs).
                        if st.missing_inputs[to.index()] == 0 {
                            st.try_start(vm, te.time);
                        }
                        next += 1;
                        if next == end {
                            break;
                        }
                        if arrivals[next].0.total_cmp(&te.time).is_gt() {
                            te.time = arrivals[next].0;
                            te.event = Ev::Arrivals { from, next, end };
                            st.queue.requeue(te);
                            break;
                        }
                    }
                }
            }
        }

        let tasks: Vec<ObservedTask> = st
            .observed
            .into_iter()
            .enumerate()
            .map(|(i, o)| {
                o.unwrap_or(ObservedTask {
                    // Deadlocked tasks are reported with NaN so
                    // verify_against flags them as mismatches.
                    start: f64::NAN,
                    finish: f64::NAN,
                    vm: placements[i].vm,
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
