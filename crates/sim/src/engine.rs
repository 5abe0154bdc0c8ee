//! The replay engine: one pass in dependency order, or the event queue.
//!
//! A replay runs each task on the VM whose `tasks` list holds it, in
//! that list's order. A task starts once its VM has booted
//! (`meter.start + boot_time_s`), the VM's previous planned task has
//! finished and every input has arrived: the predecessor's finish plus
//! zero on the same VM, or plus the platform's transfer time across
//! VMs. Two engines compute this, and both report bit-identical times
//! and [`SimReport::events_processed`] (one per VM boot, per started
//! task and per out-edge of a started task).
//!
//! # The event queue
//!
//! Three kinds of event drive the queue engine: a VM finishes booting,
//! a task finishes, and a finished task's outputs arrive at its
//! successors. The outputs of one finished task travel as **one** heap
//! entry, an `Ev::Arrivals` batch, rather than one entry per edge:
//!
//! 1. On a task's finish, each successor's arrival time is computed,
//!    `TransferStart` is emitted in successor order, and the
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
//!   only a task's last arrival tries to start its VM — the VM its
//!   placement names.
//!
//! Each delivered arrival counts as one processed event. The queue
//! engine is the one that emits the replay's trace events, so it runs
//! whenever a trace sink is installed.
//!
//! # One pass in dependency order
//!
//! With no trace sink installed nothing reads the chronology. A plan
//! is *consistent* when every task sits in exactly one VM's `tasks`
//! list, the one at the position its placement names. A consistent
//! plan replays without the queue: Kahn's algorithm over the DAG's
//! edges plus each VM's planned chain, with a worklist of the VMs
//! whose next planned task has all its inputs, starts each task at the
//! latest, under `total_cmp`, of its VM's boot time, the VM's previous
//! finish and its inputs' arrivals.
//!
//! This is exact, not an approximation. In the queue engine a task of
//! a consistent plan can start only in the handler of its VM's boot,
//! of its VM's previous finish or of its own last arrival, since each
//! of those tries exactly that VM's head, and by the invariant above
//! it starts in whichever of them pops last, at that event's time: the
//! `total_cmp` maximum, which is the order the queue pops in. Each
//! arrival is delivered at its own time, so the pass's maximum is the
//! same value, bit for bit. A task the pass never reaches waits on a
//! predecessor or an earlier task of its VM that never starts, which
//! is exactly a task the queue deadlocks on. In an inconsistent plan a
//! last arrival tries a different VM's head than the one whose list
//! holds the task, and what starts then depends on the chronology, so
//! such a plan keeps the queue. The two engines share the perturbation
//! check, `check_time` on every boot, finish and arrival time, the
//! NaN fill, the makespan fold and the `sim.events_processed` counter.

use crate::queue::{check_time, EventQueue};
use crate::report::{ObservedTask, SimReport};
use cws_core::{Schedule, VmId};
use cws_dag::{TaskId, Workflow};
use cws_obs as obs;
use cws_platform::billing::{btus_for_span, BTU_EPSILON, BTU_SECONDS};
use cws_platform::{InstanceType, Platform, Region};

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

/// A consistent plan's VM lists, flattened: VM `v` runs
/// `order[first[v]..first[v + 1]]`, in that order.
struct Chains {
    order: Vec<TaskId>,
    first: Vec<usize>,
}

/// A task the one-pass replay has not started yet.
#[derive(Clone, Copy)]
struct Pending {
    /// Its latest input arrival so far.
    ready: f64,
    /// Its inputs still missing.
    missing: usize,
    /// The VM that runs it.
    vm: VmId,
}

/// The mutable state of one event-queue replay.
struct Replay<'s> {
    schedule: &'s Schedule,
    /// Effective duration per task.
    durations: &'s [f64],
    /// Per VM, the position in its planned task order of the next task
    /// to start.
    next_task: Vec<usize>,
    /// Inputs still missing per task.
    missing_inputs: Vec<usize>,
    vm_busy: Vec<bool>,
    vm_booted: Vec<bool>,
    observed: &'s mut [ObservedTask],
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
        self.observed[head.index()] = ObservedTask {
            start: now,
            finish: now + duration,
            vm,
        };
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
    ///
    /// With no trace sink installed, a consistent plan replays in one
    /// pass in dependency order; otherwise the event queue runs (see the
    /// module docs). Both give the same report, bit for bit.
    #[must_use]
    pub fn run_perturbed(&self, perturb: impl Fn(cws_dag::TaskId, f64) -> f64) -> SimReport {
        let placements = &self.schedule.placements;
        let links = self.links();
        // Planned duration through the perturbation hook.
        let durations: Vec<f64> = self
            .wf
            .ids()
            .map(|t| {
                let itype = links[placements[t.index()].vm.index()].1;
                let planned = itype.execution_time(self.wf.task(t).base_time);
                let d = perturb(t, planned);
                assert!(
                    d.is_finite() && d >= 0.0,
                    "perturbed duration must be finite and non-negative, got {d}"
                );
                d
            })
            .collect();
        // Tasks that never start keep NaN times, which verify_against
        // reports as a deadlock.
        let mut tasks: Vec<ObservedTask> = (0..self.wf.len())
            .map(|i| ObservedTask {
                start: f64::NAN,
                finish: f64::NAN,
                vm: placements[i].vm,
            })
            .collect();
        // Captured once per replay: a disabled trace costs one branch on
        // a local per event (same pattern as the kernel's flags).
        let trace_on = obs::trace_enabled();
        let chains = if trace_on {
            None
        } else {
            self.consistent_chains()
        };
        let processed = match chains {
            Some(chains) => self.replay_in_order(&chains, &links, &durations, &mut tasks),
            None => self.replay_events(&links, &durations, trace_on, &mut tasks),
        };

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

    /// When VM `v` finishes booting. Each VM starts booting when its
    /// rental opens (`meter.start` is the decision time) and becomes
    /// ready `boot_time_s` later — the simulator models boot
    /// independently of whatever the planner assumed, so a plan that
    /// fails to wait out boot diverges here.
    fn boot_ready(&self, v: usize) -> f64 {
        self.schedule.vms[v].meter.start + self.platform.boot_time_s
    }

    /// Each VM's network endpoint, indexed by VM.
    fn links(&self) -> Vec<(Region, InstanceType)> {
        self.schedule
            .vms
            .iter()
            .map(|vm| (vm.region, vm.itype))
            .collect()
    }

    /// Transfer delay of `data_mb` from VM index `from` to VM index `to`
    /// over `links`: zero on the same VM.
    fn delay(&self, links: &[(Region, InstanceType)], data_mb: f64, from: usize, to: usize) -> f64 {
        if from == to {
            0.0
        } else {
            self.platform
                .transfer_time_between(data_mb, links[from], links[to])
        }
    }

    /// The plan's VM lists as [`Chains`] when the plan is consistent:
    /// every task sits in exactly one VM's `tasks` list, the one at the
    /// position its placement names. `None` otherwise.
    fn consistent_chains(&self) -> Option<Chains> {
        let placements = &self.schedule.placements;
        let vms = &self.schedule.vms;
        let mut listed = vec![false; self.wf.len()];
        let mut order = Vec::with_capacity(self.wf.len());
        let mut first = Vec::with_capacity(vms.len() + 1);
        for (v, vm) in vms.iter().enumerate() {
            first.push(order.len());
            for &(t, _, _) in &vm.tasks {
                match listed.get_mut(t.index()) {
                    Some(seen) if !*seen && placements[t.index()].vm.index() == v => {
                        *seen = true;
                        order.push(t);
                    }
                    _ => return None,
                }
            }
        }
        first.push(order.len());
        (order.len() == listed.len()).then_some(Chains { order, first })
    }

    /// Replay a consistent plan in one pass in dependency order (see the
    /// module docs), writing each started task into `observed`, and
    /// return the number of events the queue would process.
    fn replay_in_order(
        &self,
        chains: &Chains,
        links: &[(Region, InstanceType)],
        durations: &[f64],
        observed: &mut [ObservedTask],
    ) -> usize {
        let wf = self.wf;
        let Chains { order, first } = chains;
        let vm_count = links.len();
        // What every in-edge of a task reads and writes, in one record.
        let mut pending: Vec<Pending> = wf
            .ids()
            .map(|t| Pending {
                ready: f64::NEG_INFINITY,
                missing: wf.predecessors(t).len(),
                vm: self.schedule.placements[t.index()].vm,
            })
            .collect();
        // Per VM, when its next task may start: its boot, then its
        // previous task's finish.
        let mut free: Vec<f64> = (0..vm_count)
            .map(|v| {
                let at = self.boot_ready(v);
                check_time(at);
                at
            })
            .collect();
        // Per VM, the position in `order` of its next task.
        let mut next: Vec<usize> = first[..vm_count].to_vec();
        let mut processed = vm_count;
        // VMs whose next task has all its inputs. A VM is listed when its
        // head's last input arrives, and its head stays until the VM is
        // popped, so it is never listed twice.
        let mut worklist: Vec<usize> = (0..vm_count)
            .filter(|&v| next[v] < first[v + 1] && pending[order[next[v]].index()].missing == 0)
            .collect();
        while let Some(v) = worklist.pop() {
            while next[v] < first[v + 1] {
                let task = order[next[v]];
                let i = task.index();
                let Pending { ready, missing, vm } = pending[i];
                if missing > 0 {
                    break;
                }
                next[v] += 1;
                let start = latest(free[v], ready);
                let finish = start + durations[i];
                check_time(finish);
                observed[i] = ObservedTask { start, finish, vm };
                free[v] = finish;
                let out = wf.successors(task);
                processed += 1 + out.len();
                for e in out {
                    let succ = &mut pending[e.to.index()];
                    let w = succ.vm.index();
                    let at = finish + self.delay(links, e.data_mb, v, w);
                    check_time(at);
                    succ.ready = latest(succ.ready, at);
                    succ.missing -= 1;
                    // This VM's own next task is taken by the loop.
                    if succ.missing == 0
                        && w != v
                        && next[w] < first[w + 1]
                        && order[next[w]] == e.to
                    {
                        worklist.push(w);
                    }
                }
            }
        }
        processed
    }

    /// Replay through the event queue, emitting the trace when
    /// `trace_on` (see the module docs), writing each started task into
    /// `observed`, and return the number of events processed.
    fn replay_events(
        &self,
        links: &[(Region, InstanceType)],
        durations: &[f64],
        trace_on: bool,
        observed: &mut [ObservedTask],
    ) -> usize {
        let vm_count = self.schedule.vms.len();
        let placements = &self.schedule.placements;

        let mut st = Replay {
            schedule: self.schedule,
            durations,
            next_task: vec![0; vm_count],
            missing_inputs: self
                .wf
                .ids()
                .map(|t| self.wf.predecessors(t).len())
                .collect(),
            vm_busy: vec![false; vm_count],
            vm_booted: vec![false; vm_count],
            observed,
            queue: EventQueue::new(),
        };
        // Every finished task's (arrival time, successor) pairs, one
        // slice per finish.
        let mut arrivals: Vec<(f64, TaskId)> = Vec::with_capacity(self.wf.edge_count());
        let mut processed = 0usize;

        for v in 0..vm_count {
            st.queue
                .push(self.boot_ready(v), Ev::VmReady(VmId(v as u32)));
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
                        let delay = self.delay(links, e.data_mb, vm.index(), dest_vm.index());
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
        processed
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
        for (v, vm) in self.schedule.vms.iter().enumerate() {
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
                        vm: v as u32,
                        btu: k,
                        time: at,
                    });
                    k += 1;
                }
            }
            let billed = btus_for_span(busy);
            let price = self.platform.price_in(vm.region, vm.itype);
            obs::emit(|| obs::TraceEvent::VmReclaim {
                vm: v as u32,
                time: end,
                billed_btus: billed,
                busy_s: busy,
                cost_usd: billed as f64 * price,
            });
        }
    }
}

/// The later of two event times in the queue's pop order (`total_cmp`).
fn latest(a: f64, b: f64) -> f64 {
    if a.total_cmp(&b).is_lt() {
        b
    } else {
        a
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

    /// The diamond on StartParExceed-s's one VM with its list reversed:
    /// the VM's head waits for inputs that never come, so nothing runs.
    fn deadlocked_diamond() -> (Workflow, Platform, Schedule) {
        let wf = diamond();
        let p = Platform::ec2_paper();
        let mut sched = cws_core::alloc::heft(
            &wf,
            &p,
            ProvisioningPolicy::StartParExceed,
            InstanceType::Small,
        );
        assert_eq!(sched.vm_count(), 1);
        sched.vms[0].tasks.reverse();
        (wf, p, sched)
    }

    #[test]
    fn deadlocked_replay_fails_verification() {
        let (wf, p, sched) = deadlocked_diamond();
        assert!(simulate(&wf, &p, &sched).makespan.is_nan());
        // `Schedule::validate` sorts a copy of each list, so the replay
        // is the check that sees the order.
        assert!(sched.validate(&wf, &p).is_ok());
        assert_eq!(
            crate::verify(&wf, &p, &sched, 1e-6).unwrap_err(),
            crate::VerifyError::Deadlock {
                stuck: wf.ids().collect()
            }
        );
    }

    #[test]
    fn utilization_skips_tasks_a_deadlock_never_ran() {
        let (wf, p, sched) = deadlocked_diamond();
        let report = simulate(&wf, &p, &sched);
        assert_eq!(report.vm_busy_seconds(1), vec![0.0]);
        assert_eq!(report.vm_utilization(1), vec![0.0]);
        assert_eq!(report.aggregate_utilization(1), 0.0);
    }

    /// A VM whose id is not its position replays like the plan it was
    /// relabelled from: placements, links and both replays index VMs by
    /// position. The validator still rejects the plan.
    #[test]
    fn misnumbered_vm_replays_by_position() {
        let wf = cws_workloads::montage_24();
        let p = Platform::ec2_paper();
        let plan = Strategy::BASELINE.schedule(&wf, &p);
        assert_eq!(plan.vms.len(), 24);
        let mut relabelled = plan.clone();
        relabelled.vms[0].id = VmId(29);
        assert_eq!(simulate(&wf, &p, &relabelled), simulate(&wf, &p, &plan));
        crate::verify(&wf, &p, &relabelled, 1e-6).unwrap();
        assert_eq!(
            relabelled.validate(&wf, &p),
            Err(cws_core::ScheduleError::InconsistentVmTasks(VmId(29)))
        );
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
