//! Simulation results and plan-vs-replay verification.

use cws_core::{Schedule, VmId};
use cws_dag::TaskId;

/// Observed task execution interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservedTask {
    /// Start time.
    pub start: f64,
    /// Finish time.
    pub finish: f64,
    /// Host VM.
    pub vm: VmId,
}

/// The result of replaying a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Observed interval per task, indexed by [`TaskId::index`].
    pub tasks: Vec<ObservedTask>,
    /// Observed makespan.
    pub makespan: f64,
    /// Number of events processed.
    pub events_processed: usize,
}

/// A divergence between the plan and the replay.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// A task's observed interval differs from the plan.
    TaskMismatch {
        /// The diverging task.
        task: TaskId,
        /// Planned (start, finish).
        planned: (f64, f64),
        /// Observed (start, finish).
        observed: (f64, f64),
    },
    /// Observed makespan differs from the plan's.
    MakespanMismatch {
        /// Planned makespan.
        planned: f64,
        /// Observed makespan.
        observed: f64,
    },
    /// The replay deadlocked: some tasks never ran (plan orders tasks on
    /// a VM against their data dependencies).
    Deadlock {
        /// Tasks that never started.
        stuck: Vec<TaskId>,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::TaskMismatch {
                task,
                planned,
                observed,
            } => write!(
                f,
                "task {task}: planned [{}, {}], observed [{}, {}]",
                planned.0, planned.1, observed.0, observed.1
            ),
            VerifyError::MakespanMismatch { planned, observed } => {
                write!(f, "makespan planned {planned}, observed {observed}")
            }
            VerifyError::Deadlock { stuck } => {
                write!(f, "replay deadlocked; {} tasks never ran", stuck.len())
            }
        }
    }
}

impl std::error::Error for VerifyError {}

impl SimReport {
    /// Compare the replay against the plan.
    ///
    /// # Errors
    /// Returns [`VerifyError::Deadlock`] with every task that never ran
    /// (NaN times), in id order; otherwise the first diverging task or a
    /// makespan mismatch. A NaN difference counts as a divergence.
    pub fn verify_against(&self, schedule: &Schedule, tolerance: f64) -> Result<(), VerifyError> {
        let stuck: Vec<TaskId> = (0..self.tasks.len())
            .filter(|&i| self.tasks[i].start.is_nan())
            .map(|i| TaskId(i as u32))
            .collect();
        if !stuck.is_empty() {
            return Err(VerifyError::Deadlock { stuck });
        }
        let within = |observed: f64, planned: f64| (observed - planned).abs() <= tolerance;
        for (i, obs) in self.tasks.iter().enumerate() {
            let p = schedule.placements[i];
            if !within(obs.start, p.start) || !within(obs.finish, p.finish) {
                return Err(VerifyError::TaskMismatch {
                    task: TaskId(i as u32),
                    planned: (p.start, p.finish),
                    observed: (obs.start, obs.finish),
                });
            }
        }
        if !within(self.makespan, schedule.makespan()) {
            return Err(VerifyError::MakespanMismatch {
                planned: schedule.makespan(),
                observed: self.makespan,
            });
        }
        Ok(())
    }

    /// Observed busy seconds per VM (sum of task durations hosted).
    /// Tasks the replay deadlocked on (NaN times) add nothing.
    #[must_use]
    pub fn vm_busy_seconds(&self, vm_count: usize) -> Vec<f64> {
        let mut busy = vec![0.0; vm_count];
        for t in &self.tasks {
            if t.start.is_finite() && t.finish.is_finite() {
                busy[t.vm.index()] += t.finish - t.start;
            }
        }
        busy
    }

    /// Observed per-VM utilization: busy seconds over the billed BTU
    /// seconds implied by the observed busy time (`⌈busy/BTU⌉·BTU`).
    /// 1.0 means the VM's paid hours were fully used.
    #[must_use]
    pub fn vm_utilization(&self, vm_count: usize) -> Vec<f64> {
        self.vm_busy_seconds(vm_count)
            .into_iter()
            .map(|busy| {
                let billed =
                    cws_platform::billing::btus_for_span(busy) as f64 * cws_platform::BTU_SECONDS;
                busy / billed
            })
            .collect()
    }

    /// Aggregate utilization across all VMs: total busy over total
    /// billed.
    #[must_use]
    pub fn aggregate_utilization(&self, vm_count: usize) -> f64 {
        let busy = self.vm_busy_seconds(vm_count);
        let total_busy: f64 = busy.iter().sum();
        let total_billed: f64 = busy
            .iter()
            .map(|&b| cws_platform::billing::btus_for_span(b) as f64 * cws_platform::BTU_SECONDS)
            .sum();
        if total_billed == 0.0 {
            0.0
        } else {
            total_busy / total_billed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_seconds_aggregates_per_vm() {
        let r = SimReport {
            tasks: vec![
                ObservedTask {
                    start: 0.0,
                    finish: 10.0,
                    vm: VmId(0),
                },
                ObservedTask {
                    start: 10.0,
                    finish: 30.0,
                    vm: VmId(0),
                },
                ObservedTask {
                    start: 0.0,
                    finish: 5.0,
                    vm: VmId(1),
                },
            ],
            makespan: 30.0,
            events_processed: 0,
        };
        assert_eq!(r.vm_busy_seconds(2), vec![30.0, 5.0]);
    }

    #[test]
    fn utilization_tracks_btu_tails() {
        let r = SimReport {
            tasks: vec![
                ObservedTask {
                    start: 0.0,
                    finish: 1800.0, // half a BTU used
                    vm: VmId(0),
                },
                ObservedTask {
                    start: 0.0,
                    finish: 3600.0, // exactly one BTU
                    vm: VmId(1),
                },
            ],
            makespan: 3600.0,
            events_processed: 0,
        };
        let u = r.vm_utilization(2);
        assert!((u[0] - 0.5).abs() < 1e-12);
        assert!((u[1] - 1.0).abs() < 1e-12);
        // aggregate: 5400 busy / 7200 billed
        assert!((r.aggregate_utilization(2) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn verify_error_messages() {
        let e = VerifyError::MakespanMismatch {
            planned: 10.0,
            observed: 11.0,
        };
        assert!(e.to_string().contains("10"));
        let d = VerifyError::Deadlock {
            stuck: vec![TaskId(1), TaskId(2)],
        };
        assert!(d.to_string().contains("2 tasks"));
    }
}
