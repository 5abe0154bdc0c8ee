//! Discrete-event cloud simulator.
//!
//! The paper evaluates its strategies on "a custom made simulator". This
//! crate rebuilds that component as a proper discrete-event engine: a
//! schedule (task → VM plan) is *replayed* — VMs boot, tasks wait for
//! their input transfers, execute serially per VM, and completion events
//! release successors. The simulator reports observed task times and VM
//! busy/idle windows; with a cws-obs trace sink installed it also emits
//! the replay's boot, task, transfer and billing events.
//!
//! A replay takes one of two paths ([`engine`] has the details). With a
//! trace sink installed, or for a plan whose VM lists fail
//! [`Schedule::check_vm_lists`](cws_core::Schedule::check_vm_lists), an
//! event queue replays the chronology, emitting the trace if a sink is
//! installed. Otherwise, with every task listed exactly once, on the VM
//! its placement names, one pass in dependency order walks the lists
//! and starts each task at the latest of its VM's boot, the VM's
//! previous finish and its inputs' arrivals. In the queue a task starts in the handler
//! of whichever of those events pops last, so both paths report the
//! same times, deadlocks and event count, bit for bit.
//!
//! Because the analytic [`ScheduleBuilder`](cws_core::ScheduleBuilder)
//! and this engine implement the same platform model, a valid schedule
//! replays to *exactly* its planned times; [`verify`] asserts that, and
//! the property tests in the workspace use it to cross-check every
//! strategy on every workload.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod failures;
pub mod jitter;
pub mod queue;
pub mod report;
pub mod spot;

pub use engine::{simulate, Simulator};
pub use failures::{
    failure_impact, failure_impact_from, recover, recover_from, FailureImpact, Recovery, VmFailure,
};
pub use jitter::{robustness, JitterModel, RobustnessReport};
pub use queue::{EventQueue, TimedEvent};
pub use report::{SimReport, VerifyError};
pub use spot::{replay_spot, SpotReplay};

use cws_core::Schedule;
use cws_dag::Workflow;
use cws_platform::Platform;

/// Replay `schedule` and check that the observed execution matches the
/// plan: same task start/finish times (within `tolerance` seconds) and
/// the same makespan.
///
/// # Examples
/// ```
/// use cws_core::Strategy;
/// use cws_platform::Platform;
/// use cws_workloads::{cstem, Scenario};
///
/// let platform = Platform::ec2_paper();
/// let wf = Scenario::Pareto { seed: 1 }.apply(&cstem());
/// let plan = Strategy::BASELINE.schedule(&wf, &platform);
/// let report = cws_sim::verify(&wf, &platform, &plan, 1e-6).unwrap();
/// assert_eq!(report.tasks.len(), wf.len());
/// ```
///
/// # Errors
/// Returns the first divergence found.
pub fn verify(
    wf: &Workflow,
    platform: &Platform,
    schedule: &Schedule,
    tolerance: f64,
) -> Result<SimReport, VerifyError> {
    let report = simulate(wf, platform, schedule);
    report.verify_against(schedule, tolerance)?;
    Ok(report)
}
