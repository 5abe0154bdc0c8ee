//! Virtual machine bookkeeping within a schedule.

use cws_dag::TaskId;
use cws_platform::{BtuMeter, InstanceType, Region};

/// Dense index of a VM inside its [`Schedule`](crate::schedule::Schedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(pub u32);

impl VmId {
    /// The VM's position as a `usize` for indexing side tables.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for VmId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// A rented VM and the tasks placed on it, in execution order.
///
/// A VM is its index in [`Schedule::vms`](crate::schedule::Schedule::vms):
/// [`VmId`] names that position, and each task's times live only in the
/// schedule's placements.
#[derive(Debug, Clone, PartialEq)]
pub struct Vm {
    /// Instance type (determines speed-up, price and link bandwidth).
    pub itype: InstanceType,
    /// Region the VM runs in.
    pub region: Region,
    /// Billing meter: rental window and busy seconds.
    pub meter: BtuMeter,
    /// Tasks executed on this VM, in the order they run.
    pub tasks: Vec<TaskId>,
}

impl Vm {
    /// Create a VM whose rental opens at `open_at` (the start of its
    /// first task; the paper's static setting pre-boots VMs for free).
    #[must_use]
    pub fn new(itype: InstanceType, region: Region, open_at: f64) -> Self {
        Vm {
            itype,
            region,
            meter: BtuMeter::open_at(open_at),
            tasks: Vec::new(),
        }
    }

    /// Time at which the VM becomes free (end of its last task, or rental
    /// start if nothing has run yet).
    #[must_use]
    pub fn available_at(&self) -> f64 {
        self.meter.end
    }

    /// Total seconds of task execution on this VM.
    #[must_use]
    pub fn busy_seconds(&self) -> f64 {
        self.meter.busy
    }

    /// Record the execution of `task` during `[start, end]`, after every
    /// task already on the VM.
    ///
    /// # Panics
    /// Panics if the interval starts before the previous task ends (VMs
    /// are serial: one task at a time) or is inverted.
    pub fn push_task(&mut self, task: TaskId, start: f64, end: f64) {
        let prev_end = self.meter.end;
        assert!(
            self.tasks.is_empty() || start >= prev_end - 1e-9,
            "task {task} starts at {start} before previous task ends at {prev_end}"
        );
        self.meter.record(start, end);
        self.tasks.push(task);
    }

    /// Whether running one more task of `duration` seconds keeps the VM
    /// within its currently-billed BTUs — the paper's "NotExceed" test:
    /// a reuse is refused when "the task execution time exceeds the
    /// remaining Billing Time Unit of a VM". Billing counts consumed
    /// execution time (see [`BtuMeter`]), so idle waiting gaps do not
    /// consume the budget.
    #[must_use]
    pub fn fits_without_new_btu(&self, duration: f64) -> bool {
        self.meter.fits_without_new_btu(duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_platform::BTU_SECONDS;

    fn vm() -> Vm {
        Vm::new(InstanceType::Small, Region::UsEastVirginia, 0.0)
    }

    #[test]
    fn display() {
        assert_eq!(VmId(3).to_string(), "vm3");
    }

    #[test]
    fn fresh_vm_is_available_at_open() {
        let v = Vm::new(InstanceType::Medium, Region::EuDublin, 50.0);
        assert_eq!(v.available_at(), 50.0);
        assert_eq!(v.busy_seconds(), 0.0);
    }

    #[test]
    fn push_task_advances_availability() {
        let mut v = vm();
        v.push_task(TaskId(0), 0.0, 100.0);
        v.push_task(TaskId(1), 150.0, 300.0);
        assert_eq!(v.available_at(), 300.0);
        assert!((v.busy_seconds() - 250.0).abs() < 1e-9);
        assert_eq!(v.tasks.len(), 2);
    }

    #[test]
    #[should_panic(expected = "before previous task ends")]
    fn overlapping_tasks_rejected() {
        let mut v = vm();
        v.push_task(TaskId(0), 0.0, 100.0);
        v.push_task(TaskId(1), 50.0, 200.0);
    }

    #[test]
    fn fit_test_within_first_btu() {
        let mut v = vm();
        v.push_task(TaskId(0), 0.0, 1000.0);
        // 1000s used of 3600: 2600 left.
        assert!(v.fits_without_new_btu(2600.0));
        assert!(!v.fits_without_new_btu(2601.0));
    }

    #[test]
    fn fit_test_ignores_idle_gaps() {
        // Billing follows consumed time: a gap before the next task does
        // not eat into the remaining BTU (the provisioner stops the VM at
        // the boundary and restarts it).
        let mut v = vm();
        v.push_task(TaskId(0), 0.0, 1000.0);
        v.push_task(TaskId(1), 3000.0, 3500.0); // 500s task after a gap
        assert!((v.busy_seconds() - 1500.0).abs() < 1e-9);
        assert!(v.fits_without_new_btu(2100.0));
        assert!(!v.fits_without_new_btu(2200.0));
    }

    #[test]
    fn fit_test_false_once_btu_consumed() {
        let mut v = vm();
        v.push_task(TaskId(0), 0.0, BTU_SECONDS);
        assert!(!v.fits_without_new_btu(1.0));
    }
}
