//! Side-by-side schedule comparison.
//!
//! A user choosing between two strategies wants one view of everything
//! that differs: time, money, fleet shape, utilization, and where each
//! task moved. [`compare`] produces that as data;
//! [`ScheduleComparison::render`] as text.

use crate::metrics::{RelativeMetrics, ScheduleMetrics};
use crate::schedule::Schedule;
use crate::state::KernelTables;
use crate::strategy::Strategy;
use cws_dag::Workflow;
use cws_platform::{InstanceType, Platform};
use std::fmt::Write as _;

/// The comparison of two schedules of the same workflow.
#[derive(Debug, Clone)]
pub struct ScheduleComparison {
    /// Label of the left schedule.
    pub left_label: String,
    /// Label of the right schedule.
    pub right_label: String,
    /// Metrics of the left schedule.
    pub left: ScheduleMetrics,
    /// Metrics of the right schedule.
    pub right: ScheduleMetrics,
    /// Right relative to left (gain/loss as in the paper's Fig. 4).
    pub right_vs_left: RelativeMetrics,
    /// VM counts by instance type: `[small, medium, large, xlarge]`,
    /// left then right.
    pub fleet: [[usize; 4]; 2],
    /// Utilization (busy/billed) of each side.
    pub utilization: [f64; 2],
    /// Number of tasks placed on different VM indices.
    pub moved_tasks: usize,
}

fn fleet_of(s: &Schedule) -> [usize; 4] {
    let mut f = [0usize; 4];
    for vm in &s.vms {
        let i = InstanceType::ALL
            .iter()
            .position(|&t| t == vm.itype)
            .expect("known type");
        f[i] += 1;
    }
    f
}

/// Compare two schedules of the same workflow.
///
/// # Panics
/// Panics if the schedules place different numbers of tasks.
#[must_use]
pub fn compare(
    wf: &Workflow,
    platform: &Platform,
    left: &Schedule,
    right: &Schedule,
) -> ScheduleComparison {
    assert_eq!(
        left.placements.len(),
        right.placements.len(),
        "schedules must cover the same workflow"
    );
    let lm = ScheduleMetrics::of(left, wf, platform);
    let rm = ScheduleMetrics::of(right, wf, platform);
    let moved = left
        .placements
        .iter()
        .zip(&right.placements)
        .filter(|(a, b)| a.vm != b.vm)
        .count();
    ScheduleComparison {
        left_label: left.strategy.clone(),
        right_label: right.strategy.clone(),
        left: lm,
        right: rm,
        right_vs_left: RelativeMetrics::vs(&rm, &lm),
        fleet: [fleet_of(left), fleet_of(right)],
        utilization: [left.utilization(), right.utilization()],
        moved_tasks: moved,
    }
}

/// Schedule both strategies and compare, sharing one [`KernelTables`]
/// build between the two sides.
///
/// Building the exec/bandwidth/latency tables is `O(V·T + R²)` per
/// schedule; a comparison needs them twice for the same
/// `(workflow, platform)` key, so this entry point builds them once and
/// lends them to both [`Strategy::schedule_with`] calls. Bit-identical
/// to scheduling each side independently.
#[must_use]
pub fn compare_strategies(
    wf: &Workflow,
    platform: &Platform,
    left: Strategy,
    right: Strategy,
) -> ScheduleComparison {
    let tables = KernelTables::build(wf, platform);
    let l = left.schedule_with(wf, platform, Some(&tables));
    let r = right.schedule_with(wf, platform, Some(&tables));
    compare(wf, platform, &l, &r)
}

impl ScheduleComparison {
    /// Render as aligned text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<22} {:>14} {:>14}",
            "", self.left_label, self.right_label
        );
        let row = |out: &mut String, name: &str, l: String, r: String| {
            let _ = writeln!(out, "{name:<22} {l:>14} {r:>14}");
        };
        row(
            &mut out,
            "makespan (s)",
            format!("{:.0}", self.left.makespan),
            format!("{:.0}", self.right.makespan),
        );
        row(
            &mut out,
            "cost (USD)",
            format!("{:.3}", self.left.cost),
            format!("{:.3}", self.right.cost),
        );
        row(
            &mut out,
            "idle (s)",
            format!("{:.0}", self.left.idle_seconds),
            format!("{:.0}", self.right.idle_seconds),
        );
        row(
            &mut out,
            "VMs (s/m/l/xl)",
            format!(
                "{}/{}/{}/{}",
                self.fleet[0][0], self.fleet[0][1], self.fleet[0][2], self.fleet[0][3]
            ),
            format!(
                "{}/{}/{}/{}",
                self.fleet[1][0], self.fleet[1][1], self.fleet[1][2], self.fleet[1][3]
            ),
        );
        row(
            &mut out,
            "utilization",
            format!("{:.0}%", self.utilization[0] * 100.0),
            format!("{:.0}%", self.utilization[1] * 100.0),
        );
        let _ = writeln!(
            out,
            "{:<22} gain {:+.1}%  loss {:+.1}%  ({} tasks placed differently)",
            "right vs left:",
            self.right_vs_left.gain_pct,
            self.right_vs_left.loss_pct,
            self.moved_tasks
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;
    use cws_dag::WorkflowBuilder;

    fn setup() -> (Workflow, Platform, Schedule, Schedule) {
        let p = Platform::ec2_paper();
        let mut b = WorkflowBuilder::new("w");
        let a = b.task("a", 500.0);
        let x = b.task("x", 900.0);
        let y = b.task("y", 700.0);
        b.edge(a, x).edge(a, y);
        let wf = b.build().unwrap();
        let left = Strategy::BASELINE.schedule(&wf, &p);
        let right = Strategy::parse("AllParExceed-m").unwrap().schedule(&wf, &p);
        (wf, p, left, right)
    }

    #[test]
    fn comparison_matches_individual_metrics() {
        let (wf, p, l, r) = setup();
        let c = compare(&wf, &p, &l, &r);
        assert_eq!(c.left_label, "OneVMperTask-s");
        assert_eq!(c.right_label, "AllParExceed-m");
        assert!((c.left.makespan - l.makespan()).abs() < 1e-9);
        assert!((c.right.cost - r.total_cost(&wf, &p)).abs() < 1e-12);
        assert!(
            c.right_vs_left.gain_pct > 0.0,
            "medium instances are faster"
        );
    }

    #[test]
    fn fleet_counts_by_type() {
        let (wf, p, l, r) = setup();
        let c = compare(&wf, &p, &l, &r);
        assert_eq!(c.fleet[0], [3, 0, 0, 0]);
        assert_eq!(c.fleet[1].iter().sum::<usize>(), r.vm_count());
        assert_eq!(c.fleet[1][1], r.vm_count(), "all medium");
    }

    #[test]
    fn identical_schedules_move_nothing() {
        let (wf, p, l, _) = setup();
        let c = compare(&wf, &p, &l, &l);
        assert_eq!(c.moved_tasks, 0);
        assert!(c.right_vs_left.gain_pct.abs() < 1e-9);
    }

    #[test]
    fn render_contains_both_labels() {
        let (wf, p, l, r) = setup();
        let text = compare(&wf, &p, &l, &r).render();
        assert!(text.contains("OneVMperTask-s"));
        assert!(text.contains("AllParExceed-m"));
        assert!(text.contains("utilization"));
    }

    #[test]
    fn compare_strategies_matches_independent_schedules() {
        let (wf, p, l, r) = setup();
        let c = compare_strategies(
            &wf,
            &p,
            Strategy::BASELINE,
            Strategy::parse("AllParExceed-m").unwrap(),
        );
        let d = compare(&wf, &p, &l, &r);
        assert_eq!(c.left.makespan, d.left.makespan);
        assert_eq!(c.right.makespan, d.right.makespan);
        assert_eq!(c.right.cost, d.right.cost);
        assert_eq!(c.moved_tasks, d.moved_tasks);
    }

    #[test]
    #[should_panic(expected = "same workflow")]
    fn mismatched_schedules_rejected() {
        let (wf, p, l, _) = setup();
        let mut b = WorkflowBuilder::new("other");
        b.task("only", 10.0);
        let other = b.build().unwrap();
        let r = Strategy::BASELINE.schedule(&other, &p);
        let _ = compare(&wf, &p, &l, &r);
    }
}
