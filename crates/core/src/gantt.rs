//! ASCII Gantt rendering of schedules.
//!
//! Renders the per-VM timeline the paper's Fig. 1 sketches: one row per
//! VM, busy spans as task markers, idle paid-for time as `.`, BTU
//! boundaries as `|` on the scale row.

use crate::schedule::Schedule;
use crate::vm::VmId;
use cws_dag::Workflow;
use cws_platform::BTU_SECONDS;
use std::fmt::Write as _;

/// Render `schedule` as an ASCII Gantt chart, `width` characters wide.
///
/// Each VM row shows its tasks as repeated single-character markers
/// (`A`, `B`, … cycling for task indices), `.` for spans inside the
/// rental that carry no work, and spaces outside the rental. The header
/// carries a BTU ruler.
///
/// # Panics
/// Panics if `width < 10`.
#[must_use]
pub fn render(wf: &Workflow, schedule: &Schedule, width: usize) -> String {
    assert!(width >= 10, "need at least 10 columns, got {width}");
    let makespan = schedule.makespan().max(1e-9);
    let scale = width as f64 / makespan;
    let col = |t: f64| -> usize { ((t * scale).floor() as usize).min(width - 1) };
    let marker = |task_index: usize| -> char { char::from(b'A' + (task_index % 26) as u8) };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "schedule {:?}: makespan {:.0}s, {} VMs, {} BTUs",
        schedule.strategy,
        schedule.makespan(),
        schedule.vm_count(),
        schedule.total_btus()
    );

    // BTU ruler.
    let mut ruler = vec![b'-'; width];
    let mut t = 0.0;
    while t <= makespan {
        ruler[col(t)] = b'|';
        t += BTU_SECONDS;
    }
    let _ = writeln!(out, "{:>6} {}", "t/BTU", String::from_utf8_lossy(&ruler));

    for (v, vm) in schedule.vms.iter().enumerate() {
        let mut row = vec![b' '; width];
        // Paid-for span: from rental start over the billed BTUs' worth of
        // *busy* time laid along the actual window; mark the window
        // between first and last task as idle dots first.
        if !vm.tasks.is_empty() {
            let start = col(vm.meter.start);
            let end = col(vm.meter.end);
            for c in &mut row[start..=end] {
                *c = b'.';
            }
        }
        for &task in &vm.tasks {
            let m = marker(task.index()) as u8;
            let p = schedule.placement(task);
            let (cs, ce) = (col(p.start), col(p.finish));
            for c in &mut row[cs..=ce] {
                *c = m;
            }
        }
        let _ = writeln!(
            out,
            "{:>6} {} {}",
            VmId(v as u32).to_string(),
            String::from_utf8_lossy(&row),
            vm.itype.suffix()
        );
    }

    // Legend: task marker -> name (only up to 26 distinct markers).
    let _ = writeln!(out, "legend:");
    for t in wf.tasks().iter().take(26) {
        let _ = writeln!(out, "  {} = {}", marker(t.id.index()), t.name);
    }
    if wf.len() > 26 {
        let _ = writeln!(out, "  (markers repeat beyond 26 tasks)");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;
    use cws_dag::WorkflowBuilder;
    use cws_platform::Platform;

    fn wf() -> Workflow {
        let mut b = WorkflowBuilder::new("g");
        let a = b.task("first", 1000.0);
        let c = b.task("second", 2000.0);
        b.edge(a, c);
        b.build().unwrap()
    }

    #[test]
    fn renders_rows_per_vm() {
        let w = wf();
        let p = Platform::ec2_paper();
        let s = Strategy::BASELINE.schedule(&w, &p);
        let g = render(&w, &s, 60);
        assert!(g.contains("vm0"));
        assert!(g.contains("vm1"));
        assert!(g.contains("makespan 3000s"));
        assert!(g.contains("A = first"));
        assert!(g.contains("B = second"));
    }

    #[test]
    fn task_markers_appear_in_rows() {
        let w = wf();
        let p = Platform::ec2_paper();
        let s = Strategy::parse("StartParExceed-s")
            .unwrap()
            .schedule(&w, &p);
        let g = render(&w, &s, 60);
        // single VM carries both markers
        let vm_row = g
            .lines()
            .find(|l| l.trim_start().starts_with("vm0"))
            .unwrap();
        assert!(vm_row.contains('A'));
        assert!(vm_row.contains('B'));
    }

    #[test]
    fn ruler_marks_btu_boundaries() {
        let w = wf();
        let p = Platform::ec2_paper();
        let s = Strategy::BASELINE.schedule(&w, &p);
        let g = render(&w, &s, 80);
        let ruler = g.lines().nth(1).unwrap();
        assert!(ruler.matches('|').count() >= 1);
    }

    #[test]
    fn wide_marker_alphabet_cycles() {
        let mut b = WorkflowBuilder::new("many");
        for i in 0..30 {
            b.task(format!("t{i}"), 10.0);
        }
        let w = b.build().unwrap();
        let p = Platform::ec2_paper();
        let s = Strategy::parse("AllParExceed-s").unwrap().schedule(&w, &p);
        let g = render(&w, &s, 40);
        assert!(g.contains("markers repeat"));
    }

    #[test]
    #[should_panic(expected = "at least 10 columns")]
    fn narrow_width_rejected() {
        let w = wf();
        let p = Platform::ec2_paper();
        let s = Strategy::BASELINE.schedule(&w, &p);
        let _ = render(&w, &s, 5);
    }
}
