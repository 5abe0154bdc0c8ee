//! `Schedule::validate` held to a test-local copy of the validator it
//! replaced. That copy bucketed the placements per VM and compared each
//! VM's recorded `(task, start, finish)` list with its bucket. Here it
//! reads each list's triples back from the placements, and its per-VM
//! sort keeps equal starts in list order instead of task-id order, the
//! one intended change: it lets a zero-runtime task and the task after
//! it on its VM start at the same instant.
//!
//! Plans come from every paper pairing on random layered DAGs, with
//! Pareto runtimes or with some tasks drawn to zero, declared in level
//! order or in reverse. Declared in reverse, a zero-runtime task and the
//! successor after it on its VM tie in start with the successor's id the
//! smaller, as in tests/data/zero-runtime.json. Up to three defects are
//! then applied: a list entry moved, dropped or duplicated, or a start
//! shifted (with its finish, or alone) or set to NaN. The two validators
//! must agree on the verdict for every plan, and on the error for every
//! plan with a single defect. A list edit on a plan with zero-runtime
//! tasks is the exception to the second: the copy checks a VM's
//! overlaps before its list, and where its list lacks a task that ties
//! another's start, no list order tells where that task belongs.

use cloud_workflow_sched::core::{ScheduleError, VmId};
use cloud_workflow_sched::prelude::*;
use cloud_workflow_sched::workloads::random::{layered_dag, LayeredShape};
use proptest::prelude::*;
// Both globs export a `Strategy` name (the scheduling enum and proptest's
// trait); the explicit import pins the unqualified name to the enum.
use cloud_workflow_sched::core::Strategy;
use proptest::strategy::Strategy as _;

/// The validator before VM lists held task ids, with the two changes
/// the module doc names.
fn reference_validate(
    s: &Schedule,
    wf: &Workflow,
    platform: &Platform,
) -> Result<(), ScheduleError> {
    const EPS: f64 = 1e-6;
    if s.placements.len() != wf.len() {
        return Err(ScheduleError::WrongTaskCount {
            expected: wf.len(),
            actual: s.placements.len(),
        });
    }
    for id in wf.ids() {
        let p = s.placements[id.index()];
        if p.vm.index() >= s.vms.len() {
            return Err(ScheduleError::UnknownVm(id, p.vm));
        }
        let vm = &s.vms[p.vm.index()];
        let expected = vm.itype.execution_time(wf.task(id).base_time);
        let actual = p.finish - p.start;
        let exact = p.start.is_finite() && p.finish.is_finite() && (actual - expected).abs() <= EPS;
        if !exact {
            return Err(ScheduleError::WrongDuration {
                task: id,
                actual,
                expected,
            });
        }
    }
    let mut by_vm: Vec<Vec<(TaskId, f64, f64)>> = vec![Vec::new(); s.vms.len()];
    for id in wf.ids() {
        let p = s.placements[id.index()];
        by_vm[p.vm.index()].push((id, p.start, p.finish));
    }
    for (v, vm) in s.vms.iter().enumerate() {
        let pos = |t: TaskId| vm.tasks.iter().position(|&u| u == t).unwrap_or(usize::MAX);
        let mut placed = std::mem::take(&mut by_vm[v]);
        placed.sort_by(|a, b| a.1.total_cmp(&b.1).then(pos(a.0).cmp(&pos(b.0))));
        for w in placed.windows(2) {
            let after = w[1].1 >= w[0].2 - EPS;
            if !after {
                return Err(ScheduleError::VmOverlap {
                    vm: VmId(v as u32),
                    a: w[0].0,
                    b: w[1].0,
                });
            }
        }
        let mut recorded: Vec<(TaskId, f64, f64)> = vm
            .tasks
            .iter()
            .map(|&t| {
                let p = s.placements[t.index()];
                (t, p.start, p.finish)
            })
            .collect();
        recorded.sort_by(|a, b| a.1.total_cmp(&b.1));
        if recorded.len() != placed.len()
            || recorded.iter().zip(&placed).any(|(r, p)| {
                let same = (r.1 - p.1).abs() <= EPS && (r.2 - p.2).abs() <= EPS;
                r.0 != p.0 || !same
            })
        {
            return Err(ScheduleError::InconsistentVmTasks(VmId(v as u32)));
        }
    }
    for id in wf.ids() {
        let p = s.placements[id.index()];
        let to_vm = &s.vms[p.vm.index()];
        for e in wf.predecessors(id) {
            let pp = s.placements[e.from.index()];
            let from_vm = &s.vms[pp.vm.index()];
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

/// `wf` with its tasks declared in reverse, so a task's successors
/// have smaller ids than it has.
fn declared_in_reverse(wf: &Workflow) -> Workflow {
    let flip = |t: TaskId| TaskId((wf.len() - 1 - t.index()) as u32);
    let mut b = WorkflowBuilder::new(wf.name());
    for i in (0..wf.len()).rev() {
        let t = wf.task(TaskId(i as u32));
        b.task(t.name.clone(), t.base_time);
    }
    for e in wf.edges() {
        b.data_edge(flip(e.from), flip(e.to), e.data_mb);
    }
    b.build().expect("a relabelled DAG")
}

/// A random layered DAG with Pareto runtimes, some of them set to zero
/// when `zeroed` is non-zero, declared in level order or in reverse.
fn arb_workflow() -> impl proptest::strategy::Strategy<Value = Workflow> {
    (
        2usize..6,
        1usize..6,
        0.05f64..0.9,
        0u64..1000,
        (0usize..2, 0u64..u64::MAX),
        0usize..2,
    )
        .prop_map(
            |(levels, max_width, edge_prob, seed, (zero, mask), reverse)| {
                let zeroed = if zero == 1 { mask } else { 0 };
                let wf = Scenario::Pareto { seed }.apply(&layered_dag(LayeredShape {
                    levels,
                    min_width: 1,
                    max_width,
                    edge_prob,
                    seed,
                }));
                let times: Vec<f64> = wf
                    .tasks()
                    .iter()
                    .enumerate()
                    .map(|(i, t)| {
                        if zeroed >> (i % 64) & 1 == 1 {
                            0.0
                        } else {
                            t.base_time
                        }
                    })
                    .collect();
                let wf = wf.with_base_times(&times);
                if reverse == 1 {
                    declared_in_reverse(&wf)
                } else {
                    wf
                }
            },
        )
}

/// One defect, chosen and placed by `kind` and `draw`. Returns whether
/// it edited a VM list (moving or dropping an entry that an earlier
/// defect already removed edits nothing).
fn tamper(s: &mut Schedule, kind: usize, draw: u64) -> bool {
    let pick = |n: usize, salt: u64| (draw.rotate_left(salt as u32 * 16) % n as u64) as usize;
    let vms = s.vms.len();
    let task = TaskId(pick(s.placements.len(), 0) as u32);
    // The task's first list entry, on any VM.
    let entry = (0..vms).find_map(|v| Some((v, s.vms[v].tasks.iter().position(|&t| t == task)?)));
    match (kind, entry) {
        // Move the entry to another position of any VM's list.
        (0, Some((v, at))) => {
            s.vms[v].tasks.remove(at);
            let to = pick(vms, 1);
            let list = &mut s.vms[to].tasks;
            list.insert(pick(list.len() + 1, 2), task);
            true
        }
        // Drop the entry.
        (1, Some((v, at))) => {
            s.vms[v].tasks.remove(at);
            true
        }
        (0 | 1, None) => false,
        // List it a second time.
        (2, _) => {
            let to = pick(vms, 1);
            let list = &mut s.vms[to].tasks;
            list.insert(pick(list.len() + 1, 2), task);
            true
        }
        // Shift the task in time, keeping or breaking its duration.
        (3 | 4, _) => {
            let delta = [-120.0, -1.0, -1e-7, 1e-7, 1.0, 120.0][pick(6, 1)];
            let p = &mut s.placements[task.index()];
            p.start += delta;
            if kind == 3 {
                p.finish += delta;
            }
            false
        }
        // A NaN start.
        _ => {
            s.placements[task.index()].start = f64::NAN;
            false
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn validate_matches_the_reference_validator(
        wf in arb_workflow(),
        pairing in 0usize..19,
        count in 0usize..4,
        defects in (
            (0usize..6, 0u64..u64::MAX),
            (0usize..6, 0u64..u64::MAX),
            (0usize..6, 0u64..u64::MAX),
        ),
    ) {
        let platform = Platform::ec2_paper();
        let mut s = Strategy::paper_set()[pairing].schedule(&wf, &platform);
        let zero_runtime = wf.tasks().iter().any(|t| t.base_time == 0.0);
        let mut list_edit = false;
        for &(kind, draw) in [defects.0, defects.1, defects.2].iter().take(count) {
            list_edit |= tamper(&mut s, kind, draw);
        }
        let got = s.validate(&wf, &platform);
        let want = reference_validate(&s, &wf, &platform);
        prop_assert_eq!(got.is_ok(), want.is_ok(), "{:?} vs {:?}", got, want);
        if count <= 1 && !(zero_runtime && list_edit) {
            // Debug text, so a NaN in `WrongDuration` compares equal.
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
    }
}
