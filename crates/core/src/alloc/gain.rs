//! Gain: greedy best speed-per-dollar upgrades under a budget.
//!
//! "Gain method is based on reducing the execution time of the task which
//! gives the best speed/cost improvement when a faster VM is deployed.
//! For this, the algorithm will compute a gain matrix where rows are
//! tasks and columns VM types. Each element is computed as follows:
//! `gain_ij = (execution_time_current − execution_time_new) /
//! (cost_new − cost_current)`. The task i with the greatest gain is
//! picked and its VM is upgraded to the one that provided the maximum
//! gain." (Sect. III-B). The budget is twice the HEFT + OneVMperTask
//! small-instance cost, per Sect. IV.

use super::cpa::{baseline_cost, schedule_one_vm_per_task_with};
use super::rent::{exec_and_rent_rows, RentLedger, N_TYPES};
use crate::schedule::Schedule;
use crate::state::KernelTables;
use cws_dag::{TaskId, Workflow};
use cws_platform::{billing::btus_for_span, InstanceType, Platform};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One entry of the gain matrix: upgrading `task` to `to` yields
/// `gain` seconds of speed-up per extra dollar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GainEntry {
    /// Row: the task to upgrade.
    pub task: cws_dag::TaskId,
    /// Column: the target instance type (strictly faster than current).
    pub to: InstanceType,
    /// `(ET_cur − ET_new) / (cost_new − cost_cur)`; infinite when the
    /// upgrade is free (BTU rounding can make a faster type cost the
    /// same).
    pub gain: f64,
}

/// Compute the gain matrix for the current type assignment. Entries with
/// no runtime improvement are omitted.
#[must_use]
pub fn gain_matrix(wf: &Workflow, platform: &Platform, types: &[InstanceType]) -> Vec<GainEntry> {
    let mut entries = Vec::new();
    for t in wf.ids() {
        let cur = types[t.index()];
        let et_cur = cur.execution_time(wf.task(t).base_time);
        let cost_cur = btus_for_span(et_cur) as f64 * platform.price(cur);
        for to in InstanceType::ALL {
            if to.speedup() <= cur.speedup() {
                continue;
            }
            let et_new = to.execution_time(wf.task(t).base_time);
            let cost_new = btus_for_span(et_new) as f64 * platform.price(to);
            let dt = et_cur - et_new;
            if dt <= 0.0 {
                continue;
            }
            let dc = cost_new - cost_cur;
            let gain = if dc <= 0.0 { f64::INFINITY } else { dt / dc };
            entries.push(GainEntry { task: t, to, gain });
        }
    }
    entries
}

/// A [`GainEntry`] plus the version of its task's row, ordered exactly
/// as the sorted matrix scan visits entries: descending gain, then
/// ascending task id, then ascending target speedup. A max-heap of these
/// therefore pops candidates in the same sequence a fresh
/// sort-the-whole-matrix pass would, and entries whose task has been
/// upgraded since they were pushed are recognized (and dropped) by their
/// stale version.
struct RankedEntry {
    gain: f64,
    task: TaskId,
    to: InstanceType,
    version: u32,
}

impl PartialEq for RankedEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for RankedEntry {}
impl PartialOrd for RankedEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RankedEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .total_cmp(&other.gain)
            .then(other.task.0.cmp(&self.task.0))
            .then(other.to.speedup().total_cmp(&self.to.speedup()))
    }
}

/// Push the gain-matrix row of one task (at its current type `cur`)
/// computed from the hoisted per-type tables — the same entries, in the
/// same float arithmetic, as [`gain_matrix`] emits for that task.
fn push_row(
    heap: &mut BinaryHeap<RankedEntry>,
    task: TaskId,
    cur: InstanceType,
    et_row: &[f64; N_TYPES],
    term_row: &[f64; N_TYPES],
    version: u32,
) {
    let et_cur = et_row[cur as usize];
    let cost_cur = term_row[cur as usize];
    for to in InstanceType::ALL {
        if to.speedup() <= cur.speedup() {
            continue;
        }
        let dt = et_cur - et_row[to as usize];
        if dt <= 0.0 {
            continue;
        }
        let dc = term_row[to as usize] - cost_cur;
        let gain = if dc <= 0.0 { f64::INFINITY } else { dt / dc };
        heap.push(RankedEntry {
            gain,
            task,
            to,
            version,
        });
    }
}

/// Run the Gain upgrade loop and return per-task instance types. Each
/// iteration takes the highest-gain applicable upgrade (ties towards the
/// smaller task id, then the slower target type — spend as little as
/// possible for the same gain) and applies it if the total
/// one-VM-per-task rent stays within `budget`.
///
/// Equivalent to recomputing and sorting the full [`gain_matrix`] every
/// iteration (the rows of unchanged tasks are bit-identical across
/// iterations, so a heap keyed on the sort order pops the same
/// sequence), but only the upgraded task's row is recomputed. The budget
/// check moves a running rent total by the trial's one changed term and
/// decides in O(1) when that total clears the limit by more than its
/// written-down float-error bound; a trial within the bound re-sums the
/// rent left to right, exactly as `one_vm_per_task_cost` does.
#[must_use]
pub fn gain_types(wf: &Workflow, platform: &Platform, budget: f64) -> Vec<InstanceType> {
    gain_types_with(wf, platform, budget, None)
}

/// [`gain_types`] borrowing the execution-time rows of shared
/// [`KernelTables`] (bit-identical entries) instead of rebuilding them.
#[must_use]
pub fn gain_types_with(
    wf: &Workflow,
    platform: &Platform,
    budget: f64,
    tables: Option<&KernelTables>,
) -> Vec<InstanceType> {
    #[cfg(any(test, feature = "naive"))]
    if crate::state::naive::reference_kernel_enabled() {
        return gain_types_reference(wf, platform, budget);
    }
    let (et, term) = exec_and_rent_rows(wf, platform, tables);
    let mut types = vec![InstanceType::Small; wf.len()];
    let mut rent = RentLedger::new(term.iter().map(|row| row[0]).collect(), budget);
    let mut versions = vec![0u32; wf.len()];
    let mut heap = BinaryHeap::with_capacity((N_TYPES - 1) * wf.len());
    for t in wf.ids() {
        push_row(
            &mut heap,
            t,
            InstanceType::Small,
            &et[t.index()],
            &term[t.index()],
            0,
        );
    }
    let mut tried: Vec<RankedEntry> = Vec::new();
    loop {
        tried.clear();
        let mut applied = None;
        while let Some(e) = heap.pop() {
            let i = e.task.index();
            if versions[i] != e.version {
                continue;
            }
            if rent.fits(i, term[i][e.to as usize]) {
                applied = Some(e);
                break;
            }
            tried.push(e);
        }
        let Some(e) = applied else { return types };
        let i = e.task.index();
        types[i] = e.to;
        rent.set(i, term[i][e.to as usize]);
        versions[i] += 1;
        // Failed candidates stay candidates next iteration — except the
        // upgraded task's, whose row is recomputed at its new type.
        for t in tried.drain(..) {
            if versions[t.task.index()] == t.version {
                heap.push(t);
            }
        }
        push_row(&mut heap, e.task, e.to, &et[i], &term[i], versions[i]);
    }
}

/// The original upgrade loop, kept as the reference implementation:
/// recompute and sort the whole matrix every iteration and re-sum the
/// one-VM-per-task rent from scratch on every budget trial. The
/// `fastpath_tests` property suite proves [`gain_types`] equal to this,
/// and `cws-bench` measures the speedup against it.
#[cfg(any(test, feature = "naive"))]
fn gain_types_reference(wf: &Workflow, platform: &Platform, budget: f64) -> Vec<InstanceType> {
    use super::cpa::one_vm_per_task_cost;
    let mut types = vec![InstanceType::Small; wf.len()];
    loop {
        let mut entries = gain_matrix(wf, platform, &types);
        entries.sort_by(|a, b| {
            b.gain
                .total_cmp(&a.gain)
                .then(a.task.0.cmp(&b.task.0))
                .then(a.to.speedup().total_cmp(&b.to.speedup()))
        });
        let mut applied = false;
        for e in entries {
            let prev = types[e.task.index()];
            types[e.task.index()] = e.to;
            if one_vm_per_task_cost(wf, platform, &types) <= budget + 1e-9 {
                applied = true;
                break;
            }
            types[e.task.index()] = prev;
        }
        if !applied {
            return types;
        }
    }
}

/// Schedule `wf` with the Gain strategy under a budget of
/// `budget_multiplier × baseline_cost` (the paper uses 2).
#[must_use]
pub fn gain(wf: &Workflow, platform: &Platform, budget_multiplier: f64) -> Schedule {
    gain_with(wf, platform, budget_multiplier, None)
}

/// [`gain`] borrowing shared [`KernelTables`] when a sweep has them.
///
/// # Panics
/// Panics if `budget_multiplier < 1.0`.
#[must_use]
pub fn gain_with(
    wf: &Workflow,
    platform: &Platform,
    budget_multiplier: f64,
    tables: Option<&KernelTables>,
) -> Schedule {
    assert!(
        budget_multiplier >= 1.0,
        "budget multiplier must be at least 1, got {budget_multiplier}"
    );
    let budget = budget_multiplier * baseline_cost(wf, platform);
    let types = gain_types_with(wf, platform, budget, tables);
    schedule_one_vm_per_task_with(wf, platform, &types, "GAIN", tables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_dag::{TaskId, WorkflowBuilder};

    fn two_tasks() -> Workflow {
        let mut b = WorkflowBuilder::new("two");
        b.task("big", 3000.0);
        b.task("small", 600.0);
        b.build().unwrap()
    }

    #[test]
    fn matrix_rows_are_upgradeable_tasks() {
        let wf = two_tasks();
        let p = Platform::ec2_paper();
        let m = gain_matrix(&wf, &p, &[InstanceType::Small; 2]);
        // 2 tasks × 3 faster types
        assert_eq!(m.len(), 6);
        assert!(m.iter().all(|e| e.gain > 0.0));
    }

    #[test]
    fn matrix_gain_prefers_bigger_task_at_same_price_step() {
        let wf = two_tasks();
        let p = Platform::ec2_paper();
        let m = gain_matrix(&wf, &p, &[InstanceType::Small; 2]);
        let g_big = m
            .iter()
            .find(|e| e.task == TaskId(0) && e.to == InstanceType::Medium)
            .unwrap()
            .gain;
        let g_small = m
            .iter()
            .find(|e| e.task == TaskId(1) && e.to == InstanceType::Medium)
            .unwrap()
            .gain;
        assert!(
            g_big > g_small,
            "a longer task gains more seconds per dollar"
        );
    }

    #[test]
    fn upgraded_task_is_the_long_one_first() {
        let wf = two_tasks();
        let p = Platform::ec2_paper();
        // budget = baseline (0.16) + one medium upcharge (0.08): one step
        let types = gain_types(&wf, &p, 0.24);
        assert_eq!(types[0], InstanceType::Medium);
        assert_eq!(types[1], InstanceType::Small);
    }

    #[test]
    fn free_upgrades_via_btu_rounding_are_infinite_gain() {
        // 7000s on small = 2 BTU (0.16); on large 3333s = 1 BTU (0.32)…
        // find a case where cost does not grow: 7000s medium = 4375s =
        // 2 BTU × 0.16 = 0.32; large = 3333s = 1 BTU × 0.32 = 0.32 — the
        // medium→large step is free.
        let mut b = WorkflowBuilder::new("free");
        b.task("t", 7000.0);
        let wf = b.build().unwrap();
        let p = Platform::ec2_paper();
        let m = gain_matrix(&wf, &p, &[InstanceType::Medium]);
        let e = m.iter().find(|e| e.to == InstanceType::Large).unwrap();
        assert!(e.gain.is_infinite());
    }

    #[test]
    fn gain_schedule_validates_and_respects_budget() {
        let wf = two_tasks();
        let p = Platform::ec2_paper();
        let s = gain(&wf, &p, 2.0);
        s.validate(&wf, &p).unwrap();
        assert!(s.rental_cost(&p) <= 2.0 * baseline_cost(&wf, &p) + 1e-9);
        assert_eq!(s.strategy, "GAIN");
    }

    #[test]
    fn unlimited_budget_maxes_out_types() {
        let wf = two_tasks();
        let p = Platform::ec2_paper();
        let types = gain_types(&wf, &p, 1e6);
        assert!(types.iter().all(|&t| t == InstanceType::XLarge));
    }

    #[test]
    fn zero_headroom_budget_stays_small() {
        let wf = two_tasks();
        let p = Platform::ec2_paper();
        let types = gain_types(&wf, &p, baseline_cost(&wf, &p));
        assert!(types.iter().all(|&t| t == InstanceType::Small));
    }
}
