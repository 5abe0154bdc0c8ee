//! CPA-Eager: critical-path-driven speed upgrades under a budget.
//!
//! "CPA-Eager and Gain rely on the OneVMperTask provisioning method
//! during the initial schedule. Based on it they will attempt to increase
//! the speed of certain VMs according to their policies. CPA-Eager will
//! attempt to systematically increase the speed of VMs allocated to tasks
//! lying on the critical path." (Sect. III-B). The budget is a multiple
//! of the cost of HEFT + OneVMperTask on small instances — four times,
//! per Sect. IV.

use super::rent::{exec_and_rent_rows, RentLedger, N_TYPES};
use crate::schedule::Schedule;
use crate::state::{KernelTables, ScheduleBuilder};
use cws_dag::{TaskId, Workflow};
use cws_platform::{billing::btus_for_span, InstanceType, Platform};
use std::cmp::Ordering;

/// Per-task rental cost of a one-VM-per-task assignment: each task rents
/// its own VM for `ceil(exec / BTU)` BTUs at its type's price.
#[must_use]
pub fn one_vm_per_task_cost(wf: &Workflow, platform: &Platform, types: &[InstanceType]) -> f64 {
    assert_eq!(types.len(), wf.len(), "one type per task");
    wf.ids()
        .map(|t| {
            let et = types[t.index()].execution_time(wf.task(t).base_time);
            btus_for_span(et) as f64 * platform.price(types[t.index()])
        })
        .sum()
}

/// Materialize a one-VM-per-task assignment into a schedule: every task
/// on a fresh VM of its assigned type, visited in topological order.
#[must_use]
pub fn schedule_one_vm_per_task(
    wf: &Workflow,
    platform: &Platform,
    types: &[InstanceType],
    label: impl Into<String>,
) -> Schedule {
    schedule_one_vm_per_task_with(wf, platform, types, label, None)
}

/// [`schedule_one_vm_per_task`] borrowing shared [`KernelTables`] when a
/// sweep has them.
///
/// # Panics
/// Panics unless `types` has exactly one entry per task.
#[must_use]
pub fn schedule_one_vm_per_task_with(
    wf: &Workflow,
    platform: &Platform,
    types: &[InstanceType],
    label: impl Into<String>,
    tables: Option<&KernelTables>,
) -> Schedule {
    assert_eq!(types.len(), wf.len(), "one type per task");
    let mut sb = ScheduleBuilder::with_tables(wf, platform, tables);
    for &task in wf.topological_order() {
        sb.place_on_new(task, types[task.index()]);
    }
    sb.build(label)
}

/// The baseline cost every dynamic budget is a multiple of: HEFT +
/// OneVMperTask on small instances. (With one VM per task, HEFT's order
/// does not change the rent, so the per-task BTU sum is exact.)
#[must_use]
pub fn baseline_cost(wf: &Workflow, platform: &Platform) -> f64 {
    one_vm_per_task_cost(wf, platform, &vec![InstanceType::Small; wf.len()])
}

/// Run the CPA-Eager type-assignment loop and return the per-task
/// instance types. Starting from all-small, the critical path is
/// recomputed after every upgrade and the slowest critical task is
/// promoted one type step, as long as the total one-VM-per-task rent
/// stays within `budget`.
#[must_use]
pub fn cpa_eager_types(wf: &Workflow, platform: &Platform, budget: f64) -> Vec<InstanceType> {
    cpa_eager_types_with(wf, platform, budget, None)
}

/// [`cpa_eager_types`] borrowing the execution-time rows of shared
/// [`KernelTables`] (bit-identical entries) instead of rebuilding them.
#[must_use]
pub fn cpa_eager_types_with(
    wf: &Workflow,
    platform: &Platform,
    budget: f64,
    tables: Option<&KernelTables>,
) -> Vec<InstanceType> {
    #[cfg(any(test, feature = "naive"))]
    if crate::state::naive::reference_kernel_enabled() {
        return cpa_eager_types_reference(wf, platform, budget);
    }
    let (et, term) = exec_and_rent_rows(wf, platform, tables);
    let mut types = vec![InstanceType::Small; wf.len()];
    let mut ranks = Ranks::new(wf, platform, &et, &types);
    let mut rent = RentLedger::new(term.iter().map(|row| row[0]).collect(), budget);
    let entries = wf.entries();
    let mut candidates: Vec<(TaskId, InstanceType)> = Vec::new();
    loop {
        // Entry with the largest rank; `max_by` keeps the accumulator
        // only on Greater, so ties fall to the reversed-id order (the
        // smaller id wins), exactly as in `critical_path`.
        let mut start = entries[0];
        for &a in &entries[1..] {
            let ord = ranks.rank[start.index()]
                .total_cmp(&ranks.rank[a.index()])
                .then(a.0.cmp(&start.0));
            if ord != Ordering::Greater {
                start = a;
            }
        }
        // The upgradeable tasks on the path, in path order
        // (`cp.tasks` filtered), each with its next faster type.
        candidates.clear();
        let mut cur = Some(start);
        while let Some(t) = cur {
            if let Some(faster) = types[t.index()].next_faster() {
                candidates.push((t, faster));
            }
            cur = ranks.path_successor(t);
        }
        // Candidate upgrades on the critical path, slowest task first.
        candidates.sort_by(|(a, _), (b, _)| {
            let ea = et[a.index()][types[a.index()] as usize];
            let eb = et[b.index()][types[b.index()] as usize];
            eb.total_cmp(&ea).then(a.0.cmp(&b.0))
        });
        let Some(&(t, faster)) = candidates
            .iter()
            .find(|(t, faster)| rent.fits(t.index(), term[t.index()][*faster as usize]))
        else {
            return types;
        };
        let i = t.index();
        rent.set(i, term[i][faster as usize]);
        types[i] = faster;
        ranks.upgrade(i, &et, &types);
    }
}

/// Upward ranks under the current type assignment, kept bitwise equal to
/// what `cws_dag::upward_ranks` would compute from scratch, and updated
/// per upgrade only where they change.
///
/// `rank[i] = et[i] + tail[i]`, where `tail[i]` folds every successor
/// contribution `comm + rank[succ]` with `f64::max` from 0.0. Every rank
/// is at least +0.0, so no contribution is −0.0; `f64::max` skips NaN
/// and, over the other values, returns the largest one whatever the
/// order. A tail kept as a running maximum therefore holds the fold's
/// bits. `ties[i]` counts the contributions equal to `tail[i]`, so a
/// lowered contribution forces a refold only when it was the last of
/// them.
struct Ranks {
    rank: Vec<f64>,
    tail: Vec<f64>,
    ties: Vec<u32>,
    /// Successor CSR, each list sorted by target id, with the data size
    /// and the current `comm` per out-edge, and each out-edge's slot in
    /// its target's in-lane.
    succ_off: Vec<u32>,
    succ_to: Vec<u32>,
    out_data: Vec<f64>,
    out_comm: Vec<f64>,
    out_slot: Vec<u32>,
    /// In-lanes grouped by target: the source and a copy of the edge's
    /// `comm`, plus the out-edge each slot mirrors.
    in_off: Vec<u32>,
    in_src: Vec<u32>,
    in_comm: Vec<f64>,
    in_edge: Vec<u32>,
    /// Each task's position in the reverse topological order, where
    /// every predecessor sits after its successors, and that order.
    rev_pos: Vec<u32>,
    rev_order: Vec<u32>,
    /// Tasks whose tail moved or lost its last tie and whose rank still
    /// has to be refreshed, as a bitset over reverse-topological
    /// positions, and how many bits are set.
    dirty: Vec<u64>,
    pending: usize,
    bw: [[f64; N_TYPES]; N_TYPES],
    lat: f64,
    /// Every data size and the latency are `>= 0.0`, so every
    /// contribution is a non-negative number, never NaN or −0.0, and the
    /// tail is the largest contribution (or 0.0 with no successors).
    plain: bool,
}

impl Ranks {
    fn new(
        wf: &Workflow,
        platform: &Platform,
        et: &[[f64; N_TYPES]],
        types: &[InstanceType],
    ) -> Self {
        let n = wf.len();
        let mut bw = [[0.0; N_TYPES]; N_TYPES];
        for (i, &a) in InstanceType::ALL.iter().enumerate() {
            for (j, &b) in InstanceType::ALL.iter().enumerate() {
                bw[i][j] = platform.network.path_bandwidth_mbps(a, b);
            }
        }
        let lat = platform
            .network
            .path_latency_s(platform.default_region, platform.default_region);
        let mut succ_off = Vec::with_capacity(n + 1);
        let mut succ: Vec<(u32, f64)> = Vec::with_capacity(wf.edge_count());
        succ_off.push(0);
        for t in wf.ids() {
            let from = succ.len();
            succ.extend(wf.successors(t).iter().map(|e| (e.to.0, e.data_mb)));
            succ[from..].sort_unstable_by_key(|&(to, _)| to);
            succ_off.push(succ.len() as u32);
        }
        let succ_to: Vec<u32> = succ.iter().map(|&(to, _)| to).collect();
        let out_data: Vec<f64> = succ.iter().map(|&(_, d)| d).collect();
        drop(succ);
        let plain = lat >= 0.0 && out_data.iter().all(|&d| d >= 0.0);
        let mut in_off = vec![0u32; n + 1];
        for &to in &succ_to {
            in_off[to as usize + 1] += 1;
        }
        for i in 0..n {
            in_off[i + 1] += in_off[i];
        }
        let m = succ_to.len();
        let mut out_slot = vec![0u32; m];
        let mut in_src = vec![0u32; m];
        let mut in_edge = vec![0u32; m];
        let mut cursor = in_off.clone();
        for from in 0..n {
            for k in succ_off[from] as usize..succ_off[from + 1] as usize {
                let to = succ_to[k] as usize;
                let slot = cursor[to] as usize;
                cursor[to] += 1;
                out_slot[k] = slot as u32;
                in_src[slot] = from as u32;
                in_edge[slot] = k as u32;
            }
        }
        let order = wf.topological_order();
        let rev_order: Vec<u32> = order.iter().rev().map(|t| t.0).collect();
        let mut rev_pos = vec![0u32; n];
        for (pos, &t) in rev_order.iter().enumerate() {
            rev_pos[t as usize] = pos as u32;
        }
        let mut ranks = Ranks {
            rank: vec![0.0; n],
            tail: vec![0.0; n],
            ties: vec![0; n],
            succ_off,
            succ_to,
            out_data,
            out_comm: vec![0.0; m],
            out_slot,
            in_off,
            in_src,
            in_comm: vec![0.0; m],
            in_edge,
            rev_pos,
            rev_order,
            dirty: vec![0; n.div_ceil(64)],
            pending: 0,
            bw,
            lat,
            plain,
        };
        for k in 0..m {
            let slot = ranks.out_slot[k] as usize;
            let from = types[ranks.in_src[slot] as usize];
            let to = types[ranks.succ_to[k] as usize];
            ranks.set_comm(k, from, to);
        }
        for pos in 0..n {
            let i = ranks.rev_order[pos] as usize;
            ranks.refold(i);
            ranks.rank[i] = et[i][types[i] as usize] + ranks.tail[i];
        }
        ranks
    }

    /// Set both copies of out-edge `k`'s `comm` for a transfer between
    /// these types: `data_mb / bw + lat`, exactly what the reference's
    /// comm closure computes, and return it.
    fn set_comm(&mut self, k: usize, from: InstanceType, to: InstanceType) -> f64 {
        let c = self.out_data[k] / self.bw[from as usize][to as usize] + self.lat;
        self.out_comm[k] = c;
        self.in_comm[self.out_slot[k] as usize] = c;
        c
    }

    fn out_edges(&self, i: usize) -> std::ops::Range<usize> {
        self.succ_off[i] as usize..self.succ_off[i + 1] as usize
    }

    fn in_slots(&self, i: usize) -> std::ops::Range<usize> {
        self.in_off[i] as usize..self.in_off[i + 1] as usize
    }

    /// Recompute `tail[i]` and `ties[i]` from every successor. The
    /// selects stay branch-free: on distinct runtimes the running maximum
    /// moves unpredictably, and branches cost more than the arithmetic.
    fn refold(&mut self, i: usize) {
        let edges = self.out_edges(i);
        let (mut tail, mut ties) = (0.0_f64, 0u32);
        for (&comm, &to) in self.out_comm[edges.clone()]
            .iter()
            .zip(&self.succ_to[edges])
        {
            let c = comm + self.rank[to as usize];
            let above = c > tail;
            ties = if above {
                1
            } else {
                ties + u32::from(c == tail)
            };
            tail = if above { c } else { tail };
        }
        self.tail[i] = tail;
        self.ties[i] = ties;
    }

    /// One contribution to `p`'s tail went from `old` to `new`.
    fn note(&mut self, p: usize, old: f64, new: f64) {
        let tail = self.tail[p];
        if new > tail {
            self.tail[p] = new;
            self.ties[p] = 1;
            self.mark(p);
            return;
        }
        if new == tail {
            self.ties[p] += 1;
        }
        if old == tail {
            self.ties[p] -= 1;
            if self.ties[p] == 0 {
                self.mark(p);
            }
        }
    }

    fn mark(&mut self, p: usize) {
        let pos = self.rev_pos[p] as usize;
        let bit = 1u64 << (pos % 64);
        if self.dirty[pos / 64] & bit == 0 {
            self.dirty[pos / 64] |= bit;
            self.pending += 1;
        }
    }

    /// Task `i` was just upgraded to `types[i]`: refresh the `comm` of
    /// its edges, then every rank that changes, in reverse topological
    /// order from `i`.
    fn upgrade(&mut self, i: usize, et: &[[f64; N_TYPES]], types: &[InstanceType]) {
        for k in self.out_edges(i) {
            self.set_comm(k, types[i], types[self.succ_to[k] as usize]);
        }
        self.refold(i);
        let old = self.rank[i];
        let new = et[i][types[i] as usize] + self.tail[i];
        self.rank[i] = new;
        for slot in self.in_slots(i) {
            let p = self.in_src[slot] as usize;
            let before = self.in_comm[slot] + old;
            let c = self.set_comm(self.in_edge[slot] as usize, types[p], types[i]);
            self.note(p, before, c + new);
        }
        // A mark always lands after the position that set it, so one
        // forward scan from `i` visits every dirty task once, after all
        // of its successors.
        let mut pos = self.rev_pos[i] as usize + 1;
        while self.pending > 0 {
            let mut word = pos / 64;
            let mut bits = self.dirty[word] & (!0u64 << (pos % 64));
            while bits == 0 {
                word += 1;
                bits = self.dirty[word];
            }
            let bit = bits.trailing_zeros();
            self.dirty[word] &= !(1u64 << bit);
            pos = word * 64 + bit as usize;
            self.pending -= 1;
            let j = self.rev_order[pos] as usize;
            if self.ties[j] == 0 {
                self.refold(j);
            }
            let old = self.rank[j];
            let new = et[j][types[j] as usize] + self.tail[j];
            if new != old {
                self.rank[j] = new;
                for slot in self.in_slots(j) {
                    let c = self.in_comm[slot];
                    self.note(self.in_src[slot] as usize, c + old, c + new);
                }
            }
            pos += 1;
        }
    }

    /// The successor `cws_dag::critical_path` steps to from `t`: the
    /// largest `comm + rank`, ties to the smaller id. Under `plain` that
    /// is the first successor by id whose contribution equals the
    /// cached tail; otherwise, or if none does, the full argmax with the
    /// reference's comparator.
    fn path_successor(&self, t: TaskId) -> Option<TaskId> {
        let i = t.index();
        let edges = self.out_edges(i);
        let key = |k: usize| self.out_comm[k] + self.rank[self.succ_to[k] as usize];
        if self.plain {
            if let Some(k) = edges.clone().find(|&k| key(k) == self.tail[i]) {
                return Some(TaskId(self.succ_to[k]));
            }
        }
        let mut next: Option<(f64, u32)> = None;
        for k in edges {
            let (c, to) = (key(k), self.succ_to[k]);
            next = match next {
                Some((bk, bt)) if bk.total_cmp(&c).then(to.cmp(&bt)) == Ordering::Greater => {
                    Some((bk, bt))
                }
                _ => Some((c, to)),
            };
        }
        next.map(|(_, to)| TaskId(to))
    }
}

/// The original upgrade loop, kept as the reference implementation:
/// direct `execution_time` / `transfer_time` calls and a from-scratch
/// `one_vm_per_task_cost` re-sum on every budget trial. The
/// `fastpath_tests` property suite proves [`cpa_eager_types`] equal to
/// this, and `cws-bench` measures the speedup against it.
#[cfg(any(test, feature = "naive"))]
fn cpa_eager_types_reference(wf: &Workflow, platform: &Platform, budget: f64) -> Vec<InstanceType> {
    let mut types = vec![InstanceType::Small; wf.len()];
    loop {
        let cp = cws_dag::critical_path(
            wf,
            |t| types[t.index()].execution_time(wf.task(t).base_time),
            |e| platform.transfer_time(e.data_mb, types[e.from.index()], types[e.to.index()]),
        );
        let mut candidates: Vec<TaskId> = cp
            .tasks
            .iter()
            .copied()
            .filter(|t| types[t.index()].next_faster().is_some())
            .collect();
        candidates.sort_by(|a, b| {
            let ea = types[a.index()].execution_time(wf.task(*a).base_time);
            let eb = types[b.index()].execution_time(wf.task(*b).base_time);
            eb.total_cmp(&ea).then(a.0.cmp(&b.0))
        });
        let mut upgraded = false;
        for t in candidates {
            let faster = types[t.index()]
                .next_faster()
                // Candidates are pre-filtered to types with a faster tier.
                // cws-lint: allow(unwrap-in-kernel)
                .expect("filtered to upgradeable");
            let prev = types[t.index()];
            types[t.index()] = faster;
            if one_vm_per_task_cost(wf, platform, &types) <= budget + 1e-9 {
                upgraded = true;
                break;
            }
            types[t.index()] = prev;
        }
        if !upgraded {
            return types;
        }
    }
}

/// Schedule `wf` with CPA-Eager under a budget of
/// `budget_multiplier × baseline_cost` (the paper uses 4).
#[must_use]
pub fn cpa_eager(wf: &Workflow, platform: &Platform, budget_multiplier: f64) -> Schedule {
    cpa_eager_with(wf, platform, budget_multiplier, None)
}

/// [`cpa_eager`] borrowing shared [`KernelTables`] when a sweep has them.
///
/// # Panics
/// Panics if `budget_multiplier < 1.0`.
#[must_use]
pub fn cpa_eager_with(
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
    let types = cpa_eager_types_with(wf, platform, budget, tables);
    schedule_one_vm_per_task_with(wf, platform, &types, "CPA-Eager", tables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_dag::WorkflowBuilder;

    fn chain3() -> Workflow {
        let mut b = WorkflowBuilder::new("chain3");
        let a = b.task("a", 1000.0);
        let c = b.task("c", 2000.0);
        let d = b.task("d", 500.0);
        b.edge(a, c).edge(c, d);
        b.build().unwrap()
    }

    #[test]
    fn baseline_cost_counts_btus() {
        let wf = chain3();
        let p = Platform::ec2_paper();
        // all three tasks < 1 BTU on small
        assert!((baseline_cost(&wf, &p) - 0.24).abs() < 1e-12);
    }

    #[test]
    fn generous_budget_upgrades_whole_chain() {
        // A chain is always entirely critical.
        let wf = chain3();
        let p = Platform::ec2_paper();
        let types = cpa_eager_types(&wf, &p, 100.0);
        assert!(types.iter().all(|&t| t == InstanceType::XLarge));
    }

    #[test]
    fn tight_budget_changes_nothing() {
        let wf = chain3();
        let p = Platform::ec2_paper();
        let types = cpa_eager_types(&wf, &p, baseline_cost(&wf, &p));
        assert!(types.iter().all(|&t| t == InstanceType::Small));
    }

    #[test]
    fn upgrades_prefer_slowest_critical_task() {
        let wf = chain3();
        let p = Platform::ec2_paper();
        // budget for exactly one upgrade step: base 0.24 -> +0.08 = 0.32
        let types = cpa_eager_types(&wf, &p, 0.32);
        assert_eq!(types[1], InstanceType::Medium, "the 2000s task upgrades");
        assert_eq!(types[0], InstanceType::Small);
        assert_eq!(types[2], InstanceType::Small);
    }

    #[test]
    fn off_critical_tasks_stay_small() {
        // diamond where one branch is much longer
        let mut b = WorkflowBuilder::new("d");
        let a = b.task("a", 100.0);
        let long = b.task("long", 3000.0);
        let short = b.task("short", 100.0);
        let z = b.task("z", 100.0);
        b.edge(a, long).edge(a, short).edge(long, z).edge(short, z);
        let wf = b.build().unwrap();
        let p = Platform::ec2_paper();
        let types = cpa_eager_types(&wf, &p, 4.0 * baseline_cost(&wf, &p));
        assert_eq!(
            types[short.index()],
            InstanceType::Small,
            "short branch never critical"
        );
        assert_eq!(types[long.index()], InstanceType::XLarge);
    }

    #[test]
    fn cpa_schedule_validates_and_beats_baseline_makespan() {
        let wf = chain3();
        let p = Platform::ec2_paper();
        let base = schedule_one_vm_per_task(&wf, &p, &vec![InstanceType::Small; wf.len()], "base");
        let s = cpa_eager(&wf, &p, 4.0);
        s.validate(&wf, &p).unwrap();
        assert!(s.makespan() < base.makespan());
        assert_eq!(s.strategy, "CPA-Eager");
        assert_eq!(s.vm_count(), wf.len());
    }

    #[test]
    fn cost_stays_within_budget() {
        let wf = chain3();
        let p = Platform::ec2_paper();
        for mult in [1.0, 2.0, 4.0, 8.0] {
            let types = cpa_eager_types(&wf, &p, mult * baseline_cost(&wf, &p));
            assert!(one_vm_per_task_cost(&wf, &p, &types) <= mult * baseline_cost(&wf, &p) + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "budget multiplier")]
    fn sub_unit_multiplier_rejected() {
        let wf = chain3();
        let p = Platform::ec2_paper();
        let _ = cpa_eager(&wf, &p, 0.5);
    }
}
