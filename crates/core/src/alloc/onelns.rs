//! `AllPar1LnS` and `AllPar1LnSDyn`: parallelism-reducing level
//! schedulers (Sect. III-B).
//!
//! `AllPar1LnS` ("one long, n short") decreases task parallelism inside
//! each level by *sequentializing* sets of short tasks whose summed
//! length is at most the level's longest task. Each such set — a
//! **chain** — occupies a single VM; the long tasks keep their own VMs.
//! The provisioning follows `AllParNotExceed` and tasks inside a level
//! are ranked by descending execution time before packing.
//!
//! `AllPar1LnSDyn` additionally spends a per-level budget — the rent the
//! plain `AllParNotExceed` provisioning would pay for that level, i.e.
//! the worst case where every parallel task sits on its own VM — on
//! faster instance types: the longest task's VM is upgraded while it
//! still dictates the level makespan; when the makespan shifts to a
//! chain, that chain's VM is upgraded to push it back below the longest
//! task, rolling back to the last valid configuration when the budget
//! runs out.

use crate::schedule::Schedule;
use crate::state::{KernelTables, LevelIndex, ScheduleBuilder};
use cws_dag::{TaskId, Workflow};
use cws_platform::{billing::btus_for_span, InstanceType, Platform};

use super::levelpar::level_et_descending;

/// A set of same-level tasks serialized onto one VM.
#[derive(Debug, Clone, PartialEq)]
pub struct Chain {
    /// Tasks in execution order (descending execution time).
    pub tasks: Vec<TaskId>,
    /// Summed base execution time of the tasks.
    pub total: f64,
}

/// Reduce one level to chains: tasks are taken in descending execution
/// time; each task joins the first chain it fits into without pushing
/// the chain's total past the longest task's execution time, or opens a
/// new chain. The longest task therefore always sits alone in the first
/// chain (every other chain head would overflow with it), and long tasks
/// remain parallel.
///
/// This is the purely structural reduction; the schedulers use
/// [`reduce_level_scheduled`], which additionally refuses merges that
/// would stretch the level past its parallel completion horizon.
#[must_use]
pub fn reduce_level(wf: &Workflow, level: &[TaskId]) -> Vec<Chain> {
    reduce_level_with(wf, level, |_| 0.0)
}

/// Schedule-aware reduction ("the reduction is performed only after
/// tasks are scheduled", Sect. III-B): `ready` gives each task's data
/// readiness time from the already-placed earlier levels. A merge is
/// accepted only if (a) the chain's summed execution time stays within
/// the longest task's execution time (the 1LnS rule) and (b) the
/// serialized chain — executed in readiness order — still finishes by
/// the level's parallel completion horizon `max(ready + et)`, so the
/// reduction can never inflate the level makespan.
#[must_use]
pub fn reduce_level_scheduled(
    wf: &Workflow,
    level: &[TaskId],
    ready: impl Fn(TaskId) -> f64,
) -> Vec<Chain> {
    reduce_level_with(wf, level, ready)
}

fn reduce_level_with(wf: &Workflow, level: &[TaskId], ready: impl Fn(TaskId) -> f64) -> Vec<Chain> {
    const EPS: f64 = 1e-9;
    let order = level_et_descending(wf, level);
    let capacity = order.first().map(|&t| wf.task(t).base_time).unwrap_or(0.0);
    // The caller's readiness closure walks placed predecessors on every
    // call, and `chain_end` below consults it per merge trial — cache
    // one value per level task so each is computed exactly once.
    let mut ready_of = vec![0.0_f64; wf.len()];
    for &t in level {
        ready_of[t.index()] = ready(t);
    }
    let ready = |t: TaskId| ready_of[t.index()];
    let horizon = level
        .iter()
        .map(|&t| ready(t) + wf.task(t).base_time)
        .fold(0.0_f64, f64::max);
    // Serialized end of a chain executed in readiness order.
    let chain_end = |tasks: &[TaskId]| -> f64 {
        let mut by_ready = tasks.to_vec();
        by_ready.sort_by(|&a, &b| ready(a).total_cmp(&ready(b)).then(a.0.cmp(&b.0)));
        by_ready
            .iter()
            .fold(0.0_f64, |end, &t| end.max(ready(t)) + wf.task(t).base_time)
    };
    let mut chains: Vec<Chain> = Vec::new();
    // Runtime of the newest chain's head. Tasks arrive in descending
    // runtime, so it is the smallest head, and every chain's total is
    // at least its head (runtimes are non-negative and IEEE addition is
    // monotone): when `et` overflows even that, it overflows every
    // chain, and the first-fit scan would open a new one.
    let mut newest_head = f64::INFINITY;
    for t in order {
        let et = wf.task(t).base_time;
        let slot = if newest_head + et > capacity + EPS {
            None
        } else {
            chains.iter_mut().find(|c| {
                if c.total + et > capacity + EPS {
                    return false;
                }
                let mut merged = c.tasks.clone();
                merged.push(t);
                chain_end(&merged) <= horizon + EPS
            })
        };
        match slot {
            Some(c) => {
                c.tasks.push(t);
                c.total += et;
            }
            None => {
                newest_head = et;
                chains.push(Chain {
                    tasks: vec![t],
                    total: et,
                });
            }
        }
    }
    chains
}

/// Place the chains of one level, reusing existing VMs under
/// `AllParNotExceed` semantics: a chain may land on the busiest VM not
/// claimed by another chain of this level, if the whole chain fits in
/// the VM's already-paid BTUs (checked against the chain's summed
/// duration at the VM's speed); otherwise a fresh VM of `itype(chain)`
/// is rented. `in_level` is the schedule's one index, begun here.
fn place_level_chains(
    sb: &mut ScheduleBuilder<'_>,
    chains: &[Chain],
    in_level: &mut LevelIndex,
    itype_of: impl Fn(usize) -> InstanceType,
) {
    in_level.begin(sb);
    for (ci, chain) in chains.iter().enumerate() {
        let want = itype_of(ci);
        // Execute the chain's tasks in readiness order (earliest maximal
        // predecessor finish first). Chains are *formed* by descending
        // execution time, but running a late-ready task first would stall
        // the VM and inflate the level makespan past the longest task —
        // which the reduction promises not to do. Readiness is computed
        // once per task, not once per sort comparison.
        let mut keyed: Vec<(f64, TaskId)> = chain
            .tasks
            .iter()
            .map(|&t| (placed_ready(sb, t), t))
            .collect();
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1 .0.cmp(&b.1 .0)));
        let chain_order: Vec<TaskId> = keyed.into_iter().map(|(_, t)| t).collect();
        let first = chain_order[0];
        let candidate = sb.earliest_start_vm_in_level(first, in_level, Some(want), |_| true);
        let vm = match candidate {
            Some(vm) => {
                let duration: f64 = chain.tasks.iter().map(|&t| sb.exec_time(t, want)).sum();
                if sb.vm(vm).fits_without_new_btu(duration) {
                    vm
                } else {
                    sb.place_on_new(first, want)
                }
            }
            None => sb.place_on_new(first, want),
        };
        if sb.placement(first).is_none() {
            sb.place_on(first, vm);
        }
        // Both match arms above guarantee `first` was placed.
        // cws-lint: allow(unwrap-in-kernel)
        let vm = sb.placement(first).expect("first chain task placed").vm;
        for &t in &chain_order[1..] {
            sb.place_on(t, vm);
        }
        in_level.claim(vm);
    }
}

/// Data-readiness of a task given the already-placed earlier levels:
/// the maximum finish time over its predecessors.
fn placed_ready(sb: &ScheduleBuilder<'_>, t: TaskId) -> f64 {
    sb.workflow()
        .predecessors(t)
        .iter()
        .map(|e| {
            sb.placement(e.from)
                // Callers walk levels in topological order; predecessors
                // of the current level are always placed.
                // cws-lint: allow(unwrap-in-kernel)
                .expect("previous levels are placed")
                .finish
        })
        .fold(0.0_f64, f64::max)
}

/// Schedule `wf` with the `AllPar1LnS` strategy on small instances.
#[must_use]
pub fn all_par_1lns(wf: &Workflow, platform: &Platform) -> Schedule {
    all_par_1lns_with(wf, platform, None)
}

/// [`all_par_1lns`] borrowing shared [`KernelTables`] when a sweep has
/// them.
#[must_use]
pub fn all_par_1lns_with(
    wf: &Workflow,
    platform: &Platform,
    tables: Option<&KernelTables>,
) -> Schedule {
    let mut sb = ScheduleBuilder::with_tables(wf, platform, tables);
    let mut in_level = LevelIndex::new();
    for level in wf.levels() {
        let chains = reduce_level_scheduled(wf, level, |t| placed_ready(&sb, t));
        place_level_chains(&mut sb, &chains, &mut in_level, |_| InstanceType::Small);
    }
    sb.build("AllPar1LnS")
}

/// Per-level worst-case budget: what `AllParNotExceed` provisioning
/// would pay if every parallel task of the level sat on its own small
/// VM.
#[must_use]
pub fn level_budget(wf: &Workflow, platform: &Platform, level: &[TaskId]) -> f64 {
    let price = platform.price(InstanceType::Small);
    level
        .iter()
        .map(|&t| {
            btus_for_span(InstanceType::Small.execution_time(wf.task(t).base_time)) as f64 * price
        })
        .sum()
}

/// Cost of a chain configuration under the worst-case accounting (one
/// fresh VM per chain).
fn config_cost(platform: &Platform, chains: &[Chain], types: &[InstanceType]) -> f64 {
    chains
        .iter()
        .zip(types)
        .map(|(c, &t)| btus_for_span(t.execution_time(c.total)) as f64 * platform.price(t))
        .sum()
}

/// Duration of chain `c` under `types`.
fn chain_duration(chains: &[Chain], types: &[InstanceType], c: usize) -> f64 {
    types[c].execution_time(chains[c].total)
}

/// Pick instance types for the chains of one level within `budget`,
/// following the paper's `AllPar1LnSDyn` procedure. Returns one type per
/// chain.
#[must_use]
pub fn optimize_level_types(
    platform: &Platform,
    chains: &[Chain],
    budget: f64,
) -> Vec<InstanceType> {
    const EPS: f64 = 1e-9;
    let mut types = vec![InstanceType::Small; chains.len()];
    if chains.is_empty() {
        return types;
    }
    // The all-small configuration is valid by construction: every chain
    // total is at most the longest task, and merged BTUs never exceed the
    // per-task worst case.
    let mut snapshot = types.clone();

    // Try speeding up the longest task (chain 0) while one exists.
    while let Some(faster) = types[0].next_faster() {
        let mut candidate = types.clone();
        candidate[0] = faster;
        if config_cost(platform, chains, &candidate) > budget + EPS {
            break; // cannot afford: keep the last valid configuration
        }
        types = candidate;
        let d0 = chain_duration(chains, &types, 0);

        // If the makespan shifted to some other chain, buy it back below
        // the longest task.
        let mut failed = false;
        loop {
            let worst = (1..chains.len())
                .map(|c| (c, chain_duration(chains, &types, c)))
                .filter(|&(_, d)| d > d0 + EPS)
                .max_by(|a, b| a.1.total_cmp(&b.1));
            let Some((c, _)) = worst else { break };
            match types[c].next_faster() {
                Some(f) => {
                    let mut cand = types.clone();
                    cand[c] = f;
                    if config_cost(platform, chains, &cand) > budget + EPS {
                        failed = true;
                        break;
                    }
                    types = cand;
                }
                None => {
                    failed = true;
                    break;
                }
            }
        }
        if failed {
            break; // discard the over-budget attempt; snapshot holds the
                   // last valid configuration
        }
        snapshot = types.clone();
    }
    snapshot
}

/// Schedule `wf` with the `AllPar1LnSDyn` strategy: `AllPar1LnS`
/// parallelism reduction plus per-level budgeted speed upgrades.
#[must_use]
pub fn all_par_1lns_dyn(wf: &Workflow, platform: &Platform) -> Schedule {
    all_par_1lns_dyn_with(wf, platform, None)
}

/// [`all_par_1lns_dyn`] borrowing shared [`KernelTables`] when a sweep
/// has them.
#[must_use]
pub fn all_par_1lns_dyn_with(
    wf: &Workflow,
    platform: &Platform,
    tables: Option<&KernelTables>,
) -> Schedule {
    let mut sb = ScheduleBuilder::with_tables(wf, platform, tables);
    let mut in_level = LevelIndex::new();
    for level in wf.levels() {
        let chains = reduce_level_scheduled(wf, level, |t| placed_ready(&sb, t));
        let budget = level_budget(wf, platform, level);
        let types = optimize_level_types(platform, &chains, budget);
        place_level_chains(&mut sb, &chains, &mut in_level, |c| types[c]);
    }
    sb.build("AllPar1LnSDyn")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_dag::WorkflowBuilder;

    /// One level: tasks 1000, 400, 300, 300 — the three short ones chain
    /// to 1000 exactly.
    fn one_level() -> Workflow {
        let mut b = WorkflowBuilder::new("lvl");
        b.task("long", 1000.0);
        b.task("s1", 400.0);
        b.task("s2", 300.0);
        b.task("s3", 300.0);
        b.build().unwrap()
    }

    #[test]
    fn reduce_packs_shorts_under_longest() {
        let wf = one_level();
        let chains = reduce_level(&wf, &wf.levels()[0]);
        assert_eq!(chains.len(), 2);
        assert_eq!(chains[0].tasks, vec![TaskId(0)]);
        assert_eq!(chains[0].total, 1000.0);
        assert_eq!(chains[1].tasks.len(), 3);
        assert_eq!(chains[1].total, 1000.0);
    }

    #[test]
    fn reduce_keeps_long_tasks_parallel() {
        let mut b = WorkflowBuilder::new("two-long");
        b.task("l1", 1000.0);
        b.task("l2", 1000.0);
        b.task("s", 100.0);
        let wf = b.build().unwrap();
        let chains = reduce_level(&wf, &wf.levels()[0]);
        // l1 alone would be joined by nothing (1000+1000 > 1000); the
        // short task goes… l1's chain? 1000+100 > 1000 → l2's chain same
        // → own chain? No: capacity is 1000, chain l1 total 1000, so the
        // short opens a third chain? 1000 + 100 > 1000 → yes.
        assert_eq!(chains.len(), 3);
        assert_eq!(chains[2].tasks, vec![TaskId(2)]);
    }

    #[test]
    fn reduce_singleton_level() {
        let mut b = WorkflowBuilder::new("one");
        b.task("only", 123.0);
        let wf = b.build().unwrap();
        let chains = reduce_level(&wf, &wf.levels()[0]);
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].total, 123.0);
    }

    #[test]
    fn one_lns_schedule_is_valid_and_reduces_vms() {
        let wf = one_level();
        let p = Platform::ec2_paper();
        let s = all_par_1lns(&wf, &p);
        s.validate(&wf, &p).unwrap();
        assert_eq!(s.vm_count(), 2, "4 tasks but only 2 chains");
        // the chained VM serializes its three tasks
        assert!((s.makespan() - 1000.0).abs() < 0.01);
        assert_eq!(s.strategy, "AllPar1LnS");
    }

    #[test]
    fn level_budget_is_per_task_btus() {
        let wf = one_level();
        let p = Platform::ec2_paper();
        let b = level_budget(&wf, &p, &wf.levels()[0]);
        // each task < 1 BTU on small: 4 × 0.08
        assert!((b - 0.32).abs() < 1e-12);
    }

    #[test]
    fn optimizer_upgrades_within_budget() {
        let p = Platform::ec2_paper();
        let chains = vec![
            Chain {
                tasks: vec![TaskId(0)],
                total: 1000.0,
            },
            Chain {
                tasks: vec![TaskId(1), TaskId(2)],
                total: 900.0,
            },
        ];
        // generous budget: everything upgradeable to xlarge
        let types = optimize_level_types(&p, &chains, 10.0);
        assert_eq!(types[0], InstanceType::XLarge);
        // chain 1 needs upgrading only while it exceeds chain 0's
        // duration: 900/speed1 <= 1000/2.7=370 → speed1 >= 2.43 → xlarge.
        assert_eq!(types[1], InstanceType::XLarge);
    }

    #[test]
    fn optimizer_respects_budget() {
        let p = Platform::ec2_paper();
        let chains = vec![Chain {
            tasks: vec![TaskId(0)],
            total: 1000.0,
        }];
        // budget of exactly one small BTU: no upgrade affordable
        let types = optimize_level_types(&p, &chains, 0.08);
        assert_eq!(types, vec![InstanceType::Small]);
    }

    #[test]
    fn optimizer_keeps_longest_dominant() {
        let p = Platform::ec2_paper();
        let chains = vec![
            Chain {
                tasks: vec![TaskId(0)],
                total: 1000.0,
            },
            Chain {
                tasks: vec![TaskId(1)],
                total: 990.0,
            },
        ];
        // Budget allows chain0 -> medium (0.16) + chain1 small (0.08) =
        // 0.24, but not upgrading chain1 too (0.32 needed).
        let types = optimize_level_types(&p, &chains, 0.25);
        // upgrading chain0 to medium makes d0 = 625 < 990 = d1, and
        // chain1 cannot be upgraded within budget → rollback to all-small
        assert_eq!(types, vec![InstanceType::Small, InstanceType::Small]);
    }

    #[test]
    fn dyn_schedule_valid_and_no_slower_than_1lns() {
        let wf = one_level();
        let p = Platform::ec2_paper();
        let plain = all_par_1lns(&wf, &p);
        let dynv = all_par_1lns_dyn(&wf, &p);
        dynv.validate(&wf, &p).unwrap();
        assert!(dynv.makespan() <= plain.makespan() + 1e-9);
        assert_eq!(dynv.strategy, "AllPar1LnSDyn");
    }

    #[test]
    fn multi_level_dyn_is_valid() {
        let mut b = WorkflowBuilder::new("ml");
        let e = b.task("e", 500.0);
        let p1 = b.task("p1", 2000.0);
        let p2 = b.task("p2", 800.0);
        let p3 = b.task("p3", 700.0);
        let x = b.task("x", 300.0);
        b.edge(e, p1).edge(e, p2).edge(e, p3);
        b.edge(p1, x).edge(p2, x).edge(p3, x);
        let wf = b.build().unwrap();
        let p = Platform::ec2_paper();
        let s = all_par_1lns_dyn(&wf, &p);
        s.validate(&wf, &p).unwrap();
        // p2+p3 chain under p1; so at most: e-vm, p1-vm(+upgrades), chain vm
        assert!(s.vm_count() <= 3 + 1);
    }
}
