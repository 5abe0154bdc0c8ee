//! Heterogeneous-pool HEFT: classic min-EFT list scheduling over a
//! mixed-instance VM pool.
//!
//! The paper pairs HEFT with homogeneous provisioning (one instance type
//! per run). Classic HEFT, however, is *heterogeneous*: each task goes
//! to the machine minimizing its Earliest Finish Time. This module
//! provides that formulation for the cloud setting: the "machines" are
//! the already-rented VMs plus the option of renting a fresh VM of any
//! allowed type, optionally capped in pool size. It extends the
//! library's strategy space beyond the paper's 19 combinations and feeds
//! the Pareto-frontier analysis in [`crate::frontier`].

use super::ranking::{min_finish, rank_order_by};
use crate::schedule::Schedule;
use crate::state::ScheduleBuilder;
use cws_dag::Workflow;
use cws_platform::{InstanceType, Platform};

/// The VM pool a heterogeneous HEFT run may use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolSpec {
    /// Instance types a fresh VM may be rented as.
    pub rentable: Vec<InstanceType>,
    /// Maximum number of VMs ever rented (`None` = unlimited).
    pub max_vms: Option<usize>,
}

impl Default for PoolSpec {
    fn default() -> Self {
        PoolSpec {
            rentable: InstanceType::ALL.to_vec(),
            max_vms: None,
        }
    }
}

impl PoolSpec {
    /// A pool restricted to one type (degenerates towards the paper's
    /// homogeneous HEFT+OneVMperTask when `max_vms` is `None`).
    #[must_use]
    pub fn homogeneous(itype: InstanceType) -> Self {
        PoolSpec {
            rentable: vec![itype],
            max_vms: None,
        }
    }

    /// Mean speed-up over the rentable types — the cost basis for the
    /// heterogeneous HEFT rank ("average execution cost across
    /// machines").
    #[must_use]
    pub fn mean_speedup(&self) -> f64 {
        assert!(!self.rentable.is_empty(), "pool must allow some type");
        self.rentable.iter().map(|t| t.speedup()).sum::<f64>() / self.rentable.len() as f64
    }
}

/// Schedule `wf` with heterogeneous min-EFT HEFT over `pool`.
///
/// For every task (in upward-rank order computed with the pool's mean
/// execution cost) the candidates are: appending to any rented VM, or
/// renting a fresh VM of any allowed type (while the pool cap permits).
/// The candidate with the earliest finish time wins; ties prefer not
/// renting, then the cheaper type, then the lower VM id.
///
/// # Panics
/// Panics if the pool allows no instance type or caps the pool at zero.
#[must_use]
pub fn heft_pool(wf: &Workflow, platform: &Platform, pool: &PoolSpec) -> Schedule {
    assert!(!pool.rentable.is_empty(), "pool must allow some type");
    if let Some(cap) = pool.max_vms {
        assert!(cap >= 1, "pool cap must be at least 1");
    }
    let mean_speedup = pool.mean_speedup();
    // Rank with the mean execution cost and the slowest-link transfer
    // estimate (conservative), as classic HEFT prescribes.
    let order = rank_order_by(
        wf,
        |t| wf.task(t).base_time / mean_speedup,
        |e| platform.transfer_time(e.data_mb, InstanceType::Small, InstanceType::Small),
    );

    let mut sb = ScheduleBuilder::new(wf, platform);
    for task in order {
        let mut probe = sb.probe(task);
        // Candidate 1: best existing VM by finish time.
        let best_existing = min_finish(sb.vm_ids().map(|id| (id, probe.finish_on(id))));
        // Candidate 2: best fresh rental by finish time (cheapest on tie).
        let can_rent = pool.max_vms.is_none_or(|cap| sb.vms().len() < cap);
        let best_new = if can_rent {
            pool.rentable
                .iter()
                .map(|&t| {
                    let ready = probe.ready_fresh(t, platform.default_region);
                    let finish = ready + platform.boot_time_s + sb.exec_time(task, t);
                    (t, finish)
                })
                .min_by(|a, b| {
                    a.1.total_cmp(&b.1)
                        .then(a.0.price_multiplier().cmp(&b.0.price_multiplier()))
                })
        } else {
            None
        };
        drop(probe);

        match (best_existing, best_new) {
            (Some((vm, fe)), Some((t, fn_))) => {
                // Strictly-better fresh rental wins; ties keep the
                // existing VM (cheaper).
                if fn_ < fe - 1e-9 {
                    sb.place_on_new(task, t);
                } else {
                    sb.place_on(task, vm);
                }
            }
            (Some((vm, _)), None) => sb.place_on(task, vm),
            (None, Some((t, _))) => {
                sb.place_on_new(task, t);
            }
            (None, None) => unreachable!("an empty pool with no VMs cannot be capped out"),
        }
    }
    sb.build("HEFT-pool")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_dag::WorkflowBuilder;

    fn fork(width: usize) -> Workflow {
        let mut b = WorkflowBuilder::new("fork");
        let root = b.task("root", 500.0);
        for i in 0..width {
            let t = b.task(format!("p{i}"), 1000.0);
            b.edge(root, t);
        }
        b.build().unwrap()
    }

    #[test]
    fn unlimited_pool_parallelizes_wide_levels() {
        let wf = fork(6);
        let p = Platform::ec2_paper();
        let s = heft_pool(&wf, &p, &PoolSpec::default());
        s.validate(&wf, &p).unwrap();
        // min-EFT prefers fast fresh VMs: everything lands on xlarge
        assert!(s.vms.iter().all(|v| v.itype == InstanceType::XLarge));
        assert!(s.vm_count() >= 6);
    }

    #[test]
    fn capped_pool_respects_the_cap() {
        let wf = fork(8);
        let p = Platform::ec2_paper();
        let pool = PoolSpec {
            rentable: InstanceType::ALL.to_vec(),
            max_vms: Some(3),
        };
        let s = heft_pool(&wf, &p, &pool);
        s.validate(&wf, &p).unwrap();
        assert!(s.vm_count() <= 3);
    }

    #[test]
    fn capped_pool_is_slower_than_unlimited() {
        let wf = fork(8);
        let p = Platform::ec2_paper();
        let unlimited = heft_pool(&wf, &p, &PoolSpec::default());
        let capped = heft_pool(
            &wf,
            &p,
            &PoolSpec {
                rentable: InstanceType::ALL.to_vec(),
                max_vms: Some(2),
            },
        );
        assert!(capped.makespan() > unlimited.makespan());
    }

    #[test]
    fn homogeneous_small_pool_never_beats_xlarge_pool() {
        let wf = fork(4);
        let p = Platform::ec2_paper();
        let small = heft_pool(&wf, &p, &PoolSpec::homogeneous(InstanceType::Small));
        let xl = heft_pool(&wf, &p, &PoolSpec::homogeneous(InstanceType::XLarge));
        assert!(xl.makespan() < small.makespan());
        assert!(xl.rental_cost(&p) > small.rental_cost(&p));
    }

    #[test]
    fn ties_keep_existing_vms() {
        // A pure chain: after the first rental, appending to the same
        // xlarge VM always ties-or-beats a fresh xlarge (no transfer),
        // so exactly one VM is rented.
        let mut b = WorkflowBuilder::new("chain");
        let ids: Vec<_> = (0..5).map(|i| b.task(format!("t{i}"), 300.0)).collect();
        for w in ids.windows(2) {
            b.edge(w[0], w[1]);
        }
        let wf = b.build().unwrap();
        let p = Platform::ec2_paper();
        let s = heft_pool(&wf, &p, &PoolSpec::default());
        assert_eq!(s.vm_count(), 1);
        assert_eq!(s.strategy, "HEFT-pool");
    }

    #[test]
    fn mean_speedup_of_full_pool() {
        let pool = PoolSpec::default();
        assert!((pool.mean_speedup() - (1.0 + 1.6 + 2.1 + 2.7) / 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "pool must allow some type")]
    fn empty_pool_rejected() {
        let wf = fork(2);
        let p = Platform::ec2_paper();
        let _ = heft_pool(
            &wf,
            &p,
            &PoolSpec {
                rentable: vec![],
                max_vms: None,
            },
        );
    }

    #[test]
    #[should_panic(expected = "pool cap")]
    fn zero_cap_rejected() {
        let wf = fork(2);
        let p = Platform::ec2_paper();
        let _ = heft_pool(
            &wf,
            &p,
            &PoolSpec {
                rentable: vec![InstanceType::Small],
                max_vms: Some(0),
            },
        );
    }
}
