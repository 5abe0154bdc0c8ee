//! HCOC-style hybrid-cloud scheduling (Bittencourt & Madeira, the
//! paper's related work): keep work on the *private* cloud (already
//! owned, zero marginal cost) and burst path clusters to the *public*
//! cloud only when the deadline demands it, paying as little rent as
//! possible.
//!
//! Simplifications versus the original HCOC (documented here, tested
//! below): clusters come from the same b-level path clustering as
//! [`pch`](mod@super::pch); the escalation loop moves the most critical
//! private cluster to a public small VM, then upgrades public clusters
//! along the (re-computed) critical path — mirroring how this library's
//! CPA-Eager and SHEFT buy speed.

use super::heft::heft_order;
use crate::schedule::Schedule;
use crate::state::ScheduleBuilder;
use crate::vm::VmId;
use cws_dag::{critical_path, path_clusters, TaskId, Workflow};
use cws_platform::{InstanceType, Platform};

/// The privately-owned resource pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrivateCloud {
    /// Number of machines owned.
    pub machines: usize,
    /// Their (homogeneous) performance, expressed as the equivalent EC2
    /// instance type.
    pub itype: InstanceType,
}

/// Result of a hybrid scheduling run.
#[derive(Debug, Clone, PartialEq)]
pub struct HcocOutcome {
    /// The produced schedule (private + public VMs).
    pub schedule: Schedule,
    /// Ids of the private (free) VMs inside the schedule.
    pub private_vms: Vec<VmId>,
    /// Rent paid for the public VMs only, USD.
    pub public_cost: f64,
    /// Number of clusters burst to the public cloud.
    pub public_clusters: usize,
    /// Whether the deadline was met.
    pub met: bool,
}

#[derive(Debug, Clone)]
struct Config {
    /// Cluster → public instance type; `None` = stays private.
    public: Vec<Option<InstanceType>>,
}

/// Schedule `wf` on `private` machines, bursting to the public cloud of
/// `platform` until the makespan drops to `deadline` (or every cluster
/// is public at xlarge).
///
/// # Panics
/// Panics if the private pool is empty or the deadline is not positive.
#[must_use]
pub fn hcoc(
    wf: &Workflow,
    platform: &Platform,
    private: PrivateCloud,
    deadline: f64,
) -> HcocOutcome {
    assert!(private.machines >= 1, "private pool must have machines");
    assert!(
        deadline.is_finite() && deadline > 0.0,
        "deadline must be positive and finite, got {deadline}"
    );

    let clusters = path_clusters(
        wf,
        |t| private.itype.execution_time(wf.task(t).base_time),
        |e| platform.transfer_time(e.data_mb, private.itype, private.itype),
    );
    let mut cluster_of = vec![usize::MAX; wf.len()];
    for (ci, c) in clusters.iter().enumerate() {
        for &t in c {
            cluster_of[t.index()] = ci;
        }
    }

    let mut config = Config {
        public: vec![None; clusters.len()],
    };

    loop {
        let (schedule, private_vms) = build(wf, platform, private, &clusters, &cluster_of, &config);
        if schedule.makespan() <= deadline {
            return outcome(schedule, private_vms, platform, &config, true);
        }
        // Escalate along the effective-speed critical path.
        let speed_of = |t: TaskId| match config.public[cluster_of[t.index()]] {
            Some(it) => it,
            None => private.itype,
        };
        let cp = critical_path(
            wf,
            |t| speed_of(t).execution_time(wf.task(t).base_time),
            |e| platform.transfer_time(e.data_mb, speed_of(e.from), speed_of(e.to)),
        );
        let mut escalated = false;
        for &t in &cp.tasks {
            let ci = cluster_of[t.index()];
            match config.public[ci] {
                None => {
                    config.public[ci] = Some(InstanceType::Small);
                    escalated = true;
                    break;
                }
                Some(it) => {
                    if let Some(faster) = it.next_faster() {
                        config.public[ci] = Some(faster);
                        escalated = true;
                        break;
                    }
                }
            }
        }
        if !escalated {
            let (schedule, private_vms) =
                build(wf, platform, private, &clusters, &cluster_of, &config);
            return outcome(schedule, private_vms, platform, &config, false);
        }
    }
}

fn build(
    wf: &Workflow,
    platform: &Platform,
    private: PrivateCloud,
    _clusters: &[Vec<TaskId>],
    cluster_of: &[usize],
    config: &Config,
) -> (Schedule, Vec<VmId>) {
    let mut sb = ScheduleBuilder::new(wf, platform);
    let mut private_vms: Vec<VmId> = Vec::new();
    let mut public_vm_of_cluster: Vec<Option<VmId>> = vec![None; config.public.len()];

    for task in heft_order(wf, platform, private.itype) {
        let ci = cluster_of[task.index()];
        match config.public[ci] {
            Some(itype) => match public_vm_of_cluster[ci] {
                Some(vm) => sb.place_on(task, vm),
                None => {
                    let vm = sb.place_on_new(task, itype);
                    public_vm_of_cluster[ci] = Some(vm);
                }
            },
            None => {
                // Private pool: min-EFT over owned machines (one probe
                // for the whole pool), renting (for free) until the
                // pool cap is reached.
                let best_existing = {
                    let mut probe = sb.probe(task);
                    private_vms
                        .iter()
                        .map(|&vm| (vm, probe.finish_on(vm)))
                        .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0 .0.cmp(&b.0 .0)))
                };
                if private_vms.len() < private.machines {
                    // A fresh private machine is always at least as good
                    // as queueing behind one.
                    let vm = sb.place_on_new(task, private.itype);
                    private_vms.push(vm);
                } else {
                    // Reaching this branch implies private_vms is full,
                    // so the candidate pool cannot be empty.
                    // cws-lint: allow(unwrap-in-kernel)
                    let (vm, _) = best_existing.expect("pool is non-empty");
                    sb.place_on(task, vm);
                }
            }
        }
    }
    (sb.build("HCOC"), private_vms)
}

fn outcome(
    schedule: Schedule,
    private_vms: Vec<VmId>,
    platform: &Platform,
    config: &Config,
    met: bool,
) -> HcocOutcome {
    let public_cost = schedule
        .vms
        .iter()
        .filter(|v| !private_vms.contains(&v.id))
        .map(|v| v.meter.cost(platform.price_in(v.region, v.itype)))
        .sum();
    HcocOutcome {
        schedule,
        private_vms,
        public_cost,
        public_clusters: config.public.iter().filter(|p| p.is_some()).count(),
        met,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_dag::WorkflowBuilder;

    /// entry -> 4 parallel 2000s branches -> exit
    fn wide() -> Workflow {
        let mut b = WorkflowBuilder::new("wide");
        let e = b.task("e", 200.0);
        let x = b.task("x", 200.0);
        for i in 0..4 {
            let t = b.task(format!("p{i}"), 2000.0);
            b.edge(e, t).edge(t, x);
        }
        b.build().unwrap()
    }

    fn small_pool(n: usize) -> PrivateCloud {
        PrivateCloud {
            machines: n,
            itype: InstanceType::Small,
        }
    }

    #[test]
    fn loose_deadline_stays_fully_private_and_free() {
        let wf = wide();
        let p = Platform::ec2_paper();
        let out = hcoc(&wf, &p, small_pool(4), 1e6);
        assert!(out.met);
        assert_eq!(out.public_cost, 0.0);
        assert_eq!(out.public_clusters, 0);
        out.schedule.validate(&wf, &p).unwrap();
    }

    #[test]
    fn tight_deadline_bursts_to_public() {
        let wf = wide();
        let p = Platform::ec2_paper();
        // one private machine serializes ~8400s of work; demand ~2800s
        let out = hcoc(&wf, &p, small_pool(1), 2800.0);
        assert!(out.met, "public burst must meet the deadline");
        assert!(out.public_clusters >= 1);
        assert!(out.public_cost > 0.0);
        out.schedule.validate(&wf, &p).unwrap();
        assert!(out.schedule.makespan() <= 2800.0);
    }

    #[test]
    fn cost_grows_as_deadline_tightens() {
        let wf = wide();
        let p = Platform::ec2_paper();
        let loose = hcoc(&wf, &p, small_pool(1), 5000.0);
        let tight = hcoc(&wf, &p, small_pool(1), 2600.0);
        assert!(loose.met && tight.met);
        assert!(tight.public_cost >= loose.public_cost);
    }

    #[test]
    fn impossible_deadline_reports_unmet() {
        let wf = wide();
        let p = Platform::ec2_paper();
        // below the xlarge critical path floor
        let out = hcoc(&wf, &p, small_pool(1), 100.0);
        assert!(!out.met);
        out.schedule.validate(&wf, &p).unwrap();
    }

    #[test]
    fn bigger_private_pool_reduces_public_spend() {
        let wf = wide();
        let p = Platform::ec2_paper();
        let deadline = 3000.0;
        let tiny = hcoc(&wf, &p, small_pool(1), deadline);
        let big = hcoc(&wf, &p, small_pool(6), deadline);
        assert!(big.public_cost <= tiny.public_cost);
        assert!(big.met);
    }

    #[test]
    #[should_panic(expected = "private pool")]
    fn empty_pool_rejected() {
        let wf = wide();
        let p = Platform::ec2_paper();
        let _ = hcoc(&wf, &p, small_pool(0), 100.0);
    }
}
