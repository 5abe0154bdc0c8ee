//! Spot-interruption replay: evictions, checkpoints and re-execution.
//!
//! A spot schedule is a normal static plan whose VMs may be reclaimed by
//! the market. This module closes the loop the planner's expectations
//! open ([`mod@cws_core::alloc::spot_heft`] *prices* the risk; this replay
//! *realizes* it):
//!
//! 1. Every VM samples its first interruption from the market's
//!    geometric hazard over its rented wall window
//!    ([`SpotMarket::sample_interruption`]), seeded per VM so the replay
//!    is deterministic for a given `(schedule, market, seed)` triple.
//! 2. Interruptions become [`VmFailure`]s and the checkpoint model is
//!    exactly [`failure_impact`](crate::failures::failure_impact): tasks checkpoint at their boundaries,
//!    so completed tasks are durable and the running/queued remainder
//!    of an evicted VM is lost.
//! 3. Lost work re-executes from the last checkpoint via [`recover`](crate::failures::recover) on
//!    fresh **on-demand** replacements (no second eviction), rented
//!    after the first eviction plus the platform's boot delay.
//!
//! Billing follows the workspace convention (busy-consumed BTUs): each
//! spot VM pays its *completed* busy seconds at the discounted price —
//! at least one BTU, an evicted-before-useful-work machine still billed
//! — and the recovery VMs pay on-demand prices inside [`recover`](crate::failures::recover).

use crate::engine::simulate;
use crate::failures::{failure_impact_from, recover_from, FailureImpact, Recovery, VmFailure};
use cws_core::Schedule;
use cws_dag::Workflow;
use cws_obs as obs;
use cws_platform::{billing::btus_for_span, InstanceType, Platform, SpotMarket};

/// Golden-ratio multiplier decorrelating per-VM interruption streams
/// from one run seed.
const VM_SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// The realized outcome of running a static plan on spot instances.
#[derive(Debug, Clone, PartialEq)]
pub struct SpotReplay {
    /// First interruption per evicted VM, in VM-id order.
    pub interruptions: Vec<VmFailure>,
    /// Which tasks completed before their VM was reclaimed.
    pub impact: FailureImpact,
    /// Re-execution of the lost tasks from their checkpoints; `None`
    /// when every task completed.
    pub recovery: Option<Recovery>,
    /// Realized makespan: the completed plan's, or the recovery tail's.
    pub makespan: f64,
    /// Spot rent for the completed busy time, USD.
    pub spot_cost_usd: f64,
    /// On-demand rent for the re-executed tasks, USD (0 when none).
    pub recovery_cost_usd: f64,
}

impl SpotReplay {
    /// Total realized cost: discounted spot rent plus on-demand recovery.
    #[must_use]
    pub fn total_cost_usd(&self) -> f64 {
        self.spot_cost_usd + self.recovery_cost_usd
    }

    /// Fraction of tasks that completed without re-execution.
    #[must_use]
    pub fn completion_rate(&self) -> f64 {
        self.impact.completion_rate()
    }
}

/// Replay `schedule` on `market`-priced spot instances, sampling one
/// interruption stream from `seed`, and re-executing lost tasks from
/// their checkpoints on on-demand VMs of `recovery_itype`.
///
/// Deterministic: per-VM interruptions are seeded by
/// `seed ⊕ (vm_id × φ64)`, so neither thread count nor VM iteration
/// order can change the outcome.
#[must_use]
pub fn replay_spot(
    wf: &Workflow,
    platform: &Platform,
    schedule: &Schedule,
    market: &SpotMarket,
    recovery_itype: InstanceType,
    seed: u64,
) -> SpotReplay {
    // 1. Sample each VM's first interruption over its rented window.
    //    The meter opens at decision time and the plan is boot-aware,
    //    so the window already contains the boot wait.
    let interruptions: Vec<VmFailure> = schedule
        .vms
        .iter()
        .filter_map(|vm| {
            let vm_seed = seed ^ (u64::from(vm.id.0)).wrapping_mul(VM_SEED_MIX);
            market
                .sample_interruption(vm.meter.span(), vm_seed)
                .map(|offset| VmFailure {
                    vm: vm.id,
                    at: vm.meter.start + offset,
                })
        })
        .collect();

    // 2. Checkpoint semantics: completed tasks are durable, the rest of
    //    an evicted VM's queue is lost. One replay feeds both the
    //    impact analysis and the recovery replan, so a recorded trace
    //    sees exactly one simulate per spot run.
    let report = simulate(wf, platform, schedule);
    let impact = failure_impact_from(wf, schedule, &report, &interruptions);

    // 3. Spot bill: completed busy seconds per VM at the discounted
    //    price (every rented VM pays at least one BTU).
    let mut completed_busy = vec![0.0f64; schedule.vms.len()];
    for t in wf.ids() {
        if impact.completed[t.index()] {
            let p = schedule.placement(t);
            completed_busy[p.vm.index()] += p.finish - p.start;
        }
    }
    let spot_cost_usd: f64 = schedule
        .vms
        .iter()
        .map(|vm| {
            let od = platform.price_in(vm.region, vm.itype);
            btus_for_span(completed_busy[vm.id.index()]) as f64 * market.price(od)
        })
        .sum();

    // 4. Re-execute lost tasks from the checkpoint on on-demand
    //    replacements, available one boot delay after the first eviction.
    let (recovery, makespan, recovery_cost_usd) = if impact.lost.is_empty() {
        (None, impact.completed_makespan, 0.0)
    } else {
        let first_eviction = interruptions
            .iter()
            .map(|f| f.at)
            .fold(f64::INFINITY, f64::min);
        let restart_at = first_eviction + platform.boot_time_s;
        let rec = recover_from(wf, platform, &report, &impact, restart_at, recovery_itype);
        (Some(rec), rec.recovered_makespan, rec.extra_cost)
    };

    if obs::metrics_enabled() {
        let reg = obs::MetricsRegistry::global();
        reg.counter(obs::metrics::names::SPOT_INTERRUPTIONS)
            .add(interruptions.len() as u64);
        reg.counter(obs::metrics::names::SPOT_RECOVERED_TASKS)
            .add(impact.lost.len() as u64);
    }

    SpotReplay {
        interruptions,
        impact,
        recovery,
        makespan,
        spot_cost_usd,
        recovery_cost_usd,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_core::Strategy;
    use cws_workloads::Scenario;

    fn setup() -> (Workflow, Platform, Schedule) {
        let p = Platform::ec2_paper();
        let wf = Scenario::Pareto { seed: 7 }.apply(&cws_workloads::montage_24());
        let s = Strategy::BASELINE.schedule(&wf, &p);
        (wf, p, s)
    }

    #[test]
    fn zero_hazard_replays_the_plan_at_spot_prices() {
        let (wf, p, s) = setup();
        let market = SpotMarket::new(0.3, 0.0);
        let r = replay_spot(&wf, &p, &s, &market, InstanceType::Small, 42);
        assert!(r.interruptions.is_empty());
        assert!(r.recovery.is_none());
        assert_eq!(r.completion_rate(), 1.0);
        assert!((r.makespan - s.makespan()).abs() < 1e-6);
        // Bill = the on-demand bill at the discount.
        let od: f64 = s
            .vms
            .iter()
            .map(|v| v.meter.cost(p.price_in(v.region, v.itype)))
            .sum();
        assert!((r.total_cost_usd() - 0.3 * od).abs() < 1e-9);
    }

    #[test]
    fn replays_are_deterministic_per_seed() {
        let (wf, p, s) = setup();
        let market = SpotMarket::new(0.3, 0.4);
        let a = replay_spot(&wf, &p, &s, &market, InstanceType::Small, 1337);
        let b = replay_spot(&wf, &p, &s, &market, InstanceType::Small, 1337);
        assert_eq!(a, b);
    }

    #[test]
    fn high_hazard_loses_work_and_recovery_finishes_it() {
        let (wf, p, s) = setup();
        let market = SpotMarket::new(0.3, 0.9);
        // Some seed in this range must evict a VM mid-plan.
        let evicted = (0..32)
            .map(|seed| replay_spot(&wf, &p, &s, &market, InstanceType::Small, seed))
            .find(|r| !r.impact.lost.is_empty())
            .expect("hazard 0.9 must evict at least one VM across 32 seeds");
        let rec = evicted.recovery.expect("lost tasks imply a recovery");
        assert_eq!(rec.recovery_vms, evicted.impact.lost.len());
        assert!(evicted.recovery_cost_usd > 0.0);
        assert!(evicted.makespan >= evicted.impact.completed_makespan);
        // Re-execution starts from the checkpoint, not from scratch:
        // completed tasks are never re-billed on-demand.
        let full_od_rerun: f64 = wf
            .ids()
            .map(|t| {
                btus_for_span(InstanceType::Small.execution_time(wf.task(t).base_time)) as f64
                    * p.price(InstanceType::Small)
            })
            .sum();
        assert!(evicted.recovery_cost_usd < full_od_rerun);
    }

    #[test]
    fn eviction_after_completion_costs_nothing_extra() {
        let (wf, p, s) = setup();
        let market = SpotMarket::new(0.3, 0.4);
        for seed in 0..64 {
            let r = replay_spot(&wf, &p, &s, &market, InstanceType::Small, seed);
            if r.impact.lost.is_empty() {
                assert!(r.recovery.is_none());
                assert_eq!(r.recovery_cost_usd, 0.0);
                assert!((r.makespan - s.makespan()).abs() < 1e-6);
                return;
            }
        }
        panic!("hazard 0.4 should leave some seed interruption-free or late");
    }

    #[test]
    fn recovery_waits_out_the_boot_delay() {
        // On a slow-boot platform the replacement fleet is not free to
        // start at the eviction instant: every re-executed task begins
        // at least one boot delay after the first eviction.
        let p = Platform::ec2_paper().with_boot_time(300.0);
        let wf = Scenario::Pareto { seed: 7 }.apply(&cws_workloads::montage_24());
        let s = Strategy::BASELINE.schedule(&wf, &p);
        let market = SpotMarket::new(0.3, 0.9);
        let r = (0..32)
            .map(|seed| replay_spot(&wf, &p, &s, &market, InstanceType::Small, seed))
            .find(|r| !r.impact.lost.is_empty())
            .expect("hazard 0.9 must evict at least one VM across 32 seeds");
        let first_eviction = r
            .interruptions
            .iter()
            .map(|f| f.at)
            .fold(f64::INFINITY, f64::min);
        assert!(
            r.makespan > first_eviction + 300.0,
            "recovery tail must clear the boot delay: makespan {} vs eviction {first_eviction}",
            r.makespan
        );
    }
}
