//! Spot-HEFT: checkpoint-aware list scheduling on an interruptible
//! (spot) market.
//!
//! The paper prices every rental on-demand; its closing discussion of
//! idle time points at Amazon's spot market as the natural extension.
//! This module walks tasks in HEFT's upward-rank order and, for each,
//! weighs every candidate host — any already-rented VM plus one fresh
//! rental — by *risk-adjusted* finish time and *hazard-inflated*
//! marginal cost:
//!
//! - **Eviction penalty.** Tasks checkpoint at their boundaries (the
//!   simulator's replay model: a completed task survives an
//!   interruption, a running one is lost). The expected rework added
//!   to a candidate is `(1 − survival(busy_after)) × min(exec, BTU)`
//!   — the chance the VM is reclaimed within its busy span so far,
//!   times the at-most-one-BTU of work the checkpoint bound loses.
//! - **Marginal BTU cost.** The BTUs the placement adds to the
//!   candidate's meter (a fresh rental pays its full first BTU),
//!   priced at the market's retry-inflated spot price
//!   `od × fraction / (1 − hazard)` ([`SpotMarket::expected_btu_price`]).
//!
//! Candidates order lexicographically by `(finish + penalty, marginal
//! cost, existing-before-fresh, VM id)` — every comparison
//! `total_cmp`, so the schedule is deterministic at any thread count.
//! With `price_fraction = 1` and `hourly_interruption_prob = 0` both
//! spot terms vanish *exactly* (survival is exactly 1, the inflated
//! price is exactly on-demand), and the strategy degenerates
//! bit-identically to plain min-EFT HEFT with a cheapest-marginal-BTU
//! tiebreak — the property the `spot_heft` proptest in
//! `cws-experiments` pins across seeds and thread counts.

use super::heft::heft_order;
use crate::schedule::Schedule;
use crate::state::{KernelTables, ScheduleBuilder};
use crate::vm::VmId;
use cws_dag::Workflow;
use cws_platform::billing::btus_for_span;
use cws_platform::{InstanceType, Platform, SpotMarket, BTU_SECONDS};

/// One scored candidate: the lexicographic key spot-HEFT minimizes.
#[derive(Debug, Clone, Copy)]
struct SpotKey {
    /// Risk-adjusted finish: planned finish plus expected rework.
    risk_finish: f64,
    /// Marginal BTUs added, priced at the hazard-inflated spot price.
    marginal_cost: f64,
    /// 0 for an existing VM, 1 for a fresh rental (prefer reuse on tie).
    fresh: u8,
    /// Final tiebreak: lower VM id (a fresh rental uses the next id).
    vm: u32,
}

impl SpotKey {
    fn better_than(&self, other: &SpotKey) -> bool {
        self.risk_finish
            .total_cmp(&other.risk_finish)
            .then(self.marginal_cost.total_cmp(&other.marginal_cost))
            .then(self.fresh.cmp(&other.fresh))
            .then(self.vm.cmp(&other.vm))
            .is_lt()
    }
}

/// Expected rework if the candidate VM is evicted: the probability the
/// market reclaims it within `busy_after` seconds of billed work, times
/// the at-most-one-checkpoint-interval of execution at risk.
fn eviction_penalty(market: &SpotMarket, busy_after: f64, exec: f64) -> f64 {
    let at_risk = exec.min(BTU_SECONDS);
    (1.0 - market.survival_probability(busy_after / BTU_SECONDS)) * at_risk
}

/// Schedule `wf` on a homogeneous fleet of spot instances of `itype`
/// rented on `market`, in HEFT's upward-rank order.
///
/// The returned schedule is labelled `"SpotHEFT-<suffix>"`. Start
/// estimates are boot-aware: a fresh rental's first task waits out
/// [`Platform::boot_time_s`] after its data is ready, exactly as
/// [`ScheduleBuilder::place_on_new`] commits it.
#[must_use]
pub fn spot_heft(
    wf: &Workflow,
    platform: &Platform,
    market: &SpotMarket,
    itype: InstanceType,
) -> Schedule {
    spot_heft_with(wf, platform, market, itype, None)
}

/// [`spot_heft`] borrowing shared [`KernelTables`] when a sweep has them.
#[must_use]
pub fn spot_heft_with(
    wf: &Workflow,
    platform: &Platform,
    market: &SpotMarket,
    itype: InstanceType,
    tables: Option<&KernelTables>,
) -> Schedule {
    let region = platform.default_region;
    let spot_btu = market.expected_btu_price(platform.price_in(region, itype));
    let mut sb = ScheduleBuilder::with_tables(wf, platform, tables);
    for task in heft_order(wf, platform, itype) {
        let exec = sb.exec_time(task, itype);
        let mut probe = sb.probe(task);

        // Fresh-rental candidate: boot-aware start, full first rental.
        let fresh_ready = probe.ready_fresh(itype, region);
        let fresh_finish = fresh_ready + platform.boot_time_s + exec;
        let mut best = SpotKey {
            risk_finish: fresh_finish + eviction_penalty(market, exec, exec),
            marginal_cost: btus_for_span(exec) as f64 * spot_btu,
            fresh: 1,
            vm: sb.vms().len() as u32,
        };
        let mut best_vm: Option<VmId> = None;

        for (i, vm) in sb.vms().iter().enumerate() {
            let finish = probe.start_on(vm.id) + exec;
            let busy_before = vm.busy_seconds();
            let busy_after = busy_before + exec;
            let marginal_btus = btus_for_span(busy_after) - btus_for_span(busy_before);
            let key = SpotKey {
                risk_finish: finish + eviction_penalty(market, busy_after, exec),
                marginal_cost: marginal_btus as f64 * spot_btu,
                fresh: 0,
                vm: i as u32,
            };
            if key.better_than(&best) {
                best = key;
                best_vm = Some(vm.id);
            }
        }
        drop(probe);

        match best_vm {
            Some(vm) => sb.place_on(task, vm),
            None => {
                sb.place_on_new(task, itype);
            }
        }
    }
    sb.build(format!("SpotHEFT-{}", itype.suffix()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_dag::WorkflowBuilder;

    fn diamond() -> Workflow {
        let mut b = WorkflowBuilder::new("diamond");
        let a = b.task("a", 100.0);
        let x = b.task("x", 200.0);
        let y = b.task("y", 300.0);
        let d = b.task("d", 100.0);
        b.edge(a, x).edge(a, y).edge(x, d).edge(y, d);
        b.build().unwrap()
    }

    #[test]
    fn schedules_validate_on_every_type_and_market() {
        let wf = diamond();
        let p = Platform::ec2_paper();
        for itype in InstanceType::ALL {
            for market in [
                SpotMarket::default(),
                SpotMarket::new(1.0, 0.0),
                SpotMarket::new(0.1, 0.5),
            ] {
                let s = spot_heft(&wf, &p, &market, itype);
                s.validate(&wf, &p)
                    .unwrap_or_else(|e| panic!("{}-{market:?}: {e}", itype.suffix()));
            }
        }
        let s = spot_heft(&wf, &p, &SpotMarket::default(), InstanceType::Small);
        assert_eq!(s.strategy, "SpotHEFT-s");
    }

    #[test]
    fn high_hazard_packs_work_onto_fewer_short_rentals() {
        // With an aggressive hazard, keeping a VM alive for long spans
        // is penalized: spot-HEFT must never rent *more* machines than
        // its zero-hazard twin needs for the same workflow.
        let mut b = WorkflowBuilder::new("fork");
        let root = b.task("root", 200.0);
        for i in 0..6 {
            let t = b.task(format!("p{i}"), 1500.0);
            b.edge(root, t);
        }
        let wf = b.build().unwrap();
        let p = Platform::ec2_paper();
        let calm = spot_heft(&wf, &p, &SpotMarket::new(1.0, 0.0), InstanceType::Small);
        let risky = spot_heft(&wf, &p, &SpotMarket::new(0.3, 0.6), InstanceType::Small);
        calm.validate(&wf, &p).unwrap();
        risky.validate(&wf, &p).unwrap();
        // The hazard penalty grows with accumulated busy time, so the
        // risky market spreads work across at least as many VMs.
        assert!(risky.vm_count() >= calm.vm_count());
    }

    #[test]
    fn eviction_penalty_vanishes_at_zero_hazard() {
        let m = SpotMarket::new(0.3, 0.0);
        assert_eq!(eviction_penalty(&m, 7200.0, 500.0), 0.0);
        let risky = SpotMarket::new(0.3, 0.5);
        assert!(eviction_penalty(&risky, 7200.0, 500.0) > 0.0);
        // The at-risk span is checkpoint-bounded by one BTU.
        let long = eviction_penalty(&risky, 10.0 * BTU_SECONDS, 5.0 * BTU_SECONDS);
        assert!(long <= BTU_SECONDS);
    }

    #[test]
    fn boot_time_is_charged_into_fresh_starts() {
        let wf = diamond();
        let p = Platform::ec2_paper().with_boot_time(120.0);
        let s = spot_heft(&wf, &p, &SpotMarket::default(), InstanceType::Small);
        s.validate(&wf, &p).unwrap();
        // The entry task's data is ready at 0; its start pays the boot.
        assert!((s.placements[0].start - 120.0).abs() < 1e-9);
    }
}
