//! Degeneracy pin for spot-HEFT: on the degenerate market
//! (`price_fraction = 1.0`, `hourly_interruption_prob = 0.0`) both spot
//! terms vanish *exactly* — survival is exactly 1 and the retry-inflated
//! BTU price is exactly on-demand — so the strategy must produce
//! schedules **bit-identical** to plain min-EFT HEFT with a
//! cheapest-marginal-BTU tiebreak. The reference below re-derives that
//! plain scheduler from public builder APIs without touching
//! [`SpotMarket`], so any drift in the spot arithmetic (a lost `powf`
//! identity, a reordered tiebreak) breaks the comparison.

use cws_core::alloc::heft::heft_order;
use cws_core::alloc::spot_heft;
use cws_core::{Schedule, ScheduleBuilder, VmId};
use cws_dag::Workflow;
use cws_experiments::spot::spot_frontier;
use cws_experiments::ExperimentConfig;
use cws_platform::billing::btus_for_span;
use cws_platform::{InstanceType, Platform, SpotMarket};
use cws_workloads::random::{layered_dag, LayeredShape};
use cws_workloads::{montage_24, Scenario};
use proptest::prelude::*;

/// The market on which spot-HEFT must collapse to plain HEFT.
fn degenerate_market() -> SpotMarket {
    SpotMarket::new(1.0, 0.0)
}

/// `(finish, marginal_cost, fresh, vm)` lexicographic order, every
/// float compared with `total_cmp` — the exact tiebreak chain the spot
/// planner uses once its market terms are zero.
fn lex_lt(a: (f64, f64, u8, u32), b: (f64, f64, u8, u32)) -> bool {
    a.0.total_cmp(&b.0)
        .then(a.1.total_cmp(&b.1))
        .then(a.2.cmp(&b.2))
        .then(a.3.cmp(&b.3))
        .is_lt()
}

/// Plain min-EFT HEFT with a cheapest-marginal-BTU tiebreak, written
/// against the public [`ScheduleBuilder`] API and priced purely
/// on-demand. Labelled like the spot planner so whole schedules compare
/// with `==`.
fn reference_heft(wf: &Workflow, platform: &Platform, itype: InstanceType) -> Schedule {
    let region = platform.default_region;
    let od_btu = platform.price_in(region, itype);
    let mut sb = ScheduleBuilder::new(wf, platform);
    for task in heft_order(wf, platform, itype) {
        let exec = sb.exec_time(task, itype);
        let mut probe = sb.probe(task);
        let mut best = (
            probe.ready_fresh(itype, region) + platform.boot_time_s + exec,
            btus_for_span(exec) as f64 * od_btu,
            1u8,
            sb.vms().len() as u32,
        );
        let mut best_vm: Option<VmId> = None;
        for (i, vm) in sb.vms().iter().enumerate() {
            let start = probe.start_on(vm.id);
            let busy_before = vm.busy_seconds();
            let busy_after = busy_before + exec;
            let marginal = (btus_for_span(busy_after) - btus_for_span(busy_before)) as f64 * od_btu;
            let key = (start + exec, marginal, 0u8, i as u32);
            if lex_lt(key, best) {
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

fn arb_wf() -> impl proptest::strategy::Strategy<Value = Workflow> {
    (2usize..5, 1usize..4, 0.2f64..0.8, 0u64..300).prop_map(|(l, w, p, s)| {
        let wf = layered_dag(LayeredShape {
            levels: l,
            min_width: 1,
            max_width: w,
            edge_prob: p,
            seed: s,
        });
        Scenario::Pareto { seed: s }.apply(&wf)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn degenerate_spot_heft_is_plain_heft_on_random_dags(
        wf in arb_wf(),
        itype in (0usize..4).prop_map(|i| InstanceType::ALL[i]),
        boot in (0usize..3).prop_map(|i| [0.0f64, 97.0, 300.0][i]),
    ) {
        let p = Platform::ec2_paper().with_boot_time(boot);
        let spot = spot_heft(&wf, &p, &degenerate_market(), itype);
        let plain = reference_heft(&wf, &p, itype);
        prop_assert!(spot.validate(&wf, &p).is_ok());
        prop_assert_eq!(spot, plain);
    }
}

#[test]
fn degenerate_spot_heft_matches_on_pinned_seeds() {
    let p = Platform::ec2_paper();
    for seed in [7u64, 42, 1337] {
        let wf = Scenario::Pareto { seed }.apply(&montage_24());
        for itype in InstanceType::ALL {
            let spot = spot_heft(&wf, &p, &degenerate_market(), itype);
            let plain = reference_heft(&wf, &p, itype);
            assert_eq!(spot, plain, "seed {seed}, {}", itype.suffix());
        }
    }
}

#[test]
fn degenerate_frontier_is_identical_across_thread_counts() {
    // The whole experiment pipeline on the degenerate market: 23 plans,
    // zero evictions, and rows byte-equal between 1 and 8 workers for
    // each pinned seed.
    for seed in [7u64, 42, 1337] {
        let cfg = ExperimentConfig {
            seed,
            validate_with_sim: false,
            ..ExperimentConfig::default()
        };
        let one = spot_frontier(&cfg, &montage_24(), degenerate_market(), 1);
        let eight = spot_frontier(&cfg, &montage_24(), degenerate_market(), 8);
        assert_eq!(one, eight, "seed {seed}");
        assert!(one.iter().all(|r| r.evictions == 0));
    }
}
