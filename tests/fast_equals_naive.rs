//! Fast kernel == naive reference kernel, at the workspace gate: all 19
//! paper pairings on three WfCommons shapes and an equal-runtime layered
//! DAG must build exactly the schedules `cws_core::state::naive` builds.
//! The fast side borrows one shared `KernelTables` per workflow, as
//! every sweep does. The crate's property suite covers random and small
//! shapes; this pins the larger pipeline, broadcast and join shapes the
//! kernel's shortcuts target, and the exact rank ties of equal runtimes.
//! The allocators outside the paper set that weigh every candidate VM
//! with one probe (spot-HEFT, Min-Min/Max-Min, insertion HEFT and pool
//! HEFT) are held to the same bar on the same workflows, insertion and
//! pool HEFT at a 120 s boot as well.

use cloud_workflow_sched::core::alloc::{
    heft_insertion, heft_pool, list_schedule, spot_heft_with, ListRule, PoolSpec,
};
use cloud_workflow_sched::core::state::naive;
use cloud_workflow_sched::core::{DynamicBudgets, KernelTables};
use cloud_workflow_sched::platform::SpotMarket;
use cloud_workflow_sched::prelude::*;
use cloud_workflow_sched::workloads::random::{layered_dag, LayeredShape};
use cloud_workflow_sched::workloads::{CyberShakeShape, EpigenomicsShape};

/// Run `f` on the naive reference kernel, switching back even on panic.
fn on_reference_kernel<T>(f: impl FnOnce() -> T) -> T {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            naive::set_reference_kernel(false);
        }
    }
    naive::set_reference_kernel(true);
    let _reset = Reset;
    f()
}

/// Three WfCommons shapes with Pareto runtimes and an equal-runtime
/// layered DAG.
fn workflows() -> [Workflow; 4] {
    let pareto = |wf: Workflow| Scenario::Pareto { seed: 42 }.apply(&wf);
    [
        pareto(epigenomics(EpigenomicsShape {
            lanes: 10,
            chunks_per_lane: 20,
        })),
        pareto(cybershake(CyberShakeShape { synthesis: 200 })),
        pareto(montage_24()),
        // The generator's runtimes: every task takes 100 s, so rank ties
        // and the smallest-id tie-break decide each CPA-Eager round.
        layered_dag(LayeredShape {
            levels: 6,
            min_width: 30,
            max_width: 30,
            edge_prob: 0.2,
            seed: 42,
        }),
    ]
}

/// Assert that `run` builds the same schedule on both kernels.
fn assert_kernels_agree(what: &str, wf: &Workflow, run: impl Fn() -> Schedule) {
    let fast = run();
    let reference = on_reference_kernel(&run);
    assert_eq!(
        fast,
        reference,
        "{what} on {}: fast kernel diverged from the naive reference",
        wf.name()
    );
}

#[test]
fn paper_set_fast_equals_naive_on_wfcommons_shapes() {
    let platform = Platform::ec2_paper();
    let workflows = workflows();
    // Besides the paper's 2x, budgets an equal-runtime DAG cannot
    // saturate: 2x and 4x upgrade every task whatever the order.
    let budgets = [1.5, 3.0].map(|m| DynamicBudgets {
        cpa_multiplier: m,
        gain_multiplier: m,
    });
    for wf in &workflows {
        let tables = KernelTables::build(wf, &platform);
        let strategies = Strategy::paper_set().into_iter().chain(
            budgets
                .iter()
                .flat_map(|&b| [Strategy::CpaEager(b), Strategy::Gain(b)]),
        );
        for strategy in strategies {
            let fast = strategy.schedule_with(wf, &platform, Some(&tables));
            let reference = on_reference_kernel(|| strategy.schedule(wf, &platform));
            assert_eq!(
                fast,
                reference,
                "{strategy:?} on {}: fast kernel diverged from the naive reference",
                wf.name()
            );
        }
    }
}

#[test]
fn probe_callers_fast_equal_naive_on_wfcommons_shapes() {
    let platform = Platform::ec2_paper();
    let booting = Platform::ec2_paper().with_boot_time(120.0);
    let markets = [SpotMarket::default(), SpotMarket::new(0.3, 0.9)];
    let capped = PoolSpec {
        max_vms: Some(4),
        ..PoolSpec::default()
    };
    for wf in &workflows() {
        let tables = KernelTables::build(wf, &platform);
        // The reference kernel ignores the offered tables.
        for market in &markets {
            for itype in InstanceType::ALL {
                assert_kernels_agree(&format!("spot-HEFT {itype:?} on {market:?}"), wf, || {
                    spot_heft_with(wf, &platform, market, itype, Some(&tables))
                });
            }
        }
        for rule in [ListRule::MinMin, ListRule::MaxMin] {
            assert_kernels_agree(rule.name(), wf, || {
                list_schedule(wf, &platform, rule, InstanceType::Small, 3)
            });
        }
        // Insertion opens each VM's timeline at 0 under the paper's zero
        // boot and at its first task otherwise, so both boots are held.
        for platform in [&platform, &booting] {
            let boot = platform.boot_time_s;
            assert_kernels_agree(&format!("HEFT-ins at boot {boot}"), wf, || {
                heft_insertion(wf, platform, InstanceType::Medium, 3)
            });
            for pool in [&PoolSpec::default(), &capped] {
                assert_kernels_agree(&format!("HEFT-pool {pool:?} at boot {boot}"), wf, || {
                    heft_pool(wf, platform, pool)
                });
            }
        }
    }
}
