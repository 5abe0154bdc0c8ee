//! Subsystem-level guarantees of `cws-service`'s reference engine:
//! determinism across runs, the pool-reuse invariants, and degenerate
//! inputs.

use cws_core::StaticAlloc;
use cws_platform::{InstanceType, Platform, BTU_SECONDS};
use cws_service::{
    run_service, run_service_traced, ArrivalModel, ReclaimPolicy, ServiceConfig, TenantSpec,
    WorkloadKind,
};

fn tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            name: "astro".to_string(),
            kind: WorkloadKind::Montage24,
            rate_per_hour: 4.0,
        },
        TenantSpec {
            name: "climate".to_string(),
            kind: WorkloadKind::CStem,
            rate_per_hour: 4.0,
        },
        TenantSpec {
            name: "batch".to_string(),
            kind: WorkloadKind::BagOfTasks(12),
            rate_per_hour: 4.0,
        },
    ]
}

fn config(alloc: StaticAlloc, reclaim: ReclaimPolicy, boot: f64) -> ServiceConfig {
    ServiceConfig {
        alloc,
        itype: InstanceType::Small,
        reclaim,
        boot_time_s: boot,
        tenants: tenants(),
        model: ArrivalModel::Poisson {
            horizon_s: 3.0 * 3600.0,
        },
        seed: 42,
    }
}

#[test]
fn same_seed_same_report_bytes() {
    let p = Platform::ec2_paper();
    for alloc in [
        StaticAlloc::HeftOneVmPerTask,
        StaticAlloc::HeftStartParNotExceed,
        StaticAlloc::AllParExceed,
    ] {
        let cfg = config(alloc, ReclaimPolicy::AtBtuBoundary, 60.0);
        let a = run_service(&p, &cfg).to_json();
        let b = run_service(&p, &cfg).to_json();
        assert_eq!(a, b, "{alloc:?} must be bit-reproducible");
    }
}

/// Pool-reuse invariant: a machine never serves two tasks at once, its
/// wall-clock bill covers its busy time, and timestamps are ordered.
#[test]
fn pool_reuse_invariants_hold() {
    let p = Platform::ec2_paper();
    for (alloc, reclaim, boot) in [
        (
            StaticAlloc::HeftOneVmPerTask,
            ReclaimPolicy::AtBtuBoundary,
            0.0,
        ),
        (
            StaticAlloc::HeftStartParNotExceed,
            ReclaimPolicy::AtBtuBoundary,
            120.0,
        ),
        (
            StaticAlloc::HeftStartParExceed,
            ReclaimPolicy::Immediate,
            60.0,
        ),
        (
            StaticAlloc::AllParExceed,
            ReclaimPolicy::AtBtuBoundary,
            120.0,
        ),
    ] {
        let (_, trace) = run_service_traced(&p, &config(alloc, reclaim, boot));
        assert!(
            !trace.pool.vms.is_empty(),
            "{alloc:?}: arrivals must rent VMs"
        );
        for (i, vm) in trace.pool.vms.iter().enumerate() {
            // Serial execution: intervals are disjoint in wall time.
            let mut sorted = vm.intervals.clone();
            sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in sorted.windows(2) {
                assert!(
                    w[1].0 >= w[0].1 - 1e-6,
                    "{alloc:?} vm{i}: task [{}, {}] overlaps [{}, {}]",
                    w[1].0,
                    w[1].1,
                    w[0].0,
                    w[0].1
                );
            }
            // Lifetime covers every task it ran.
            let end = vm.terminated_at.expect("run finished");
            assert!(vm.rented_at <= sorted[0].0 + 1e-9);
            assert!(end >= sorted.last().unwrap().1 - 1e-9);
            // Wall-clock billing covers busy time.
            assert!(
                vm.billed_seconds() >= vm.busy_s - 1e-6,
                "{alloc:?} vm{i}: billed {} s < busy {} s",
                vm.billed_seconds(),
                vm.busy_s
            );
            // Tenant attribution accounts for all busy seconds.
            let attributed: f64 = vm.busy_by_tenant.iter().map(|(_, s)| s).sum();
            assert!((attributed - vm.busy_s).abs() < 1e-6);
        }
    }
}

#[test]
fn zero_arrival_rate_is_an_empty_report() {
    let p = Platform::ec2_paper();
    let mut cfg = config(
        StaticAlloc::HeftStartParExceed,
        ReclaimPolicy::AtBtuBoundary,
        60.0,
    );
    for t in &mut cfg.tenants {
        t.rate_per_hour = 0.0;
    }
    let (report, trace) = run_service_traced(&p, &cfg);
    assert_eq!(report.fleet.workflows, 0);
    assert_eq!(report.fleet.vms, 0);
    assert_eq!(report.fleet.billed_btus, 0);
    assert_eq!(report.fleet.cost_usd, 0.0);
    assert_eq!(report.fleet.hit_rate, 0.0);
    assert!(trace.pool.vms.is_empty());
    assert!(report
        .tenants
        .iter()
        .all(|t| t.workflows == 0 && t.cost_usd == 0.0));
    // And the degenerate report still renders valid, stable JSON.
    assert_eq!(report.to_json(), run_service(&p, &cfg).to_json());
}

/// Wall-clock billing dominates busy time under both reclaim policies,
/// and Immediate reclaim (the online rendition of the paper's one-shot
/// runs) never reuses a machine. Whether BTU-boundary pooling *saves*
/// money is workload-dependent — reuse rides out paid BTUs but also
/// bills the wall-clock wait for the claiming task's inputs — so the
/// sign of the difference is measured, not asserted.
#[test]
fn billing_models_are_sound() {
    let p = Platform::ec2_paper();
    let immediate = config(
        StaticAlloc::HeftStartParExceed,
        ReclaimPolicy::Immediate,
        0.0,
    );
    let pooled = config(
        StaticAlloc::HeftStartParExceed,
        ReclaimPolicy::AtBtuBoundary,
        0.0,
    );
    let (ri, ti) = run_service_traced(&p, &immediate);
    let (rp, tp) = run_service_traced(&p, &pooled);
    for trace in [&ti, &tp] {
        let billed_s = trace.pool.billed_btus() as f64 * BTU_SECONDS;
        assert!(billed_s >= trace.pool.busy_seconds() - 1e-6);
    }
    assert_eq!(ri.fleet.pool_hits, 0, "Immediate must never reuse");
    assert!(rp.fleet.pool_hits > 0, "BTU-boundary must reuse here");
    // Both bill at least the cold-rental floor of their own trajectory.
    assert!(ri.fleet.billed_btus as usize >= ri.fleet.cold_rentals.min(1));
    assert!(rp.fleet.billed_btus as usize >= rp.fleet.cold_rentals.min(1));
}

/// With a non-zero boot delay, warm claims start earlier than cold
/// rentals, so the fleet's mean makespan gain must be positive.
#[test]
fn boot_delay_turns_pool_hits_into_makespan_gain() {
    let p = Platform::ec2_paper();
    let report = run_service(
        &p,
        &config(
            StaticAlloc::HeftStartParExceed,
            ReclaimPolicy::AtBtuBoundary,
            180.0,
        ),
    );
    assert!(
        report.fleet.pool_hits > 0,
        "need warm claims to observe gain"
    );
    assert!(
        report.fleet.mean_gain_pct > 0.0,
        "warm starts must beat the 180 s boot: gain {}%",
        report.fleet.mean_gain_pct
    );
}
