//! Per-shard reclaim-boundary semantics, mirroring the legacy pool's
//! epsilon fixture (`idle_exactly_on_boundary_terminates_there`): a
//! machine that goes idle **exactly** on a wall-clock BTU boundary is
//! terminated at that boundary and billed for exactly the BTUs it
//! consumed — on every shard, with each shard's own meter agreeing.

use cws_platform::{InstanceType, Platform, BTU_SECONDS};
use cws_serve::ShardedPool;
use cws_service::{PoolVm, ReclaimPolicy, ReportAccumulator};

fn vm(rented_at: f64, busy_until: f64) -> PoolVm {
    let p = Platform::ec2_paper();
    PoolVm {
        itype: InstanceType::Small,
        region: p.default_region,
        rented_at,
        available_at: busy_until,
        terminated_at: None,
        busy_s: busy_until - rented_at,
        busy_by_tenant: vec![(0, busy_until - rented_at)],
        intervals: vec![(rented_at, busy_until)],
        price_per_btu: p.price_in(p.default_region, InstanceType::Small),
    }
}

/// One machine per shard (round-robin routing over one region fills
/// all four), each idling exactly on its first BTU boundary: all four
/// terminate *at* the boundary, billed one BTU, on their own shard.
#[test]
fn exact_boundary_terminates_on_every_shard() {
    let mut pool = ShardedPool::new(ReclaimPolicy::AtBtuBoundary, 4);
    for _ in 0..4 {
        pool.insert_raw(vm(0.0, BTU_SECONDS));
    }
    let shards_live: Vec<usize> = pool.shards().iter().map(|s| s.live).collect();
    assert_eq!(shards_live, vec![1, 1, 1, 1], "routing fills every shard");

    // Just before the boundary nothing may die…
    pool.reclaim_until(BTU_SECONDS - 1e-6);
    assert_eq!(pool.live_count(), 4);

    // …at the boundary, everything does — at exactly the boundary,
    // for exactly one BTU, metered on the owning shard.
    pool.reclaim_until(BTU_SECONDS);
    assert_eq!(pool.live_count(), 0);
    for shard in pool.shards() {
        assert_eq!(shard.reclaims, 1, "shard {} reclaim count", shard.id);
        assert_eq!(
            shard.billed_btus, 1,
            "shard {} billed exactly 1 BTU",
            shard.id
        );
        assert_eq!(shard.live, 0);
    }
}

/// Boundary arithmetic stays per-machine even when machines on the
/// same shard have different rental phases: each terminates on *its
/// own* boundary, not a global one.
#[test]
fn staggered_rentals_reclaim_on_their_own_boundaries() {
    let mut pool = ShardedPool::new(ReclaimPolicy::AtBtuBoundary, 2);
    pool.insert_raw(vm(0.0, BTU_SECONDS)); // boundary at 3600
    pool.insert_raw(vm(600.0, 600.0 + BTU_SECONDS)); // boundary at 4200
    pool.reclaim_until(BTU_SECONDS);
    assert_eq!(
        pool.live_count(),
        1,
        "only the phase-0 machine dies at 3600"
    );
    pool.reclaim_until(600.0 + BTU_SECONDS);
    assert_eq!(pool.live_count(), 0);
    let total_btus: u64 = pool.shards().iter().map(|s| s.billed_btus).sum();
    assert_eq!(total_btus, 2, "one BTU each, no boundary double-billing");
}

/// Terminated machines fold into the report accumulator in global
/// rental order regardless of shard, and the fold drains completely.
#[test]
fn folds_drain_in_rental_order() {
    let platform = Platform::ec2_paper();
    let mut pool = ShardedPool::new(ReclaimPolicy::AtBtuBoundary, 3);
    for i in 0..6 {
        // Staggered so later rentals terminate later.
        pool.insert_raw(vm(i as f64 * 10.0, i as f64 * 10.0 + BTU_SECONDS));
    }
    let mut acc = ReportAccumulator::new(1);
    pool.reclaim_until(BTU_SECONDS + 20.0); // machines 0..=2 due
    pool.drain_folded(&mut acc, &platform);
    assert_eq!(pool.pending_fold(), 0, "in-order terminations fold eagerly");
    pool.finish();
    pool.drain_folded(&mut acc, &platform);
    assert_eq!(pool.pending_fold(), 0, "finish drains the rest");
    let report = acc.finish_report(&synthetic_cfg());
    assert_eq!(report.fleet.vms, 6);
    assert_eq!(report.fleet.billed_btus, 6);
}

fn synthetic_cfg() -> cws_service::ServiceConfig {
    cws_service::ServiceConfig {
        alloc: cws_core::StaticAlloc::HeftStartParExceed,
        itype: InstanceType::Small,
        reclaim: ReclaimPolicy::AtBtuBoundary,
        boot_time_s: 0.0,
        tenants: vec![cws_service::TenantSpec {
            name: "t0".to_string(),
            kind: cws_service::WorkloadKind::BagOfTasks(0),
            rate_per_hour: 0.0,
        }],
        model: cws_service::ArrivalModel::Trace(Vec::new()),
        seed: 0,
    }
}
