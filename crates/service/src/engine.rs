//! The single-loop reference engine: arrivals → pooled schedules →
//! pool commits against a [`VmPool`] that keeps every machine it ever
//! rented. Its pool scan is linear in the machines rented so far, so a
//! run is quadratic in its length; only tests and `cws-bench` run it.
//! The service itself runs on the sharded engine in `cws-serve`, whose
//! reports and trace bytes the tests hold equal to this loop's.

use crate::arrivals::{ArrivalModel, TenantSpec, TicketStream};
use crate::pool::{ReclaimPolicy, VmPool};
use crate::report::ServiceReport;
use cws_core::pooled::pooled_static;
use cws_core::StaticAlloc;
use cws_platform::{InstanceType, Platform};

/// Everything that defines one service run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Allocation strategy applied to every arrival.
    pub alloc: StaticAlloc,
    /// Instance type rented (the paper's homogeneous setting).
    pub itype: InstanceType,
    /// Idle-reclaim policy of the shared pool.
    pub reclaim: ReclaimPolicy,
    /// VM boot delay in seconds (0 reproduces the paper's pre-booted
    /// setting, where pooling saves money but not time).
    pub boot_time_s: f64,
    /// The tenants submitting workflows.
    pub tenants: Vec<TenantSpec>,
    /// Arrival process.
    pub model: ArrivalModel,
    /// Base seed for every stream of the run.
    pub seed: u64,
}

/// Per-submission outcome, on the workflow's own clock.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowRecord {
    /// Tenant index.
    pub tenant: usize,
    /// Wall-clock arrival time.
    pub arrival_s: f64,
    /// Makespan achieved against the shared pool.
    pub makespan_s: f64,
    /// Makespan the same strategy achieves from a cold (empty) pool —
    /// the paper's one-shot reference.
    pub cold_makespan_s: f64,
    /// Delay until the first task starts (boot wait, input wait, or
    /// queueing behind earlier submissions on claimed machines).
    pub queue_delay_s: f64,
    /// Machines claimed warm from the pool.
    pub pool_hits: usize,
    /// Fresh (cold) rentals.
    pub cold_rentals: usize,
    /// Task count of the submission.
    pub tasks: usize,
}

/// The full trace of a service run, for tests and deep-dive analysis.
#[derive(Debug, Clone)]
pub struct ServiceTrace {
    /// One record per submission, in arrival order.
    pub records: Vec<WorkflowRecord>,
    /// The pool at end of run (every machine terminated and billed).
    pub pool: VmPool,
}

/// Run the service and return its report.
#[must_use]
pub fn run_service(platform: &Platform, cfg: &ServiceConfig) -> ServiceReport {
    run_service_traced(platform, cfg).0
}

/// Run the service, returning the report plus the full trace.
///
/// Arrivals are consumed lazily from [`TicketStream`] — already in
/// event order (time, then tenant, then submission number, the same
/// FIFO tie-breaking `cws-sim`'s event queue would apply) — and each
/// ticket is realized with its tenant's workload kind as it comes, so
/// only one materialized workflow is alive at a time and a million-
/// submission run needs memory for its records and pool, not its
/// workflows. The cold one-shot reference schedule is a counterfactual:
/// it runs under [`cws_obs::quiet`] so it leaves no mark in the trace
/// or metrics streams.
#[must_use]
pub fn run_service_traced(
    platform: &Platform,
    cfg: &ServiceConfig,
) -> (ServiceReport, ServiceTrace) {
    let platform = platform.clone().with_boot_time(cfg.boot_time_s);

    let mut pool = VmPool::new(cfg.reclaim);
    let mut records: Vec<WorkflowRecord> = Vec::new();
    for ticket in TicketStream::new(&cfg.tenants, &cfg.model, cfg.seed) {
        let wf = ticket.realize(cfg.tenants[ticket.tenant].kind);
        let now = ticket.time;
        pool.reclaim_until(now);
        let (warm, slot_map) = pool.warm_slots(now);
        let pooled = pooled_static(&wf, &platform, cfg.alloc, cfg.itype, &warm);
        let cold = cws_obs::quiet(|| pooled_static(&wf, &platform, cfg.alloc, cfg.itype, &[]));
        let queue_delay_s = pooled
            .schedule
            .placements
            .iter()
            .map(|p| p.start)
            .fold(f64::INFINITY, f64::min);
        records.push(WorkflowRecord {
            tenant: ticket.tenant,
            arrival_s: now,
            makespan_s: pooled.schedule.makespan(),
            cold_makespan_s: cold.schedule.makespan(),
            queue_delay_s,
            pool_hits: pooled.pool_hits(),
            cold_rentals: pooled.cold_rentals(),
            tasks: wf.len(),
        });
        pool.commit(now, ticket.tenant, &pooled, &slot_map, &platform);
    }
    pool.finish();

    if cws_obs::metrics_enabled() {
        let hits: usize = records.iter().map(|r| r.pool_hits).sum();
        let cold: usize = records.iter().map(|r| r.cold_rentals).sum();
        if hits + cold > 0 {
            cws_obs::MetricsRegistry::global()
                .gauge(cws_obs::metrics::names::RUN_POOL_HIT_RATE)
                .set(hits as f64 / (hits + cold) as f64);
        }
        // Queue-wait distribution in sim-clock milliseconds: derived
        // from placement starts, so the histogram is deterministic for
        // a given (workload, platform, seed) at any thread count.
        let waits = cws_obs::MetricsRegistry::global()
            .histogram(cws_obs::metrics::names::SERVICE_QUEUE_WAIT);
        for r in &records {
            if r.queue_delay_s.is_finite() {
                waits.record((r.queue_delay_s * 1000.0).round() as u64);
            }
        }
    }

    let report = ServiceReport::assemble(&platform, cfg, &records, &pool);
    (report, ServiceTrace { records, pool })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::WorkloadKind;

    fn config(reclaim: ReclaimPolicy, boot: f64, rate: f64) -> ServiceConfig {
        ServiceConfig {
            alloc: StaticAlloc::HeftStartParExceed,
            itype: InstanceType::Small,
            reclaim,
            boot_time_s: boot,
            tenants: vec![
                TenantSpec {
                    name: "astro".to_string(),
                    kind: WorkloadKind::Montage24,
                    rate_per_hour: rate,
                },
                TenantSpec {
                    name: "climate".to_string(),
                    kind: WorkloadKind::CStem,
                    rate_per_hour: rate,
                },
            ],
            model: ArrivalModel::Poisson {
                horizon_s: 4.0 * 3600.0,
            },
            seed: 42,
        }
    }

    #[test]
    fn immediate_reclaim_never_reuses() {
        let p = Platform::ec2_paper();
        let (_, trace) = run_service_traced(&p, &config(ReclaimPolicy::Immediate, 0.0, 4.0));
        assert!(!trace.records.is_empty());
        assert!(trace.records.iter().all(|r| r.pool_hits == 0));
    }

    #[test]
    fn btu_boundary_finds_warm_machines() {
        let p = Platform::ec2_paper();
        let (_, trace) = run_service_traced(&p, &config(ReclaimPolicy::AtBtuBoundary, 0.0, 6.0));
        let hits: usize = trace.records.iter().map(|r| r.pool_hits).sum();
        assert!(hits > 0, "BTU-boundary pooling must find warm machines");
    }

    #[test]
    fn zero_boot_one_vm_per_task_pooling_is_timing_neutral() {
        // With zero boot time a warm claim is eligible only when it
        // starts no later than a cold rental, and under OneVMperTask no
        // later decision inspects the machine's carried busy time — so
        // every submission's makespan must equal its cold reference
        // exactly (pooling moves money, not time).
        let p = Platform::ec2_paper();
        let mut cfg = config(ReclaimPolicy::AtBtuBoundary, 0.0, 6.0);
        cfg.alloc = StaticAlloc::HeftOneVmPerTask;
        let (report, trace) = run_service_traced(&p, &cfg);
        assert!(report.fleet.pool_hits > 0, "pooling must actually happen");
        for r in &trace.records {
            assert_eq!(
                r.makespan_s.to_bits(),
                r.cold_makespan_s.to_bits(),
                "tenant {} arrival at {}",
                r.tenant,
                r.arrival_s
            );
        }
        assert_eq!(report.fleet.mean_gain_pct, 0.0);
    }

    #[test]
    fn boot_delay_makes_pooling_faster() {
        let p = Platform::ec2_paper();
        let (_, trace) = run_service_traced(&p, &config(ReclaimPolicy::AtBtuBoundary, 120.0, 6.0));
        let gained = trace
            .records
            .iter()
            .any(|r| r.makespan_s + 1e-9 < r.cold_makespan_s);
        assert!(gained, "with a 120 s boot, some warm claim must beat cold");
    }
}
