//! The online-service campaign: provisioning strategies under Poisson
//! workflow arrivals against a shared warm-VM pool (`cws-serve`).
//!
//! This is the experiment the paper's Sect. VI gestures at but never
//! runs: the same provisioning × scheduling pairings, evaluated as a
//! long-running multi-tenant service instead of one-shot submissions.
//! The sweep crosses fleet arrival rates with provisioning policies and
//! the two idle-reclaim policies of the pool, so the output directly
//! shows when keeping machines warm pays (cost via BTU reuse, time via
//! avoided boot delays) and when it just burns idle BTUs.
//!
//! Each grid cell is an independent service run with its own seed
//! (derived from the campaign seed and the cell's grid index), so the
//! schedule of work across threads cannot influence any result. The
//! cells fan out over [`par_map`], which hands them back in grid order.

use crate::report::Table;
use cws_core::{par_map, StaticAlloc};
use cws_obs as obs;
use cws_obs::json::json_f64;
use cws_platform::{InstanceType, Platform};
use cws_serve::{run_sharded_service, ShardedConfig};
use cws_service::{
    mix_seed, ArrivalModel, ReclaimPolicy, ServiceConfig, ServiceReport, TenantSpec, WorkloadKind,
};
use std::fmt::Write as _;

/// The grid a campaign sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Fleet-wide Poisson arrival rates to sweep (workflows per hour,
    /// split equally across the tenants).
    pub rates_per_hour: Vec<f64>,
    /// Allocation strategies to sweep.
    pub strategies: Vec<(StaticAlloc, InstanceType)>,
    /// Reclaim policies to sweep.
    pub reclaims: Vec<ReclaimPolicy>,
    /// The tenant mix (each tenant's `rate_per_hour` is overridden by
    /// the swept rate divided by the tenant count).
    pub tenants: Vec<TenantSpec>,
    /// Observation window per cell (seconds).
    pub horizon_s: f64,
    /// VM boot delay per cell (seconds).
    pub boot_time_s: f64,
    /// Campaign seed; each cell derives an independent stream from it.
    pub seed: u64,
}

/// One cell of the campaign grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCell {
    /// Fleet-wide arrival rate of the cell (workflows per hour).
    pub rate_per_hour: f64,
    /// The cell's service report.
    pub report: ServiceReport,
}

/// All cells, in grid order (rate-major, then strategy, then reclaim).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Campaign seed.
    pub seed: u64,
    /// The cells.
    pub cells: Vec<CampaignCell>,
}

impl CampaignReport {
    /// Deterministic JSON for the whole grid — byte-identical for a
    /// fixed seed regardless of the worker-thread count.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"seed\":{},\"cells\":[", self.seed);
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rate_per_hour\":{},\"report\":{}}}",
                json_f64(cell.rate_per_hour),
                cell.report.to_json()
            );
        }
        out.push_str("]}");
        out
    }
}

/// The service configuration of one grid cell.
fn cell_config(spec: &CampaignSpec, cell: usize) -> (f64, ServiceConfig) {
    let per_reclaim = spec.reclaims.len();
    let per_strategy = spec.strategies.len() * per_reclaim;
    let rate = spec.rates_per_hour[cell / per_strategy];
    let (alloc, itype) = spec.strategies[(cell / per_reclaim) % spec.strategies.len()];
    let reclaim = spec.reclaims[cell % per_reclaim];
    let mut tenants = spec.tenants.clone();
    let share = rate / tenants.len() as f64;
    for t in &mut tenants {
        t.rate_per_hour = share;
    }
    (
        rate,
        ServiceConfig {
            alloc,
            itype,
            reclaim,
            boot_time_s: spec.boot_time_s,
            tenants,
            model: ArrivalModel::Poisson {
                horizon_s: spec.horizon_s,
            },
            seed: mix_seed(spec.seed, cell as u64),
        },
    )
}

/// Run the campaign on `threads` worker threads (at least one).
///
/// # Panics
/// Panics if the grid is empty or has no tenants, and re-raises any
/// panic of a cell's service run.
#[must_use]
pub fn run_campaign(platform: &Platform, spec: &CampaignSpec, threads: usize) -> CampaignReport {
    assert!(!spec.tenants.is_empty(), "need at least one tenant");
    let cells = spec.rates_per_hour.len() * spec.strategies.len() * spec.reclaims.len();
    assert!(cells >= 1, "campaign grid is empty");

    let cells = par_map(cells, threads, |cell| {
        let (rate, cfg) = cell_config(spec, cell);
        CampaignCell {
            rate_per_hour: rate,
            report: run_sharded_service(platform, &ShardedConfig::new(cfg)),
        }
    });
    // Every cell's run sets the process-global hit-rate gauge, so the
    // last cell to *finish* would win. Set it again from the last cell
    // in grid order that rented anything: the value one thread ends on.
    if obs::metrics_enabled() {
        let last = cells
            .iter()
            .rev()
            .map(|c| &c.report.fleet)
            .find(|f| f.pool_hits + f.cold_rentals > 0);
        if let Some(fleet) = last {
            let (hits, cold) = (fleet.pool_hits, fleet.cold_rentals);
            obs::MetricsRegistry::global()
                .gauge(obs::metrics::names::RUN_POOL_HIT_RATE)
                .set(hits as f64 / (hits + cold) as f64);
        }
    }
    CampaignReport {
        seed: spec.seed,
        cells,
    }
}

/// The default campaign grid: 2 fleet rates × 4 provisioning policies ×
/// 2 reclaim policies, three tenants (Montage, CSTEM, bag-of-tasks),
/// a 10-hour window and a 60-second boot delay. The high-rate cells see
/// ~120 Poisson arrivals each.
#[must_use]
pub fn default_spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        rates_per_hour: vec![4.0, 12.0],
        strategies: vec![
            (StaticAlloc::HeftOneVmPerTask, InstanceType::Small),
            (StaticAlloc::HeftStartParNotExceed, InstanceType::Small),
            (StaticAlloc::HeftStartParExceed, InstanceType::Small),
            (StaticAlloc::AllParExceed, InstanceType::Small),
        ],
        reclaims: vec![ReclaimPolicy::Immediate, ReclaimPolicy::AtBtuBoundary],
        tenants: vec![
            TenantSpec {
                name: "astro".to_string(),
                kind: WorkloadKind::Montage24,
                rate_per_hour: 0.0, // overridden per cell
            },
            TenantSpec {
                name: "climate".to_string(),
                kind: WorkloadKind::CStem,
                rate_per_hour: 0.0,
            },
            TenantSpec {
                name: "batch".to_string(),
                kind: WorkloadKind::BagOfTasks(16),
                rate_per_hour: 0.0,
            },
        ],
        horizon_s: 10.0 * 3600.0,
        boot_time_s: 60.0,
        seed,
    }
}

/// Run the default campaign on `threads` workers.
#[must_use]
pub fn service_sweep(platform: &Platform, seed: u64, threads: usize) -> CampaignReport {
    run_campaign(platform, &default_spec(seed), threads)
}

/// Render a campaign as one row per grid cell.
#[must_use]
pub fn service_report(report: &CampaignReport) -> Table {
    let mut t = Table::new(
        "Online service — arrival rate x strategy x reclaim policy",
        &[
            "rate/h",
            "strategy",
            "reclaim",
            "workflows",
            "vms",
            "hit_rate",
            "billed_btus",
            "cost_usd",
            "idle_ratio",
            "gain_pct",
            "queue_s",
        ],
    );
    for cell in &report.cells {
        let f = &cell.report.fleet;
        t.row(vec![
            format!("{:.0}", cell.rate_per_hour),
            cell.report.strategy.clone(),
            cell.report.reclaim.clone(),
            f.workflows.to_string(),
            f.vms.to_string(),
            format!("{:.3}", f.hit_rate),
            f.billed_btus.to_string(),
            format!("{:.3}", f.cost_usd),
            format!("{:.3}", f.idle_ratio),
            format!("{:.2}", f.mean_gain_pct),
            format!("{:.1}", f.mean_queue_delay_s),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down grid so the test stays fast: one rate, the three
    /// StartPar/OneVM provisioning policies, both reclaim policies.
    fn small_spec(seed: u64) -> CampaignSpec {
        let mut spec = default_spec(seed);
        spec.rates_per_hour = vec![6.0];
        spec.strategies.truncate(3);
        spec.horizon_s = 2.0 * 3600.0;
        spec
    }

    #[test]
    fn grid_order_is_rate_major() {
        let mut spec = small_spec(7);
        spec.rates_per_hour = vec![2.0, 6.0];
        let (rate0, cfg0) = cell_config(&spec, 0);
        assert_eq!(rate0, 2.0);
        assert_eq!(cfg0.reclaim, ReclaimPolicy::Immediate);
        let (_, cfg1) = cell_config(&spec, 1);
        assert_eq!(cfg1.reclaim, ReclaimPolicy::AtBtuBoundary);
        let (_, cfg2) = cell_config(&spec, 2);
        assert_eq!(cfg2.alloc, StaticAlloc::HeftStartParNotExceed);
        let (rate6, _) = cell_config(&spec, 6);
        assert_eq!(rate6, 6.0);
    }

    #[test]
    fn cell_seeds_are_independent() {
        let spec = small_spec(7);
        let (_, a) = cell_config(&spec, 0);
        let (_, b) = cell_config(&spec, 1);
        assert_ne!(a.seed, b.seed);
    }

    #[test]
    fn sweep_runs_and_reports_every_cell() {
        let p = Platform::ec2_paper();
        let report = run_campaign(&p, &small_spec(7), 2);
        assert_eq!(report.cells.len(), 3 * 2); // 1 rate x 3 strategies x 2 reclaims
        let table = service_report(&report);
        assert_eq!(table.rows.len(), report.cells.len());
        assert!(report.cells.iter().all(|c| c.report.fleet.workflows > 0));
    }

    #[test]
    fn reclaim_policies_differ_as_designed() {
        let p = Platform::ec2_paper();
        let report = run_campaign(&p, &small_spec(11), 2);
        // Cells come in (immediate, btu-boundary) pairs per strategy.
        // Immediate reclaim never reuses; BTU-boundary reclaim finds
        // warm machines. Note the *bill* is allowed to move either way:
        // reuse rides out already-paid BTUs, but a claimed machine also
        // burns billed wall-clock time while it waits for the claiming
        // task's inputs — which way it nets out is exactly what the
        // sweep measures.
        for pair in report.cells.chunks(2) {
            assert_eq!(pair[0].report.reclaim, "immediate");
            assert_eq!(pair[1].report.reclaim, "btu-boundary");
            assert_eq!(pair[0].report.fleet.pool_hits, 0);
        }
        assert!(
            report
                .cells
                .iter()
                .any(|c| c.report.reclaim == "btu-boundary" && c.report.fleet.pool_hits > 0),
            "some BTU-boundary cell must find warm machines"
        );
        for cell in &report.cells {
            let f = &cell.report.fleet;
            assert!(
                f.billed_s >= f.busy_s - 1e-6,
                "{}: billed {} s < busy {} s",
                cell.report.strategy,
                f.billed_s,
                f.busy_s
            );
            assert!((0.0..=1.0).contains(&f.idle_ratio));
        }
    }
}
