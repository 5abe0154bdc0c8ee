//! The parallel campaign driver: sweep arrival rates × strategies ×
//! reclaim policies across worker threads, bit-reproducibly.
//!
//! Each grid cell is an independent service run with its own seed
//! (derived from the campaign seed and the cell's grid index), so the
//! schedule of work across threads cannot influence any result. The
//! cells fan out over [`par_map`], which hands them back in grid order.

use crate::arrivals::{ArrivalModel, TenantSpec};
use crate::engine::{run_service, ServiceConfig};
use crate::mix_seed;
use crate::pool::ReclaimPolicy;
use crate::report::{json_f64, json_str, ServiceReport};
use cws_core::{par_map, StaticAlloc};
use cws_platform::{InstanceType, Platform};
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
                "{{\"rate_per_hour\":{},\"report\":",
                json_f64(cell.rate_per_hour)
            );
            cell.report.write_json(&mut out);
            out.push('}');
        }
        out.push_str("]}");
        // json_str is part of the deterministic-JSON toolkit; strategy
        // labels contain no characters needing escapes today, but keep
        // the helper exercised so reports stay valid if that changes.
        debug_assert!(self
            .cells
            .iter()
            .all(|c| json_str(&c.report.strategy).len() >= 2));
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

    CampaignReport {
        seed: spec.seed,
        cells: par_map(cells, threads, |cell| {
            let (rate, cfg) = cell_config(spec, cell);
            CampaignCell {
                rate_per_hour: rate,
                report: run_service(platform, &cfg),
            }
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::WorkloadKind;

    fn small_spec() -> CampaignSpec {
        CampaignSpec {
            rates_per_hour: vec![2.0, 6.0],
            strategies: vec![
                (StaticAlloc::HeftOneVmPerTask, InstanceType::Small),
                (StaticAlloc::HeftStartParExceed, InstanceType::Small),
            ],
            reclaims: vec![ReclaimPolicy::Immediate, ReclaimPolicy::AtBtuBoundary],
            tenants: vec![
                TenantSpec {
                    name: "astro".to_string(),
                    kind: WorkloadKind::Montage24,
                    rate_per_hour: 0.0,
                },
                TenantSpec {
                    name: "bot".to_string(),
                    kind: WorkloadKind::BagOfTasks(10),
                    rate_per_hour: 0.0,
                },
            ],
            horizon_s: 2.0 * 3600.0,
            boot_time_s: 60.0,
            seed: 42,
        }
    }

    #[test]
    fn grid_order_is_rate_major() {
        let spec = small_spec();
        let (rate0, cfg0) = cell_config(&spec, 0);
        assert_eq!(rate0, 2.0);
        assert_eq!(cfg0.reclaim, ReclaimPolicy::Immediate);
        let (_, cfg1) = cell_config(&spec, 1);
        assert_eq!(cfg1.reclaim, ReclaimPolicy::AtBtuBoundary);
        let (_, cfg2) = cell_config(&spec, 2);
        assert_eq!(cfg2.alloc, StaticAlloc::HeftStartParExceed);
        let (rate4, _) = cell_config(&spec, 4);
        assert_eq!(rate4, 6.0);
    }

    #[test]
    fn cell_seeds_are_independent() {
        let spec = small_spec();
        let (_, a) = cell_config(&spec, 0);
        let (_, b) = cell_config(&spec, 1);
        assert_ne!(a.seed, b.seed);
    }

    #[test]
    fn thread_count_does_not_change_a_byte() {
        let p = Platform::ec2_paper();
        let spec = small_spec();
        let one = run_campaign(&p, &spec, 1).to_json();
        let four = run_campaign(&p, &spec, 4).to_json();
        assert_eq!(one, four, "thread count leaked into the report");
    }
}
