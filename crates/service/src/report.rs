//! Per-tenant and fleet-wide service metrics, with deterministic JSON.
//!
//! The JSON renderer is hand-rolled on purpose: field order is fixed,
//! floats print through Rust's shortest-roundtrip `Display`, and there
//! is no map iteration anywhere — so byte-identical reports across runs
//! and thread counts are a structural property, not an accident.

use crate::engine::{ServiceConfig, WorkflowRecord};
use crate::pool::{PoolVm, VmPool};
use cws_obs::json::{json_f64, json_str};
use cws_obs::Histogram;
use cws_platform::Platform;
use std::fmt::Write as _;

/// Aggregated outcome for one tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Number of workflows submitted.
    pub workflows: usize,
    /// Mean makespan against the shared pool (s).
    pub mean_makespan_s: f64,
    /// Mean makespan of the cold one-shot reference (s).
    pub mean_cold_makespan_s: f64,
    /// Mean makespan gain over the cold reference, in percent
    /// (positive = the pool made workflows faster).
    pub mean_gain_pct: f64,
    /// Mean delay until the first task starts (s).
    pub mean_queue_delay_s: f64,
    /// Machines claimed warm.
    pub pool_hits: usize,
    /// Fresh rentals.
    pub cold_rentals: usize,
    /// `pool_hits / (pool_hits + cold_rentals)`; 0 with no rentals.
    pub hit_rate: f64,
    /// Wall-clock cost attributed to the tenant: each machine's bill is
    /// split across tenants proportionally to their busy seconds on it.
    pub cost_usd: f64,
}

/// Fleet-wide outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Workflows served across all tenants.
    pub workflows: usize,
    /// Machines ever rented.
    pub vms: usize,
    /// Warm claims across all submissions.
    pub pool_hits: usize,
    /// Fresh rentals across all submissions.
    pub cold_rentals: usize,
    /// `pool_hits / (pool_hits + cold_rentals)`; 0 with no rentals.
    pub hit_rate: f64,
    /// Wall-clock BTUs billed.
    pub billed_btus: u64,
    /// Wall-clock cost in USD.
    pub cost_usd: f64,
    /// Task execution seconds across all machines.
    pub busy_s: f64,
    /// Billed wall-clock seconds (`billed_btus × BTU`).
    pub billed_s: f64,
    /// `1 − busy / billed`: the fraction of paid time spent idle.
    pub idle_ratio: f64,
    /// Mean delay until first task start, across all submissions (s).
    pub mean_queue_delay_s: f64,
    /// Mean per-workflow makespan gain over the cold reference (%).
    pub mean_gain_pct: f64,
}

/// The full report of one service run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Strategy label, e.g. `StartParExceed-s`.
    pub strategy: String,
    /// Reclaim policy label.
    pub reclaim: String,
    /// Boot delay in force (s).
    pub boot_time_s: f64,
    /// Seed of the run.
    pub seed: u64,
    /// Per-tenant aggregates, in tenant order.
    pub tenants: Vec<TenantReport>,
    /// Fleet-wide aggregates.
    pub fleet: FleetReport,
}

fn gain_pct(r: &WorkflowRecord) -> f64 {
    if r.cold_makespan_s > 0.0 {
        (r.cold_makespan_s - r.makespan_s) / r.cold_makespan_s * 100.0
    } else {
        0.0
    }
}

fn rate(hits: usize, cold: usize) -> f64 {
    let total = hits + cold;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

impl ServiceReport {
    /// Aggregate a finished run (every pool machine must be terminated).
    ///
    /// Delegates to [`ReportAccumulator`] — the streaming fold used by
    /// the sharded engine — so the eager and streaming paths cannot
    /// drift: both perform the identical additions in the identical
    /// order (records in arrival order, machines in rental order).
    #[must_use]
    pub fn assemble(
        platform: &Platform,
        cfg: &ServiceConfig,
        records: &[WorkflowRecord],
        pool: &VmPool,
    ) -> ServiceReport {
        let mut acc = ReportAccumulator::new(cfg.tenants.len());
        for r in records {
            acc.record(r);
        }
        for vm in &pool.vms {
            acc.vm(vm, platform);
        }
        acc.finish_report(cfg)
    }

    /// Render as deterministic JSON (fixed field order, shortest
    /// round-trip floats, no trailing whitespace).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"strategy\":{},\"reclaim\":{},\"boot_time_s\":{},\"seed\":{},\"tenants\":[",
            json_str(&self.strategy),
            json_str(&self.reclaim),
            json_f64(self.boot_time_s),
            self.seed
        );
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"workflows\":{},\"mean_makespan_s\":{},\
                 \"mean_cold_makespan_s\":{},\"mean_gain_pct\":{},\"mean_queue_delay_s\":{},\
                 \"pool_hits\":{},\"cold_rentals\":{},\"hit_rate\":{},\"cost_usd\":{}}}",
                json_str(&t.name),
                t.workflows,
                json_f64(t.mean_makespan_s),
                json_f64(t.mean_cold_makespan_s),
                json_f64(t.mean_gain_pct),
                json_f64(t.mean_queue_delay_s),
                t.pool_hits,
                t.cold_rentals,
                json_f64(t.hit_rate),
                json_f64(t.cost_usd)
            );
        }
        let f = &self.fleet;
        let _ = write!(
            out,
            "],\"fleet\":{{\"workflows\":{},\"vms\":{},\"pool_hits\":{},\"cold_rentals\":{},\
             \"hit_rate\":{},\"billed_btus\":{},\"cost_usd\":{},\"busy_s\":{},\"billed_s\":{},\
             \"idle_ratio\":{},\"mean_queue_delay_s\":{},\"mean_gain_pct\":{}}}}}",
            f.workflows,
            f.vms,
            f.pool_hits,
            f.cold_rentals,
            json_f64(f.hit_rate),
            f.billed_btus,
            json_f64(f.cost_usd),
            json_f64(f.busy_s),
            json_f64(f.billed_s),
            json_f64(f.idle_ratio),
            json_f64(f.mean_queue_delay_s),
            json_f64(f.mean_gain_pct)
        );
        out
    }
}

/// Per-tenant running sums (arrival order), mirroring the columns of
/// [`TenantReport`].
#[derive(Debug, Clone, Default)]
struct TenantAcc {
    workflows: usize,
    makespan_sum: f64,
    cold_sum: f64,
    gain_sum: f64,
    delay_sum: f64,
    pool_hits: usize,
    cold_rentals: usize,
    cost_usd: f64,
}

/// Streaming fold of a service run: consumes [`WorkflowRecord`]s in
/// arrival order and terminated [`PoolVm`]s in rental order, holding
/// `O(tenants)` state — never the records or machines themselves.
///
/// Feeding the same sequence the eager path iterates produces the same
/// float additions in the same order, so [`ServiceReport::assemble`]
/// (which delegates here) and a streaming engine that folds as it goes
/// yield byte-identical reports by construction.
#[derive(Debug)]
pub struct ReportAccumulator {
    tenants: Vec<TenantAcc>,
    workflows: usize,
    pool_hits: usize,
    cold_rentals: usize,
    delay_sum: f64,
    gain_sum: f64,
    makespan_sum: f64,
    vms: usize,
    billed_btus: u64,
    cost_usd: f64,
    busy_s: f64,
    /// Makespan distribution in milliseconds (log₂ buckets).
    makespan_hist: Histogram,
    /// Queue-delay distribution in milliseconds (log₂ buckets).
    delay_hist: Histogram,
}

impl ReportAccumulator {
    /// An empty accumulator for `tenant_count` tenants.
    #[must_use]
    pub fn new(tenant_count: usize) -> Self {
        ReportAccumulator {
            tenants: vec![TenantAcc::default(); tenant_count],
            workflows: 0,
            pool_hits: 0,
            cold_rentals: 0,
            delay_sum: 0.0,
            gain_sum: 0.0,
            makespan_sum: 0.0,
            vms: 0,
            billed_btus: 0,
            cost_usd: 0.0,
            busy_s: 0.0,
            makespan_hist: Histogram::default(),
            delay_hist: Histogram::default(),
        }
    }

    /// Fold one submission record. Call in arrival order.
    ///
    /// # Panics
    /// Panics if the record's tenant index is out of range.
    pub fn record(&mut self, r: &WorkflowRecord) {
        let g = gain_pct(r);
        let t = &mut self.tenants[r.tenant];
        t.workflows += 1;
        t.makespan_sum += r.makespan_s;
        t.cold_sum += r.cold_makespan_s;
        t.gain_sum += g;
        t.delay_sum += r.queue_delay_s;
        t.pool_hits += r.pool_hits;
        t.cold_rentals += r.cold_rentals;
        self.workflows += 1;
        self.pool_hits += r.pool_hits;
        self.cold_rentals += r.cold_rentals;
        self.delay_sum += r.queue_delay_s;
        self.gain_sum += g;
        self.makespan_sum += r.makespan_s;
        if r.makespan_s.is_finite() {
            self.makespan_hist
                .record((r.makespan_s * 1000.0).round() as u64);
        }
        if r.queue_delay_s.is_finite() {
            self.delay_hist
                .record((r.queue_delay_s * 1000.0).round() as u64);
        }
    }

    /// Fold one terminated machine. Call in rental order.
    ///
    /// # Panics
    /// Panics if the machine is still live, or its `busy_by_tenant`
    /// names a tenant index out of range.
    pub fn vm(&mut self, vm: &PoolVm, platform: &Platform) {
        self.vms += 1;
        let btus = vm.billed_btus();
        self.billed_btus += btus;
        let bill = btus as f64 * platform.price_in(vm.region, vm.itype);
        self.cost_usd += bill;
        self.busy_s += vm.busy_s;
        // Cost attribution: split the machine's bill by busy share.
        let total_busy: f64 = vm.busy_by_tenant.iter().map(|(_, s)| s).sum();
        if total_busy <= 0.0 {
            return;
        }
        for &(tenant, busy) in &vm.busy_by_tenant {
            self.tenants[tenant].cost_usd += bill * busy / total_busy;
        }
    }

    /// Grow the per-tenant table to at least `n` entries. The batch
    /// engines know their tenant count up front; the submission daemon
    /// creates tenants on first use and grows the fold as it goes.
    pub fn ensure_tenants(&mut self, n: usize) {
        if self.tenants.len() < n {
            self.tenants.resize_with(n, TenantAcc::default);
        }
    }

    /// Submissions folded so far.
    #[must_use]
    pub fn workflows(&self) -> usize {
        self.workflows
    }

    /// Warm claims and cold rentals folded so far.
    #[must_use]
    pub fn rentals(&self) -> (usize, usize) {
        (self.pool_hits, self.cold_rentals)
    }

    fn fleet(&self) -> FleetReport {
        let billed_s = self.billed_btus as f64 * cws_platform::BTU_SECONDS;
        FleetReport {
            workflows: self.workflows,
            vms: self.vms,
            pool_hits: self.pool_hits,
            cold_rentals: self.cold_rentals,
            hit_rate: rate(self.pool_hits, self.cold_rentals),
            billed_btus: self.billed_btus,
            cost_usd: self.cost_usd,
            busy_s: self.busy_s,
            billed_s,
            idle_ratio: if billed_s > 0.0 {
                1.0 - self.busy_s / billed_s
            } else {
                0.0
            },
            mean_queue_delay_s: div_or_zero(self.delay_sum, self.workflows),
            mean_gain_pct: div_or_zero(self.gain_sum, self.workflows),
        }
    }

    /// Assemble the full per-tenant report (every machine folded).
    #[must_use]
    pub fn finish_report(&self, cfg: &ServiceConfig) -> ServiceReport {
        let tenants = cfg
            .tenants
            .iter()
            .zip(&self.tenants)
            .map(|(spec, t)| TenantReport {
                name: spec.name.clone(),
                workflows: t.workflows,
                mean_makespan_s: div_or_zero(t.makespan_sum, t.workflows),
                mean_cold_makespan_s: div_or_zero(t.cold_sum, t.workflows),
                mean_gain_pct: div_or_zero(t.gain_sum, t.workflows),
                mean_queue_delay_s: div_or_zero(t.delay_sum, t.workflows),
                pool_hits: t.pool_hits,
                cold_rentals: t.cold_rentals,
                hit_rate: rate(t.pool_hits, t.cold_rentals),
                cost_usd: t.cost_usd,
            })
            .collect();
        ServiceReport {
            strategy: strategy_label(cfg),
            reclaim: cfg.reclaim.name().to_string(),
            boot_time_s: cfg.boot_time_s,
            seed: cfg.seed,
            tenants,
            fleet: self.fleet(),
        }
    }

    /// Assemble the bounded summary (see [`ServiceSummary`]).
    #[must_use]
    pub fn finish_summary(&self, cfg: &ServiceConfig) -> ServiceSummary {
        let fleet = self.fleet();
        let mk = self.makespan_hist.snapshot();
        let qd = self.delay_hist.snapshot();
        ServiceSummary {
            strategy: strategy_label(cfg),
            reclaim: cfg.reclaim.name().to_string(),
            boot_time_s: cfg.boot_time_s,
            seed: cfg.seed,
            mean_makespan_s: div_or_zero(self.makespan_sum, self.workflows),
            p50_makespan_ms: mk.quantile(0.50),
            p90_makespan_ms: mk.quantile(0.90),
            p99_makespan_ms: mk.quantile(0.99),
            p50_queue_delay_ms: qd.quantile(0.50),
            p90_queue_delay_ms: qd.quantile(0.90),
            p99_queue_delay_ms: qd.quantile(0.99),
            fleet,
        }
    }
}

/// Bounded-size summary of a service run: the fleet aggregates plus
/// histogram percentiles, with no per-tenant array — `O(1)` output for
/// any tenant count, selectable with `--report summary`.
///
/// Percentiles come from `cws-obs` log₂-bucketed histograms (each value
/// reported as its bucket's upper bound), so they are deterministic and
/// mergeable but quantized to ~2× resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSummary {
    /// Strategy label, e.g. `StartParExceed-s`.
    pub strategy: String,
    /// Reclaim policy label.
    pub reclaim: String,
    /// Boot delay in force (s).
    pub boot_time_s: f64,
    /// Seed of the run.
    pub seed: u64,
    /// Mean pooled makespan across all submissions (s).
    pub mean_makespan_s: f64,
    /// Median submission makespan (ms, bucket upper bound).
    pub p50_makespan_ms: u64,
    /// 90th-percentile submission makespan (ms, bucket upper bound).
    pub p90_makespan_ms: u64,
    /// 99th-percentile submission makespan (ms, bucket upper bound).
    pub p99_makespan_ms: u64,
    /// Median queue delay (ms, bucket upper bound).
    pub p50_queue_delay_ms: u64,
    /// 90th-percentile queue delay (ms, bucket upper bound).
    pub p90_queue_delay_ms: u64,
    /// 99th-percentile queue delay (ms, bucket upper bound).
    pub p99_queue_delay_ms: u64,
    /// Fleet-wide aggregates (identical to the full report's).
    pub fleet: FleetReport,
}

impl ServiceSummary {
    /// Render as deterministic JSON (fixed field order, shortest
    /// round-trip floats).
    #[must_use]
    pub fn to_json(&self) -> String {
        let f = &self.fleet;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"strategy\":{},\"reclaim\":{},\"boot_time_s\":{},\"seed\":{},\
             \"workflows\":{},\"vms\":{},\"pool_hits\":{},\"cold_rentals\":{},\"hit_rate\":{},\
             \"billed_btus\":{},\"cost_usd\":{},\"busy_s\":{},\"billed_s\":{},\"idle_ratio\":{},\
             \"mean_makespan_s\":{},\"mean_queue_delay_s\":{},\"mean_gain_pct\":{},\
             \"p50_makespan_ms\":{},\"p90_makespan_ms\":{},\"p99_makespan_ms\":{},\
             \"p50_queue_delay_ms\":{},\"p90_queue_delay_ms\":{},\"p99_queue_delay_ms\":{}}}",
            json_str(&self.strategy),
            json_str(&self.reclaim),
            json_f64(self.boot_time_s),
            self.seed,
            f.workflows,
            f.vms,
            f.pool_hits,
            f.cold_rentals,
            json_f64(f.hit_rate),
            f.billed_btus,
            json_f64(f.cost_usd),
            json_f64(f.busy_s),
            json_f64(f.billed_s),
            json_f64(f.idle_ratio),
            json_f64(self.mean_makespan_s),
            json_f64(f.mean_queue_delay_s),
            json_f64(f.mean_gain_pct),
            self.p50_makespan_ms,
            self.p90_makespan_ms,
            self.p99_makespan_ms,
            self.p50_queue_delay_ms,
            self.p90_queue_delay_ms,
            self.p99_queue_delay_ms
        );
        out
    }
}

/// The report's strategy label for a config.
fn strategy_label(cfg: &ServiceConfig) -> String {
    format!("{}-{}", cfg.alloc.provisioning().name(), cfg.itype.suffix())
}

/// `sum / n`, defined as 0 for an empty population — the running-sum
/// form of the mean, matching the eager path's addition order exactly.
fn div_or_zero(sum: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}
