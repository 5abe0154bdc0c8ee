//! Spot frontier: realized spot economics vs on-demand, per strategy.
//!
//! [`crate::failures::spot_economics`] prices plans on the spot market
//! *in expectation*; this module closes the loop with the simulator's
//! interruption replay ([`cws_sim::replay_spot`]): every paper pairing
//! — plus the checkpoint-aware [`mod@cws_core::alloc::spot_heft`] planner
//! on all four instance types — is scheduled, replayed under sampled
//! evictions, and billed for what actually happened (discounted spot
//! rent for checkpointed work, on-demand rent for the re-executed
//! tail). The resulting table is the `spot_vs_ondemand` artifact.
//!
//! Plans fan out over [`par_map`] like [`crate::run::run_matrix`]'s
//! cells: they are independent, rows come back in plan order, and the
//! replay seed is fixed per run, so the table is byte-identical at any
//! `--threads` value.

use crate::report::{fmt_f, Table};
use crate::run::ExperimentConfig;
use cws_core::{alloc::spot_heft_with, par_map, KernelTables, ScheduleMetrics, Strategy};
use cws_dag::Workflow;
use cws_obs as obs;
use cws_platform::{InstanceType, SpotMarket};
use cws_sim::replay_spot;
use cws_workloads::Scenario;

/// One plan's realized position on the spot frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct SpotFrontierRow {
    /// Plan label (`"AllParExceed-m"`, `"SpotHEFT-s"`, …).
    pub label: String,
    /// VMs in the plan.
    pub vms: usize,
    /// On-demand cost of the plan, USD.
    pub on_demand_cost: f64,
    /// Planned (on-demand) makespan, seconds.
    pub on_demand_makespan: f64,
    /// Expected spot cost with retries, USD ([`SpotMarket::expected_cost`]).
    pub expected_spot_cost: f64,
    /// Realized cost of the replayed spot run, USD (spot + recovery).
    pub realized_cost: f64,
    /// Realized makespan including any recovery tail, seconds.
    pub realized_makespan: f64,
    /// Fraction of tasks that completed without re-execution.
    pub completion_rate: f64,
    /// Sampled VM evictions in the replay.
    pub evictions: usize,
}

impl SpotFrontierRow {
    /// Realized savings vs on-demand, percent (negative = spot ran
    /// *more* expensive once recovery was paid).
    #[must_use]
    pub fn savings_pct(&self) -> f64 {
        100.0 * (self.on_demand_cost - self.realized_cost) / self.on_demand_cost
    }
}

/// The plans the frontier sweeps: every paper pairing plus the
/// checkpoint-aware spot planner on each instance type.
#[derive(Debug, Clone, Copy)]
enum Plan {
    Paper(Strategy),
    SpotHeft(InstanceType),
}

fn plan_set() -> Vec<Plan> {
    let mut plans: Vec<Plan> = Strategy::paper_set().into_iter().map(Plan::Paper).collect();
    plans.extend(InstanceType::ALL.into_iter().map(Plan::SpotHeft));
    plans
}

/// Run every plan on `wf` (Pareto-materialized with the config's seed)
/// and replay it on `market`-priced spot instances.
///
/// Recovery replacements are on-demand `Small` instances, matching
/// [`crate::failures::failure_domains`]. When [`obs::metrics_enabled`],
/// publishes `run.spot_cost_usd` and `run.spot_savings_frac` from the
/// `SpotHEFT-s` row — a fixed row, so the gauges are thread-count
/// independent.
///
/// # Panics
/// Panics if any plan produces an invalid schedule (a bug, not a data
/// condition).
#[must_use]
pub fn spot_frontier(
    config: &ExperimentConfig,
    wf: &Workflow,
    market: SpotMarket,
    threads: usize,
) -> Vec<SpotFrontierRow> {
    let m = config.materialize(wf, Scenario::Pareto { seed: config.seed });
    let tables = KernelTables::build(&m, &config.platform);
    let small_price = config.platform.price(InstanceType::Small);
    let plans = plan_set();

    let rows = par_map(plans.len(), threads, |i| {
        let s = match plans[i] {
            Plan::Paper(strategy) => strategy.schedule_with(&m, &config.platform, Some(&tables)),
            Plan::SpotHeft(itype) => {
                spot_heft_with(&m, &config.platform, &market, itype, Some(&tables))
            }
        };
        s.validate(&m, &config.platform)
            .unwrap_or_else(|e| panic!("{} produced an invalid schedule: {e}", s.strategy));
        let metrics = ScheduleMetrics::of(&s, &m, &config.platform);
        let expected_spot_cost: f64 = s
            .vms
            .iter()
            .map(|vm| market.expected_cost(vm.itype, small_price, vm.meter.busy))
            .sum();
        let r = replay_spot(
            &m,
            &config.platform,
            &s,
            &market,
            InstanceType::Small,
            config.seed,
        );
        SpotFrontierRow {
            label: s.strategy.clone(),
            vms: metrics.vm_count,
            on_demand_cost: metrics.cost,
            on_demand_makespan: metrics.makespan,
            expected_spot_cost,
            realized_cost: r.total_cost_usd(),
            realized_makespan: r.makespan,
            completion_rate: r.completion_rate(),
            evictions: r.interruptions.len(),
        }
    });

    if obs::metrics_enabled() {
        let pinned = rows
            .iter()
            .find(|r| r.label == "SpotHEFT-s")
            .expect("plan set includes SpotHEFT-s");
        let reg = obs::MetricsRegistry::global();
        reg.gauge(obs::metrics::names::RUN_SPOT_COST_USD)
            .set(pinned.realized_cost);
        reg.gauge(obs::metrics::names::RUN_SPOT_SAVINGS_FRAC)
            .set((pinned.on_demand_cost - pinned.realized_cost) / pinned.on_demand_cost);
    }
    rows
}

/// Render the frontier rows as a table.
#[must_use]
pub fn spot_frontier_report(workflow: &str, market: SpotMarket, rows: &[SpotFrontierRow]) -> Table {
    let mut t = Table::new(
        format!(
            "Spot frontier — {workflow} ({}% of on-demand, {:.0}%/h interruption hazard)",
            (market.price_fraction * 100.0) as u32,
            market.hourly_interruption_prob * 100.0
        ),
        &[
            "strategy",
            "vms",
            "od_usd",
            "od_makespan_s",
            "expected_spot_usd",
            "realized_usd",
            "realized_makespan_s",
            "completion_rate",
            "evictions",
            "savings_pct",
        ],
    );
    for r in rows {
        t.row(vec![
            r.label.clone(),
            r.vms.to_string(),
            fmt_f(r.on_demand_cost, 3),
            fmt_f(r.on_demand_makespan, 0),
            fmt_f(r.expected_spot_cost, 3),
            fmt_f(r.realized_cost, 3),
            fmt_f(r.realized_makespan, 0),
            fmt_f(r.completion_rate, 2),
            r.evictions.to_string(),
            fmt_f(r.savings_pct(), 1),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_workloads::montage_24;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig {
            validate_with_sim: false,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn frontier_covers_paper_set_plus_spot_heft() {
        let rows = spot_frontier(&cfg(), &montage_24(), SpotMarket::default(), 1);
        assert_eq!(rows.len(), 19 + 4);
        for suffix in ["s", "m", "l", "xl"] {
            assert!(
                rows.iter().any(|r| r.label == format!("SpotHEFT-{suffix}")),
                "missing SpotHEFT-{suffix}"
            );
        }
    }

    #[test]
    fn frontier_is_thread_count_independent() {
        let market = SpotMarket::new(0.3, 0.2);
        let a = spot_frontier(&cfg(), &montage_24(), market, 1);
        let b = spot_frontier(&cfg(), &montage_24(), market, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_hazard_realizes_the_pure_discount() {
        let rows = spot_frontier(&cfg(), &montage_24(), SpotMarket::new(0.3, 0.0), 2);
        for r in &rows {
            assert_eq!(r.evictions, 0, "{}", r.label);
            assert_eq!(r.completion_rate, 1.0, "{}", r.label);
            assert!(
                (r.realized_makespan - r.on_demand_makespan).abs() < 1e-6,
                "{}",
                r.label
            );
            // Realized = expected = the discounted rental bill; both
            // may sit below `on_demand_cost`, which adds transfer fees.
            assert!(
                (r.realized_cost - r.expected_spot_cost).abs() < 1e-9,
                "{}: realized {} vs expected {}",
                r.label,
                r.realized_cost,
                r.expected_spot_cost
            );
            assert!(r.realized_cost < r.on_demand_cost, "{}", r.label);
        }
    }

    #[test]
    fn report_renders_every_row() {
        let market = SpotMarket::default();
        let rows = spot_frontier(&cfg(), &montage_24(), market, 3);
        let t = spot_frontier_report("montage-24", market, &rows);
        assert_eq!(t.rows.len(), rows.len());
        assert_eq!(t.headers.len(), t.rows[0].len());
    }
}
