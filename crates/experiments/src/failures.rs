//! Failure-domain and spot-market experiments.
//!
//! Two questions the paper's static setting leaves open, answered with
//! the simulator's failure machinery:
//!
//! * [`failure_domains`] — crash each strategy's busiest VM halfway
//!   through its plan: how much survives, what does greedy recovery
//!   cost? (The blast-radius flip side of packing savings.)
//! * [`spot_economics`] — run every VM of each plan on spot instances
//!   (discounted, interruptible): sampled interruptions become VM
//!   failures; the expected spend (with retries) is compared against
//!   on-demand.

use crate::report::{fmt_f, Table};
use crate::run::ExperimentConfig;
use cws_core::Strategy;
use cws_dag::Workflow;
use cws_platform::SpotMarket;
use cws_sim::{failure_impact, recover, VmFailure};
use cws_workloads::Scenario;

/// One strategy's crash resilience.
#[derive(Debug, Clone)]
pub struct FailureRow {
    /// Strategy label.
    pub label: String,
    /// VMs in the plan.
    pub vms: usize,
    /// Fraction of tasks completing despite the crash.
    pub survival_rate: f64,
    /// Makespan after greedy recovery of the lost tasks.
    pub recovered_makespan: f64,
    /// Extra rent for recovery, USD.
    pub recovery_cost: f64,
}

/// Crash the busiest VM of each strategy's plan at `fraction` of its
/// makespan and account for recovery.
#[must_use]
pub fn failure_domains(config: &ExperimentConfig, wf: &Workflow, fraction: f64) -> Vec<FailureRow> {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "crash fraction must be in [0, 1], got {fraction}"
    );
    let m = config.materialize(wf, Scenario::Pareto { seed: config.seed });
    Strategy::paper_set()
        .into_iter()
        .map(|strategy| {
            let s = strategy.schedule(&m, &config.platform);
            let busiest = s
                .vms
                .iter()
                .max_by(|a, b| a.meter.busy.total_cmp(&b.meter.busy))
                .expect("plans have VMs")
                .id;
            let crash_at = s.makespan() * fraction;
            let impact = failure_impact(
                &m,
                &config.platform,
                &s,
                &[VmFailure {
                    vm: busiest,
                    at: crash_at,
                }],
            );
            let rec = recover(
                &m,
                &config.platform,
                &s,
                &impact,
                crash_at,
                cws_platform::InstanceType::Small,
            );
            FailureRow {
                label: strategy.label(),
                vms: s.vm_count(),
                survival_rate: impact.completion_rate(),
                recovered_makespan: rec.recovered_makespan,
                recovery_cost: rec.extra_cost,
            }
        })
        .collect()
}

/// One strategy's spot-market economics.
#[derive(Debug, Clone)]
pub struct SpotRow {
    /// Strategy label.
    pub label: String,
    /// On-demand cost, USD.
    pub on_demand_cost: f64,
    /// Expected spot cost with retries, USD.
    pub expected_spot_cost: f64,
    /// Fraction of sampled runs with at least one interruption.
    pub interruption_rate: f64,
}

/// Price every plan on the spot market and sample interruption rates
/// over `trials` seeded draws.
#[must_use]
pub fn spot_economics(
    config: &ExperimentConfig,
    wf: &Workflow,
    market: SpotMarket,
    trials: u64,
) -> Vec<SpotRow> {
    assert!(trials >= 1, "need at least one trial");
    let m = config.materialize(wf, Scenario::Pareto { seed: config.seed });
    let small_price = config.platform.price(cws_platform::InstanceType::Small);
    Strategy::paper_set()
        .into_iter()
        .map(|strategy| {
            let s = strategy.schedule(&m, &config.platform);
            let on_demand = s.total_cost(&m, &config.platform);
            let expected: f64 = s
                .vms
                .iter()
                .map(|vm| market.expected_cost(vm.itype, small_price, vm.meter.busy))
                .sum();
            let mut interrupted_runs = 0u64;
            for trial in 0..trials {
                let any = s.vms.iter().enumerate().any(|(i, vm)| {
                    market
                        .sample_interruption(vm.meter.busy, config.seed ^ (trial << 16) ^ i as u64)
                        .is_some()
                });
                if any {
                    interrupted_runs += 1;
                }
            }
            SpotRow {
                label: strategy.label(),
                on_demand_cost: on_demand,
                expected_spot_cost: expected,
                interruption_rate: interrupted_runs as f64 / trials as f64,
            }
        })
        .collect()
}

/// Render the failure rows as a table.
#[must_use]
pub fn failure_report(workflow: &str, fraction: f64, rows: &[FailureRow]) -> Table {
    let mut t = Table::new(
        format!(
            "Failure domains — {workflow}, busiest VM crashed at {:.0}% of makespan",
            fraction * 100.0
        ),
        &[
            "strategy",
            "vms",
            "survival_rate",
            "recovered_makespan_s",
            "recovery_cost_usd",
        ],
    );
    for r in rows {
        t.row(vec![
            r.label.clone(),
            r.vms.to_string(),
            fmt_f(r.survival_rate, 2),
            fmt_f(r.recovered_makespan, 0),
            fmt_f(r.recovery_cost, 2),
        ]);
    }
    t
}

/// Render the spot rows as a table.
#[must_use]
pub fn spot_report(workflow: &str, market: SpotMarket, rows: &[SpotRow]) -> Table {
    let mut t = Table::new(
        format!(
            "Spot economics — {workflow} ({}% of on-demand, {:.0}%/h interruption hazard)",
            (market.price_fraction * 100.0) as u32,
            market.hourly_interruption_prob * 100.0
        ),
        &[
            "strategy",
            "on_demand_usd",
            "expected_spot_usd",
            "interruption_rate",
        ],
    );
    for r in rows {
        t.row(vec![
            r.label.clone(),
            fmt_f(r.on_demand_cost, 3),
            fmt_f(r.expected_spot_cost, 3),
            fmt_f(r.interruption_rate, 2),
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
    fn failure_rows_cover_strategies_and_bound_rates() {
        let rows = failure_domains(&cfg(), &montage_24(), 0.5);
        assert_eq!(rows.len(), 19);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.survival_rate), "{}", r.label);
            assert!(r.recovery_cost >= 0.0);
        }
    }

    #[test]
    fn scattering_survives_better_than_full_packing() {
        let rows = failure_domains(&cfg(), &montage_24(), 0.5);
        let find = |l: &str| rows.iter().find(|r| r.label == l).unwrap();
        assert!(
            find("OneVMperTask-s").survival_rate >= find("StartParExceed-s").survival_rate,
            "more failure domains must not survive worse"
        );
    }

    #[test]
    fn spot_discount_shows_up_in_expected_cost() {
        let market = SpotMarket::default();
        let rows = spot_economics(&cfg(), &montage_24(), market, 5);
        assert_eq!(rows.len(), 19);
        for r in &rows {
            assert!(
                r.expected_spot_cost < r.on_demand_cost,
                "{}: spot {} vs on-demand {}",
                r.label,
                r.expected_spot_cost,
                r.on_demand_cost
            );
            assert!((0.0..=1.0).contains(&r.interruption_rate));
        }
    }

    #[test]
    fn reports_render() {
        let f = failure_domains(&cfg(), &montage_24(), 0.5);
        assert_eq!(failure_report("montage-24", 0.5, &f).rows.len(), 19);
        let s = spot_economics(&cfg(), &montage_24(), SpotMarket::default(), 3);
        assert_eq!(
            spot_report("montage-24", SpotMarket::default(), &s)
                .rows
                .len(),
            19
        );
    }

    #[test]
    #[should_panic(expected = "crash fraction")]
    fn bad_fraction_rejected() {
        let _ = failure_domains(&cfg(), &montage_24(), 1.5);
    }
}
