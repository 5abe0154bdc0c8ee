//! Co-rent analysis: leasing idle VM time back to other users.
//!
//! Sect. V: "Given the large idle times their best use could be in a
//! co-rent scenario where idle time is leased to other users and the
//! user is partially reimbursed." This module quantifies that: the
//! effective cost of a strategy becomes
//! `cost − reimbursement_fraction × small_price × idle_hours`, i.e. idle
//! hours are resold at a fraction of the small-instance price (the spot
//! market analogy the paper draws).

use crate::report::{fmt_f, Table};
use crate::run::{prepare, run_matrix, ExperimentConfig};
use cws_core::Strategy;
use cws_dag::Workflow;
use cws_platform::{InstanceType, BTU_SECONDS};
use cws_workloads::Scenario;

/// One strategy's economics under co-renting.
#[derive(Debug, Clone)]
pub struct CoRentEntry {
    /// Strategy legend label.
    pub label: String,
    /// Rental cost without co-renting (USD).
    pub cost: f64,
    /// Idle hours across the strategy's VMs.
    pub idle_hours: f64,
    /// Reimbursement earned by leasing the idle time (USD).
    pub reimbursement: f64,
    /// `cost − reimbursement`.
    pub effective_cost: f64,
}

/// Co-rent analysis for one workflow under a scenario.
/// `reimbursement_fraction` is the share of the small-instance hourly
/// price recovered per leased idle hour (e.g. 0.3 for a spot-like
/// discount).
///
/// # Panics
/// Panics unless the fraction is within `[0, 1]`.
#[must_use]
pub fn corent(
    config: &ExperimentConfig,
    wf: &Workflow,
    scenario: Scenario,
    reimbursement_fraction: f64,
) -> Vec<CoRentEntry> {
    assert!(
        (0.0..=1.0).contains(&reimbursement_fraction),
        "reimbursement fraction must be in [0, 1], got {reimbursement_fraction}"
    );
    let prepared = [prepare(config, config.materialize(wf, scenario))];
    let rate = reimbursement_fraction * config.platform.price(InstanceType::Small);
    run_matrix(config, &prepared, &Strategy::paper_set(), 1)
        .into_iter()
        .flatten()
        .map(|r| {
            let idle_hours = r.metrics.idle_seconds / BTU_SECONDS;
            let reimbursement = rate * idle_hours;
            CoRentEntry {
                label: r.label,
                cost: r.metrics.cost,
                idle_hours,
                reimbursement,
                effective_cost: r.metrics.cost - reimbursement,
            }
        })
        .collect()
}

/// Render entries as one table.
#[must_use]
pub fn corent_report(workflow: &str, entries: &[CoRentEntry]) -> Table {
    let mut t = Table::new(
        format!("Co-rent analysis — {workflow}"),
        &[
            "strategy",
            "cost_usd",
            "idle_hours",
            "reimbursement_usd",
            "effective_cost_usd",
        ],
    );
    for e in entries {
        t.row(vec![
            e.label.clone(),
            fmt_f(e.cost, 3),
            fmt_f(e.idle_hours, 1),
            fmt_f(e.reimbursement, 3),
            fmt_f(e.effective_cost, 3),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_workloads::montage_24;

    fn entries() -> Vec<CoRentEntry> {
        corent(
            &ExperimentConfig::default(),
            &montage_24(),
            Scenario::Pareto { seed: 42 },
            0.3,
        )
    }

    #[test]
    fn effective_cost_is_cost_minus_reimbursement() {
        for e in entries() {
            assert!((e.effective_cost - (e.cost - e.reimbursement)).abs() < 1e-12);
            assert!(e.reimbursement >= 0.0);
        }
    }

    #[test]
    fn idle_heavy_strategies_benefit_most() {
        // OneVMperTask wastes the most time, so it recovers the most.
        let es = entries();
        let find = |l: &str| es.iter().find(|e| e.label == l).unwrap();
        let one = find("OneVMperTask-s");
        let packed = find("StartParExceed-s");
        assert!(one.reimbursement >= packed.reimbursement);
    }

    #[test]
    fn zero_fraction_changes_nothing() {
        let es = corent(
            &ExperimentConfig::default(),
            &montage_24(),
            Scenario::BestCase,
            0.0,
        );
        for e in es {
            assert_eq!(e.effective_cost, e.cost);
        }
    }

    #[test]
    #[should_panic(expected = "reimbursement fraction")]
    fn out_of_range_fraction_rejected() {
        let _ = corent(
            &ExperimentConfig::default(),
            &montage_24(),
            Scenario::BestCase,
            1.5,
        );
    }

    #[test]
    fn report_renders() {
        let t = corent_report("montage-24", &entries());
        assert_eq!(t.rows.len(), 19);
    }
}
