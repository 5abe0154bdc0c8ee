//! Energy restatement of Fig. 5.
//!
//! The paper: idle VMs "consume energy for no intended purpose". This
//! experiment converts each strategy's busy/billed time into consumed
//! energy (via [`cws_platform::EnergyModel`]) and splits out the share
//! wasted on idle cores — the energy-aware reading of the idle-time
//! comparison.

use crate::report::{fmt_f, Table};
use crate::run::{self, ExperimentConfig};
use cws_core::{ScheduleMetrics, Strategy};
use cws_dag::Workflow;
use cws_platform::EnergyModel;
use cws_workloads::Scenario;

/// Energy account of one strategy.
#[derive(Debug, Clone)]
pub struct EnergyRow {
    /// Strategy label.
    pub label: String,
    /// Total energy consumed, kWh.
    pub total_kwh: f64,
    /// Energy spent while executing tasks, kWh.
    pub busy_kwh: f64,
    /// Energy wasted on idle rented cores, kWh.
    pub idle_kwh: f64,
    /// `idle / total` fraction.
    pub waste_fraction: f64,
}

/// Compute the energy account for all 19 strategies on one workflow
/// under Pareto runtimes.
#[must_use]
pub fn energy_accounting(
    config: &ExperimentConfig,
    wf: &Workflow,
    model: EnergyModel,
) -> Vec<EnergyRow> {
    let m = config.materialize(wf, Scenario::Pareto { seed: config.seed });
    Strategy::paper_set()
        .into_iter()
        .map(|strategy| {
            let s = strategy.schedule(&m, &config.platform);
            run::check(config, &m, &s);
            // Publishes the run.* gauges a traced run reconciles against.
            let _ = ScheduleMetrics::of(&s, &m, &config.platform);
            let mut busy_j = 0.0;
            let mut total_j = 0.0;
            for vm in &s.vms {
                let billed = vm.meter.billed_seconds();
                total_j += model.vm_energy_j(vm.itype, vm.meter.busy, billed);
                busy_j += model.vm_energy_j(vm.itype, vm.meter.busy, vm.meter.busy);
            }
            let idle_j = total_j - busy_j;
            EnergyRow {
                label: strategy.label(),
                total_kwh: EnergyModel::to_kwh(total_j),
                busy_kwh: EnergyModel::to_kwh(busy_j),
                idle_kwh: EnergyModel::to_kwh(idle_j),
                waste_fraction: if total_j > 0.0 { idle_j / total_j } else { 0.0 },
            }
        })
        .collect()
}

/// Render as a table.
#[must_use]
pub fn energy_report(workflow: &str, rows: &[EnergyRow]) -> Table {
    let mut t = Table::new(
        format!("Energy accounting — {workflow}"),
        &[
            "strategy",
            "total_kwh",
            "busy_kwh",
            "idle_kwh",
            "waste_fraction",
        ],
    );
    for r in rows {
        t.row(vec![
            r.label.clone(),
            fmt_f(r.total_kwh, 3),
            fmt_f(r.busy_kwh, 3),
            fmt_f(r.idle_kwh, 3),
            fmt_f(r.waste_fraction, 2),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_workloads::montage_24;

    fn rows() -> Vec<EnergyRow> {
        energy_accounting(
            &ExperimentConfig {
                validate_with_sim: false,
                ..ExperimentConfig::default()
            },
            &montage_24(),
            EnergyModel::default(),
        )
    }

    #[test]
    fn covers_all_strategies_and_balances() {
        let rs = rows();
        assert_eq!(rs.len(), 19);
        for r in &rs {
            assert!(
                (r.total_kwh - (r.busy_kwh + r.idle_kwh)).abs() < 1e-9,
                "{}",
                r.label
            );
            assert!((0.0..=1.0).contains(&r.waste_fraction));
        }
    }

    #[test]
    fn one_vm_per_task_wastes_most_energy() {
        // The energy-aware restatement of the paper's idle-time claim.
        let rs = rows();
        let find = |l: &str| rs.iter().find(|r| r.label == l).unwrap();
        let one = find("OneVMperTask-s");
        let packed = find("StartParExceed-s");
        assert!(one.idle_kwh > packed.idle_kwh);
        assert!(one.waste_fraction > packed.waste_fraction);
    }

    #[test]
    fn busy_energy_is_strategy_type_dependent() {
        // The same work on bigger cores costs more busy energy (8 cores
        // at the same per-core draw for 1/2.7 the time).
        let rs = rows();
        let find = |l: &str| rs.iter().find(|r| r.label == l).unwrap();
        assert!(
            find("OneVMperTask-l").busy_kwh > find("OneVMperTask-s").busy_kwh,
            "4 cores at 1/2.1 duration still draw more"
        );
    }

    #[test]
    fn report_renders() {
        let t = energy_report("montage-24", &rows());
        assert_eq!(t.rows.len(), 19);
    }
}
