//! Fleet composition: what each strategy actually rents.
//!
//! Complements Fig. 4/5 with the operational view: VM counts by instance
//! type, billed BTUs, peak concurrent VMs and utilization per strategy.

use crate::report::{fmt_f, Table};
use crate::run::ExperimentConfig;
use cws_core::{Schedule, Strategy};
use cws_dag::Workflow;
use cws_platform::InstanceType;
use cws_workloads::Scenario;

/// Fleet statistics of one strategy.
#[derive(Debug, Clone)]
pub struct FleetRow {
    /// Strategy label.
    pub label: String,
    /// VM counts `[small, medium, large, xlarge]`.
    pub by_type: [usize; 4],
    /// Total billed BTUs.
    pub btus: u64,
    /// Maximum number of VMs busy at the same instant.
    pub peak_concurrency: usize,
    /// Busy/billed fraction.
    pub utilization: f64,
}

/// Peak number of VMs simultaneously executing a task.
#[must_use]
pub fn peak_concurrency(schedule: &Schedule) -> usize {
    // sweep over task interval endpoints
    let mut events: Vec<(f64, i64)> = Vec::new();
    for p in &schedule.placements {
        events.push((p.start, 1));
        events.push((p.finish, -1));
    }
    events.sort_by(|a, b| {
        a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)) // process finishes before starts at ties
    });
    let mut cur = 0i64;
    let mut peak = 0i64;
    for (_, d) in events {
        cur += d;
        peak = peak.max(cur);
    }
    peak as usize
}

/// Fleet rows for every paper strategy on one workflow.
#[must_use]
pub fn fleet(config: &ExperimentConfig, wf: &Workflow) -> Vec<FleetRow> {
    let m = config.materialize(wf, Scenario::Pareto { seed: config.seed });
    Strategy::paper_set()
        .into_iter()
        .map(|strategy| {
            let s = strategy.schedule(&m, &config.platform);
            let mut by_type = [0usize; 4];
            for vm in &s.vms {
                let i = InstanceType::ALL
                    .iter()
                    .position(|&t| t == vm.itype)
                    .expect("known type");
                by_type[i] += 1;
            }
            FleetRow {
                label: strategy.label(),
                by_type,
                btus: s.total_btus(),
                peak_concurrency: peak_concurrency(&s),
                utilization: s.utilization(),
            }
        })
        .collect()
}

/// Render rows as a table.
#[must_use]
pub fn fleet_report(workflow: &str, rows: &[FleetRow]) -> Table {
    let mut t = Table::new(
        format!("Fleet composition — {workflow}"),
        &[
            "strategy",
            "small",
            "medium",
            "large",
            "xlarge",
            "btus",
            "peak_concurrency",
            "utilization",
        ],
    );
    for r in rows {
        t.row(vec![
            r.label.clone(),
            r.by_type[0].to_string(),
            r.by_type[1].to_string(),
            r.by_type[2].to_string(),
            r.by_type[3].to_string(),
            r.btus.to_string(),
            r.peak_concurrency.to_string(),
            fmt_f(r.utilization, 2),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_workloads::montage_24;

    fn rows() -> Vec<FleetRow> {
        fleet(
            &ExperimentConfig {
                validate_with_sim: false,
                ..ExperimentConfig::default()
            },
            &montage_24(),
        )
    }

    #[test]
    fn covers_strategies_with_sane_bounds() {
        let rs = rows();
        assert_eq!(rs.len(), 19);
        for r in &rs {
            let total: usize = r.by_type.iter().sum();
            assert!(total >= 1, "{}", r.label);
            assert!(r.peak_concurrency <= total.max(1), "{}", r.label);
            assert!((0.0..=1.0 + 1e-9).contains(&r.utilization));
        }
    }

    #[test]
    fn homogeneous_strategies_rent_one_type() {
        let rs = rows();
        let one_s = rs.iter().find(|r| r.label == "OneVMperTask-s").unwrap();
        assert_eq!(one_s.by_type[0], 24);
        assert_eq!(one_s.by_type[1] + one_s.by_type[2] + one_s.by_type[3], 0);
        let all_m = rs.iter().find(|r| r.label == "AllParExceed-m").unwrap();
        assert_eq!(all_m.by_type[0], 0);
        assert!(all_m.by_type[1] > 0);
    }

    #[test]
    fn peak_concurrency_respects_level_width() {
        // Montage's widest level is 8, so a parallel strategy peaks at 8.
        let rs = rows();
        let all_par = rs.iter().find(|r| r.label == "AllParExceed-s").unwrap();
        assert_eq!(all_par.peak_concurrency, 8);
        let serial = rs.iter().find(|r| r.label == "StartParExceed-s").unwrap();
        assert!(serial.peak_concurrency <= 5, "5 entry VMs at most");
    }

    #[test]
    fn peak_concurrency_of_hand_schedule() {
        use cws_core::{Schedule, TaskPlacement, Vm, VmId};
        use cws_platform::{InstanceType, Region};
        let mut vm0 = Vm::new(InstanceType::Small, Region::UsEastVirginia, 0.0);
        vm0.push_task(cws_dag::TaskId(0), 0.0, 10.0);
        let mut vm1 = Vm::new(InstanceType::Small, Region::UsEastVirginia, 5.0);
        vm1.push_task(cws_dag::TaskId(1), 5.0, 15.0);
        let s = Schedule {
            strategy: "hand".into(),
            vms: vec![vm0, vm1],
            placements: vec![
                TaskPlacement {
                    vm: VmId(0),
                    start: 0.0,
                    finish: 10.0,
                },
                TaskPlacement {
                    vm: VmId(1),
                    start: 5.0,
                    finish: 15.0,
                },
            ],
        };
        assert_eq!(peak_concurrency(&s), 2);
    }

    #[test]
    fn report_renders() {
        let t = fleet_report("montage-24", &rows());
        assert_eq!(t.rows.len(), 19);
    }
}
