//! The scheduler as a service: workflows arriving over time against a
//! shared warm-VM pool.
//!
//! The paper evaluates every provisioning × allocation pairing on
//! one-shot submissions: rent, run, terminate. `cws-serve` asks the
//! follow-up question — what happens when the same strategies operate a
//! long-running multi-tenant service, where machines left warm by one
//! submission can be claimed by the next? This example runs three
//! tenants (Montage, CSTEM, a bag-of-tasks) through a 6-hour Poisson
//! arrival process twice — once with Immediate reclaim (the paper's
//! one-shot model run online) and once keeping idle machines to their
//! BTU boundary — and prints the per-tenant and fleet ledgers.
//!
//! ```text
//! cargo run --example service_arrivals
//! ```

use cloud_workflow_sched::prelude::*;
use cloud_workflow_sched::service::{
    ArrivalModel, ReclaimPolicy, ServiceConfig, TenantSpec, WorkloadKind,
};
use cws_serve::{run_sharded_service, ShardedConfig};

fn main() {
    let platform = Platform::ec2_paper();

    let tenants = vec![
        TenantSpec {
            name: "astro".to_string(),
            kind: WorkloadKind::Montage24,
            rate_per_hour: 3.0,
        },
        TenantSpec {
            name: "climate".to_string(),
            kind: WorkloadKind::CStem,
            rate_per_hour: 2.0,
        },
        TenantSpec {
            name: "batch".to_string(),
            kind: WorkloadKind::BagOfTasks(16),
            rate_per_hour: 3.0,
        },
    ];

    for reclaim in [ReclaimPolicy::Immediate, ReclaimPolicy::AtBtuBoundary] {
        let cfg = ServiceConfig {
            alloc: StaticAlloc::HeftStartParExceed,
            itype: InstanceType::Small,
            reclaim,
            boot_time_s: 60.0,
            tenants: tenants.clone(),
            model: ArrivalModel::Poisson {
                horizon_s: 6.0 * 3600.0,
            },
            seed: 42,
        };
        let report = run_sharded_service(&platform, &ShardedConfig::new(cfg));
        let f = &report.fleet;

        println!(
            "\n=== {} under {} reclaim (60 s boot) ===",
            report.strategy, report.reclaim
        );
        println!(
            "  {:<10} {:>9} {:>10} {:>9} {:>9} {:>9}",
            "tenant", "workflows", "makespan_s", "gain_pct", "queue_s", "cost_usd"
        );
        for t in &report.tenants {
            println!(
                "  {:<10} {:>9} {:>10.0} {:>9.2} {:>9.1} {:>9.2}",
                t.name,
                t.workflows,
                t.mean_makespan_s,
                t.mean_gain_pct,
                t.mean_queue_delay_s,
                t.cost_usd
            );
        }
        println!(
            "  fleet: {} workflows on {} VMs — {} BTUs (${:.2}), \
             hit rate {:.2}, idle ratio {:.2}",
            f.workflows, f.vms, f.billed_btus, f.cost_usd, f.hit_rate, f.idle_ratio
        );
    }

    println!(
        "\nImmediate reclaim reproduces the paper's one-shot billing online; \
         the BTU-boundary\npool turns paid-but-idle time into warm starts — \
         compare hit rates, idle ratios and\nthe cost column to see what \
         keeping machines warm buys (or burns)."
    );
}
