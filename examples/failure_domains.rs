//! Failure domains: what one VM crash costs each provisioning policy.
//!
//! Static plans concentrate risk differently: `StartParExceed` puts the
//! whole workflow on one VM (one crash loses everything downstream),
//! while `OneVMperTask` spreads each task across its own failure domain.
//! This example crashes the busiest VM of each strategy's plan halfway
//! through execution and reports survival and recovery economics.
//!
//! ```text
//! cargo run --example failure_domains
//! ```

use cloud_workflow_sched::core::VmId;
use cloud_workflow_sched::prelude::*;
use cloud_workflow_sched::sim::{failure_impact, recover, VmFailure};

fn main() {
    let platform = Platform::ec2_paper();
    let wf = Scenario::Pareto { seed: 31 }.apply(&montage_24());
    println!(
        "workflow {} ({} tasks); crashing each plan's busiest VM at 50% of its makespan\n",
        wf.name(),
        wf.len()
    );

    println!(
        "{:<22} {:>5} {:>10} {:>10} {:>12} {:>10}",
        "strategy", "vms", "survive%", "lost", "recovered_s", "extra_usd"
    );
    for label in [
        "OneVMperTask-s",
        "StartParNotExceed-s",
        "StartParExceed-s",
        "AllParExceed-s",
        "AllPar1LnS",
        "CPA-Eager",
    ] {
        let s = Strategy::parse(label)
            .expect("known label")
            .schedule(&wf, &platform);
        let busiest = (0u32..)
            .zip(&s.vms)
            .max_by(|(_, a), (_, b)| a.meter.busy.total_cmp(&b.meter.busy))
            .map(|(v, _)| VmId(v))
            .expect("at least one VM");
        let crash_at = s.makespan() / 2.0;
        let impact = failure_impact(
            &wf,
            &platform,
            &s,
            &[VmFailure {
                vm: busiest,
                at: crash_at,
            }],
        );
        let rec = recover(&wf, &platform, &s, &impact, crash_at, InstanceType::Small);
        println!(
            "{:<22} {:>5} {:>10.0} {:>10} {:>12.0} {:>10.2}",
            s.strategy,
            s.vm_count(),
            impact.completion_rate() * 100.0,
            impact.lost.len(),
            rec.recovered_makespan,
            rec.extra_cost
        );
    }

    println!(
        "\nPacking strategies trade money for blast radius: the fewer the VMs,\n\
         the more a single crash takes down — the flip side of their savings."
    );
}
