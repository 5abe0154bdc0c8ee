//! Spot vs on-demand: pricing the interruption risk.
//!
//! The paper's co-rent remark points at the spot market. This example
//! prices each provisioning policy's plan on spot instances across a
//! range of interruption hazards, showing where the discount stops
//! paying for the retries — and ties a sampled interruption back into
//! the failure-impact machinery.
//!
//! ```text
//! cargo run --example spot_vs_ondemand
//! ```

use cloud_workflow_sched::core::VmId;
use cloud_workflow_sched::platform::SpotMarket;
use cloud_workflow_sched::prelude::*;
use cloud_workflow_sched::sim::{failure_impact, VmFailure};

fn main() {
    let platform = Platform::ec2_paper();
    let wf = Scenario::Pareto { seed: 51 }.apply(&montage_24());
    let plan = Strategy::parse("AllParExceed-s")
        .unwrap()
        .schedule(&wf, &platform);
    let on_demand = plan.total_cost(&wf, &platform);
    let small = platform.price(InstanceType::Small);

    println!(
        "plan {} on {}: on-demand ${:.2}\n",
        plan.strategy,
        wf.name(),
        on_demand
    );
    println!(
        "{:>10} {:>16} {:>14}",
        "hazard/h", "expected_spot_usd", "vs_on_demand"
    );
    for hazard in [0.01, 0.05, 0.1, 0.3, 0.5, 0.69, 0.8] {
        let market = SpotMarket::new(0.3, hazard);
        let expected: f64 = plan
            .vms
            .iter()
            .map(|vm| market.expected_cost(vm.itype, small, vm.meter.busy))
            .sum();
        println!(
            "{:>10.2} {:>16.3} {:>13.0}%",
            hazard,
            expected,
            100.0 * (expected - on_demand) / on_demand
        );
    }
    let market = SpotMarket::new(0.3, 0.05);
    println!(
        "\nbreak-even hazard for a 70% discount: {:.0}%/h",
        market.break_even_hazard() * 100.0
    );

    // One sampled interruption, traced through the failure machinery.
    if let Some(at) = market.sample_interruption(plan.makespan(), 4) {
        let victim = VmId(0);
        let impact = failure_impact(&wf, &platform, &plan, &[VmFailure { vm: victim, at }]);
        println!(
            "sampled interruption of {victim} at {:.0}s: {:.0}% of tasks survive",
            at,
            impact.completion_rate() * 100.0
        );
    } else {
        println!("no interruption sampled within the plan's makespan (seed 4)");
    }
}
