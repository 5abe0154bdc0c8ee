//! Every parallel fan-out is invisible: each driver built on
//! `cws_core::par_map` renders the same bytes at 1, 2 and 8 threads.
//! The per-crate tests cover each driver in more depth; this copy keeps
//! a fan-out regression visible to the root `cargo test`.

use cloud_workflow_sched::experiments::run::ExperimentConfig;
use cloud_workflow_sched::experiments::service_sweep::{run_campaign, CampaignSpec};
use cloud_workflow_sched::experiments::{fig4, spot, sweep, trace_sweep};
use cloud_workflow_sched::platform::SpotMarket;
use cloud_workflow_sched::prelude::*;
use cloud_workflow_sched::service::{ReclaimPolicy, TenantSpec, WorkloadKind};

/// Render `render(threads)` at 1, 2 and 8 threads and require the
/// same bytes each time.
fn assert_thread_invariant(what: &str, render: impl Fn(usize) -> String) {
    let one = render(1);
    assert!(!one.is_empty(), "{what} rendered nothing");
    for threads in [2, 8] {
        assert!(
            render(threads) == one,
            "{what} diverged at {threads} threads"
        );
    }
}

fn quiet() -> ExperimentConfig {
    ExperimentConfig {
        validate_with_sim: false,
        ..ExperimentConfig::default()
    }
}

#[test]
fn fig4_is_thread_invariant() {
    let config = ExperimentConfig::default();
    assert_thread_invariant("fig4", |threads| {
        fig4::fig4_threaded(&config, threads)
            .iter()
            .map(|panel| panel.to_table().to_csv())
            .collect()
    });
}

#[test]
fn spot_frontier_is_thread_invariant() {
    let config = quiet();
    let market = SpotMarket::default();
    assert_thread_invariant("spot frontier", |threads| {
        let rows = spot::spot_frontier(&config, &montage_24(), market, threads);
        spot::spot_frontier_report("montage-24", market, &rows).to_csv()
    });
}

#[test]
fn trace_sweep_is_thread_invariant() {
    let config = ExperimentConfig::default();
    let wf = montage_24();
    assert_thread_invariant("trace sweep", |threads| {
        trace_sweep::trace_sweep(&config, &wf, threads)
            .to_table()
            .to_csv()
    });
}

#[test]
fn grid_is_thread_invariant() {
    let config = quiet();
    let workflows = [montage_24(), mapreduce_default()];
    let scenarios = config.scenarios();
    let strategies = Strategy::paper_set();
    assert_thread_invariant("grid", |threads| {
        let cells = sweep::run_grid(&config, &workflows, &scenarios, &strategies, threads);
        assert_eq!(cells.len(), 2 * 3 * 19);
        format!("{cells:?}")
    });
}

#[test]
fn campaign_is_thread_invariant() {
    let tenant = |name: &str, kind| TenantSpec {
        name: name.to_string(),
        kind,
        rate_per_hour: 0.0,
    };
    let spec = CampaignSpec {
        rates_per_hour: vec![2.0, 6.0],
        strategies: vec![
            (StaticAlloc::HeftOneVmPerTask, InstanceType::Small),
            (StaticAlloc::HeftStartParExceed, InstanceType::Small),
        ],
        reclaims: vec![ReclaimPolicy::Immediate, ReclaimPolicy::AtBtuBoundary],
        tenants: vec![
            tenant("astro", WorkloadKind::Montage24),
            tenant("bot", WorkloadKind::BagOfTasks(10)),
        ],
        horizon_s: 2.0 * 3600.0,
        boot_time_s: 60.0,
        seed: 42,
    };
    let platform = Platform::ec2_paper();
    assert_thread_invariant("campaign", |threads| {
        run_campaign(&platform, &spec, threads).to_json()
    });
}
