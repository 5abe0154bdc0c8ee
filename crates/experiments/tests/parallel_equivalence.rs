//! The parallel experiment paths must be *byte-identical* for any
//! `--threads` value: cells are independent, each is computed exactly as
//! in the sequential path, and results are merged back in deterministic
//! grid order. These tests compare the full Debug rendering (every f64
//! printed exactly) of a 1-thread and an 8-thread run.

use cws_experiments::run::{prepare, run_matrix, ExperimentConfig};
use cws_experiments::{fig4, fig5, table3, table4, table5};
use cws_workloads::{paper_workflows, Scenario};

fn quiet() -> ExperimentConfig {
    // Replay validation is covered by the crates' own tests; skip it here
    // because this file runs every figure/table path twice.
    ExperimentConfig {
        validate_with_sim: false,
        ..ExperimentConfig::default()
    }
}

#[test]
fn run_matrix_is_identical_across_thread_counts() {
    let cfg = quiet();
    let scenario = Scenario::Pareto { seed: cfg.seed };
    let prepared: Vec<_> = paper_workflows()
        .iter()
        .map(|wf| prepare(&cfg, cfg.materialize(wf, scenario)))
        .collect();
    let strategies = cws_core::Strategy::paper_set();
    let one = run_matrix(&cfg, &prepared, &strategies, 1);
    let eight = run_matrix(&cfg, &prepared, &strategies, 8);
    assert_eq!(format!("{one:?}"), format!("{eight:?}"));
}

#[test]
fn fig4_is_identical_across_thread_counts() {
    let cfg = quiet();
    let one = fig4::fig4_threaded(&cfg, 1);
    let eight = fig4::fig4_threaded(&cfg, 8);
    assert_eq!(format!("{one:?}"), format!("{eight:?}"));
}

#[test]
fn fig5_is_identical_across_thread_counts() {
    let cfg = quiet();
    let one = fig5::fig5_threaded(&cfg, 1);
    let eight = fig5::fig5_threaded(&cfg, 8);
    assert_eq!(format!("{one:?}"), format!("{eight:?}"));
}

#[test]
fn table3_is_identical_across_thread_counts() {
    let cfg = quiet();
    let one = table3::table3_threaded(&cfg, 1);
    let eight = table3::table3_threaded(&cfg, 8);
    assert_eq!(format!("{one:?}"), format!("{eight:?}"));
}

#[test]
fn table4_is_identical_across_thread_counts() {
    let cfg = quiet();
    let one = table4::table4_threaded(&cfg, 1);
    let eight = table4::table4_threaded(&cfg, 8);
    // Rendered reports (the artifact users diff) must also match.
    assert_eq!(format!("{one:?}"), format!("{eight:?}"));
    assert_eq!(
        table4::table4_report(&one).to_csv(),
        table4::table4_report(&eight).to_csv()
    );
}

#[test]
fn table5_is_identical_across_thread_counts() {
    let cfg = quiet();
    let one = table5::table5_threaded(&cfg, 1);
    let eight = table5::table5_threaded(&cfg, 8);
    assert_eq!(format!("{one:?}"), format!("{eight:?}"));
}
