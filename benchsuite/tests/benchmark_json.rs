//! `BENCHMARK.json` at the repository root must name the same
//! workloads, metrics, units, directions and bounds as the harness's
//! own tables, and every per-layer metric must target an end-to-end
//! metric that exists.

use cws_benchsuite::{end_to_end, per_layer, Metric, TARGETS, WORKLOADS};
use cws_obs::json::{parse, Value};

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
}

fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("entry without string {key}"))
}

/// `(name, unit, better, bound)` rows of one metric list.
fn rows(v: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
    list(v, key)
        .iter()
        .map(|m| {
            (
                str_field(m, "name").to_string(),
                str_field(m, "unit").to_string(),
                str_field(m, "better").to_string(),
                m.get("bound").and_then(Value::as_f64),
            )
        })
        .collect()
}

fn expected(metrics: &[Metric]) -> Vec<(String, String, String, Option<f64>)> {
    metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                m.unit.to_string(),
                m.better.as_str().to_string(),
                m.bound,
            )
        })
        .collect()
}

#[test]
fn workloads_match_the_harness() {
    let b = benchmark();
    let got: Vec<(&str, &str)> = list(&b, "workloads")
        .iter()
        .map(|w| (str_field(w, "name"), str_field(w, "why")))
        .collect();
    let want: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(got, want);
}

#[test]
fn metric_lists_match_the_harness() {
    let b = benchmark();
    assert_eq!(rows(&b, "end_to_end"), expected(&end_to_end()));
    assert_eq!(rows(&b, "per_layer"), expected(&per_layer()));
    assert!(
        end_to_end()
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"),
        "the contract requires setup_s in seconds"
    );
}

#[test]
fn every_layer_metric_targets_an_existing_end_to_end_metric() {
    let e2e: Vec<String> = end_to_end().into_iter().map(|m| m.name).collect();
    for m in per_layer() {
        if m.name.starts_with("trace.") {
            continue;
        }
        let t = TARGETS
            .iter()
            .find(|t| m.name == t.layer || m.name.starts_with(&format!("{}.", t.layer)))
            .unwrap_or_else(|| panic!("{} has no target", m.name));
        for target in t.metrics {
            assert!(
                e2e.iter().any(|n| n == target),
                "{}: unknown metric {target}",
                m.name
            );
        }
        for w in t.workloads {
            assert!(
                WORKLOADS.iter().any(|x| x.name == *w),
                "{}: unknown workload {w}",
                m.name
            );
        }
    }
}

#[test]
fn command_builds_this_package() {
    let b = benchmark();
    let command: Vec<&str> = list(&b, "command")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert!(command.contains(&"benchsuite/Cargo.toml"), "{command:?}");
    let paths: Vec<&str> = list(&b, "paths").iter().filter_map(Value::as_str).collect();
    assert_eq!(paths, ["benchsuite"]);
}
