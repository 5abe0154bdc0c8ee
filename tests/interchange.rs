//! Workspace-level interchange guarantees: generator round-trips, the
//! vendored `tests/data/` corpus, WfCommons imports, schedule
//! equivalence of generated-vs-imported workflows, and the
//! spec-vs-parser field-list agreement that keeps `docs/interchange.md`
//! from drifting.

use cws_core::Strategy;
use cws_dag::interchange::{
    validate, DEP_FIELDS, MAX_TOTAL_RUNTIME_S, TASK_FIELDS, WORKFLOW_FIELDS,
};
use cws_dag::Workflow;
use cws_experiments::trace_sweep::trace_sweep;
use cws_experiments::ExperimentConfig;
use cws_platform::{InstanceType, Platform, SpotMarket};
use cws_sim::{failure_impact, replay_spot, verify};
use cws_workloads::{
    cybershake, epigenomics, layered_dag, ligo, named_workflow, paper_workflows, wfcommons,
    CyberShakeShape, EpigenomicsShape, LayeredShape, LigoShape, Scenario,
};
use std::path::{Path, PathBuf};

fn data_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn assert_round_trip(wf: &Workflow) {
    let json = wf.to_json();
    let back = Workflow::from_json(&json)
        .unwrap_or_else(|e| panic!("{}: export must parse: {e}", wf.name()));
    assert_eq!(&back, wf, "{} round-trips exactly", wf.name());
    assert_eq!(
        json,
        back.to_json(),
        "{}: export is a fixed point",
        wf.name()
    );
}

#[test]
fn every_generator_family_round_trips() {
    for wf in paper_workflows() {
        assert_round_trip(&wf);
    }
    assert_round_trip(&epigenomics(EpigenomicsShape {
        lanes: 3,
        chunks_per_lane: 4,
    }));
    assert_round_trip(&cybershake(CyberShakeShape { synthesis: 20 }));
    assert_round_trip(&ligo(LigoShape {
        groups: 2,
        banks_per_group: 5,
    }));
}

#[test]
fn pareto_materialized_workflows_round_trip_bit_exactly() {
    // Pareto-drawn runtimes are arbitrary f64s — the hard case for
    // JSON float round-tripping (the issue's seeds 7/42/1337).
    for seed in [7, 42, 1337] {
        for wf in paper_workflows() {
            let m = Scenario::Pareto { seed }.apply(&wf);
            let back = Workflow::from_json(&m.to_json()).expect("export parses");
            for (a, b) in m.tasks().iter().zip(back.tasks()) {
                assert_eq!(
                    a.base_time.to_bits(),
                    b.base_time.to_bits(),
                    "{} seed {seed}: runtime must survive bit-exactly",
                    wf.name()
                );
            }
            assert_eq!(back, m);
        }
        assert_round_trip(&layered_dag(LayeredShape {
            levels: 6,
            min_width: 2,
            max_width: 9,
            edge_prob: 0.4,
            seed,
        }));
    }
}

#[test]
fn vendored_corpus_validates_and_matches_its_generators() {
    // Each vendored interchange document must (a) validate, (b) parse
    // to exactly the generator workflow it was exported from, and
    // (c) be byte-identical to a fresh export — so the corpus cannot
    // silently drift from the generators.
    for (file, generator) in [
        ("montage-166.json", "montage-50x60"),
        ("epigenomics-8x12.json", "epigenomics-8x12"),
        ("cybershake-200.json", "cybershake-200"),
    ] {
        let path = data_dir().join(file);
        let src = read(&path);
        let summary = validate(&src).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(summary.version, 1, "{file}");
        let wf = Workflow::from_json(&src).expect(file);
        let generated =
            named_workflow(generator).unwrap_or_else(|| panic!("unknown generator {generator:?}"));
        assert_eq!(wf, generated, "{file} diverged from {generator}");
        assert_eq!(
            src,
            format!("{}\n", generated.to_json()),
            "{file} is not byte-identical to a fresh export"
        );
    }
}

#[test]
fn wfcommons_excerpts_import_and_round_trip() {
    for (file, tasks, edges) in [
        ("montage-excerpt.wfcommons.json", 9, 13),
        ("epigenomics-excerpt.wfcommons.json", 7, 7),
    ] {
        let src = read(&data_dir().join(file));
        let wf = wfcommons::import(&src).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(wf.len(), tasks, "{file}");
        assert_eq!(wf.edge_count(), edges, "{file}");
        // Real traces carry task categories and nonzero payloads.
        assert!(wf.tasks().iter().all(|t| t.kind.is_some()), "{file}");
        assert!(wf.edges().any(|e| e.data_mb > 0.0), "{file}");
        assert_round_trip(&wf);
    }
}

#[test]
fn generated_and_imported_copies_schedule_bit_identically() {
    // The acceptance criterion: a workflow loaded from its interchange
    // document must produce bit-identical schedules to the in-memory
    // generator workflow across all 19 paper pairings.
    let config = ExperimentConfig::default();
    let src = read(&data_dir().join("montage-166.json"));
    let imported = Workflow::from_json(&src).expect("corpus parses");
    let generated = named_workflow("montage-50x60").expect("generator resolves");
    let a = trace_sweep(&config, &generated, 1);
    let b = trace_sweep(&config, &imported, 8);
    assert_eq!(a.results.len(), 19);
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(x.label, y.label);
        assert_eq!(
            x.metrics.makespan.to_bits(),
            y.metrics.makespan.to_bits(),
            "{}",
            x.label
        );
        assert_eq!(
            x.metrics.cost.to_bits(),
            y.metrics.cost.to_bits(),
            "{}",
            x.label
        );
        assert_eq!(
            x.metrics.idle_seconds.to_bits(),
            y.metrics.idle_seconds.to_bits(),
            "{}",
            x.label
        );
        assert_eq!(x.metrics.vm_count, y.metrics.vm_count, "{}", x.label);
        assert_eq!(x.metrics.btus, y.metrics.btus, "{}", x.label);
    }
}

/// Extract the backticked field names from the rows of the spec table
/// between `<!-- fields:NAME -->` and `<!-- /fields -->` markers.
fn spec_fields(doc: &str, section: &str) -> Vec<String> {
    let start_marker = format!("<!-- fields:{section} -->");
    let start = doc
        .find(&start_marker)
        .unwrap_or_else(|| panic!("docs/interchange.md lost its {start_marker} marker"));
    let rest = &doc[start + start_marker.len()..];
    let end = rest
        .find("<!-- /fields -->")
        .expect("docs/interchange.md lost an <!-- /fields --> marker");
    let mut fields: Vec<String> = rest[..end]
        .lines()
        // Table rows: `| `field` | ... |`, skipping header/separator.
        .filter_map(|l| {
            let cell = l.trim().strip_prefix('|')?.split('|').next()?.trim();
            Some(cell.strip_prefix('`')?.strip_suffix('`')?.to_string())
        })
        .collect();
    fields.sort();
    fields
}

#[test]
fn spec_field_tables_agree_with_the_parser() {
    // The docs archetype gate: docs/interchange.md must document every
    // field the parser accepts and nothing else. The parser exports
    // its accepted-field lists as consts; the spec marks its field
    // tables with HTML comments; this test holds them equal.
    let doc = read(&Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/interchange.md"));
    for (section, parser_fields) in [
        ("workflow", WORKFLOW_FIELDS),
        ("task", TASK_FIELDS),
        ("dep", DEP_FIELDS),
    ] {
        let documented = spec_fields(&doc, section);
        let accepted: Vec<String> = parser_fields.iter().map(|s| s.to_string()).collect();
        assert_eq!(
            documented, accepted,
            "docs/interchange.md `{section}` table and the parser's accepted fields diverged"
        );
    }
}

#[test]
fn corpus_error_documents_fail_validation_with_paths() {
    // Spot-check the spec's documented failure modes against real
    // parser behavior (the daemon echoes these strings verbatim).
    let err = validate(r#"{"name":"x","tasks":[{"id":"a","runtime_s":1,"deps":["z"]}]}"#)
        .expect_err("dangling dep");
    assert_eq!(err.path, "workflow.tasks[0].deps[0]");
    let err = validate(r#"{"version":3,"name":"x","tasks":[{"id":"a","runtime_s":1}]}"#)
        .expect_err("future version");
    assert_eq!(
        err.to_string(),
        "workflow.version: unsupported version 3 (this parser implements version 1)"
    );
    // 2^64 is no u64: it used to saturate and be named as the version
    // 18446744073709551615, which the document never declared.
    let err = validate(
        r#"{"version":18446744073709551616,"name":"v","tasks":[{"id":"a","runtime_s":1}]}"#,
    )
    .expect_err("version past u64");
    assert_eq!(
        err.to_string(),
        "workflow.version: must be a positive integer"
    );
    // The nesting limit the spec states is the parser's.
    let doc = read(&Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/interchange.md"));
    let limit = format!("nesting deeper than {} levels", cws_obs::json::MAX_DEPTH);
    assert!(
        doc.contains(&limit),
        "docs/interchange.md must state `{limit}`"
    );
    let err = validate(&"[".repeat(1_000_000)).expect_err("deep nesting");
    assert_eq!(
        err.to_string(),
        format!("malformed JSON: {limit} at byte 128")
    );
    // So is the daemon's request-line limit.
    let line_limit = format!(
        "request line longer than {} bytes",
        cws_serve::MAX_REQUEST_LINE_BYTES
    );
    assert!(
        doc.contains(&line_limit),
        "docs/interchange.md must state `{line_limit}`"
    );
}

/// Documents whose times outrun the 1e-6 s a schedule holds each task's
/// duration to. Before the horizon, both passed `validate`, and then
/// `cws-exp sweep --workflow` exited 101 with "StartParNotExceed-s
/// produced an invalid schedule: task t1 runs for 0.09999847412109375s,
/// expected 0.1s".
const PAST_THE_HORIZON: [(&str, &str); 2] = [
    (
        r#"{"name":"x","tasks":[{"id":"a","runtime_s":3e10},
            {"id":"b","runtime_s":0.1,"deps":["a"]}]}"#,
        "workflow.tasks[0].runtime_s: summed runtime_s exceeds the horizon of 1e9 s",
    ),
    (
        r#"{"name":"x","tasks":[{"id":"a","runtime_s":10},
            {"id":"b","runtime_s":0.1,"deps":[{"task":"a","data_mb":1e13}]}]}"#,
        "workflow.tasks[1].deps[0].data_mb: summed data_mb exceeds the horizon of 1e11 MB",
    ),
];

#[test]
fn documents_past_the_horizon_are_rejected_by_every_reader() {
    for (doc, message) in PAST_THE_HORIZON {
        let err = Workflow::from_json(doc).expect_err("past the horizon");
        assert_eq!(err.to_string(), message);
        let line = format!(r#"{{"tenant":"t","workflow":{doc}}}"#).replace('\n', "");
        assert_eq!(cws_serve::parse_request(&line), Err(message.to_string()));
    }
}

#[test]
fn every_reader_checks_the_fields_before_the_version() {
    // Files used to have their `version` checked before their fields,
    // request lines after: one object, two different errors.
    for (doc, message) in [
        (
            r#"{"version":0,"bogus":1,"name":"v","tasks":[{"id":"a","runtime_s":1}]}"#,
            r#"workflow: unknown field "bogus" (accepted: "format", "name", "tasks", "version")"#,
        ),
        (
            r#"{"version":"x","format":"pegasus","name":"v","tasks":[{"id":"a","runtime_s":1}]}"#,
            r#"workflow.format: expected "cws-dag", found "pegasus""#,
        ),
    ] {
        assert_eq!(Workflow::from_json(doc).unwrap_err().to_string(), message);
        assert_eq!(validate(doc).unwrap_err().to_string(), message);
        let line = format!(r#"{{"tenant":"t","workflow":{doc}}}"#);
        assert_eq!(cws_serve::parse_request(&line), Err(message.to_string()));
    }
}

#[test]
fn a_document_at_the_horizon_sweeps_cleanly() {
    // Both sums sit on their horizon: 10⁹ s of runtime, and 10¹¹ MB on
    // one edge, whose transfer at 125 MB/s adds 8·10⁸ s before `b`.
    let wf = Workflow::from_json(
        r#"{"name":"at-horizon","tasks":[{"id":"a","runtime_s":999999999.8},
            {"id":"b","runtime_s":0.1,"deps":[{"task":"a","data_mb":1e11}]},
            {"id":"c","runtime_s":0.1,"deps":["b"]}]}"#,
    )
    .expect("at the horizon");
    assert!((wf.total_work() - MAX_TOTAL_RUNTIME_S).abs() < 1.0);
    // Every schedule is checked and replayed; a divergence panics.
    let sweep = trace_sweep(&ExperimentConfig::default(), &wf, 1);
    assert_eq!(sweep.results.len(), 19);
}

#[test]
fn a_zero_runtime_task_validates_replays_and_completes_on_every_pairing() {
    // `s` <- `z` (0 s) <- `e`, declared in that order: wherever `z` and
    // `s` share a VM they start at the same instant, and `s` has the
    // smaller id. Every plan must validate and replay, and with no
    // failure, or spot at hazard 0, every task completes.
    let wf = Workflow::from_json(&read(&data_dir().join("zero-runtime.json"))).expect("valid");
    assert_eq!(wf.task(cws_dag::TaskId(1)).base_time, 0.0);
    let p = Platform::ec2_paper();
    let calm = SpotMarket::new(0.3, 0.0);
    let pairings = Strategy::paper_set();
    assert_eq!(pairings.len(), 19);
    for strategy in pairings {
        let plan = strategy.schedule(&wf, &p);
        let label = &plan.strategy;
        plan.validate(&wf, &p)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        verify(&wf, &p, &plan, 1e-6).unwrap_or_else(|e| panic!("{label}: {e:?}"));
        let impact = failure_impact(&wf, &p, &plan, &[]);
        assert_eq!(impact.completion_rate(), 1.0, "{label}");
        assert!(impact.lost.is_empty(), "{label}");
        let spot = replay_spot(&wf, &p, &plan, &calm, InstanceType::Small, 7);
        assert_eq!(spot.completion_rate(), 1.0, "{label}");
    }
}
