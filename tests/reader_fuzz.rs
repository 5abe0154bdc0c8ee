//! Byte-mutation fuzzing of the readers that take bytes from outside
//! the process: the cws-dag interchange parser, the daemon's request
//! lines, the trace reducer behind `cws-exp trace-report` and the
//! metrics-snapshot decoder it reads manifests with.
//!
//! Each case overwrites a few bytes of a seed document and feeds the
//! result to the reader. The invariant is that no reader panics or
//! aborts: bad input is an error or a violation. Documents a reader
//! accepts must also survive a round trip through their canonical
//! writer, and the trace report's JSON must stay parseable.
//!
//! The JSON parser, the interchange and the request parser must also
//! return exactly what the readers they replaced return
//! (`tests/support/reference.rs`), and every interchange error must
//! match a row of `docs/interchange.md`'s validation table.

mod support;

use cws_dag::Workflow;
use cws_obs::report::{self, TraceReducer, TraceReport};
use cws_obs::{MetricsRegistry, MetricsSnapshot};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use support::error_table::{self, Row};
use support::reference;

/// Bytes the JSON grammar turns on. A drawn byte past 255 picks one of
/// these, so mutations reach past the tokenizer more often than
/// uniform bytes would.
const TOKENS: &[u8] = b"{}[]\",:\\-+.eE0123456789 \nu";

/// Up to four `(offset, byte)` overwrites; offsets wrap to the document.
fn edits() -> impl Strategy<Value = [(usize, u32); 4]> {
    let edit = || (0usize..1 << 16, 0u32..256 + TOKENS.len() as u32);
    (edit(), edit(), edit(), edit()).prop_map(|(a, b, c, d)| [a, b, c, d])
}

/// `doc` with `edits` applied, lossily re-read as UTF-8 (every reader
/// takes `&str`).
fn mutate(doc: &str, edits: &[(usize, u32)]) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    for &(at, b) in edits {
        let at = at % bytes.len();
        bytes[at] = u8::try_from(b).unwrap_or_else(|_| TOKENS[b as usize - 256]);
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Run `read` on `input`; a panic fails the test naming the input.
fn survives(reader: &str, input: &str, read: impl FnOnce(&str)) {
    if catch_unwind(AssertUnwindSafe(|| read(input))).is_err() {
        panic!("{reader} panicked on {input:?}");
    }
}

const DIAMOND: &str = r#"{"format":"cws-dag","version":1,"name":"diamond","tasks":[
    {"id":"a","runtime_s":10,"type":"stage","input_mb":2.5},
    {"id":"b","runtime_s":20,"deps":["a"]},
    {"id":"c","runtime_s":30.75,"deps":[{"task":"a","data_mb":5.5}]},
    {"id":"d","runtime_s":1e2,"deps":["b",{"task":"c","data_mb":0}]}]}"#;

/// Escaped keys and ids: `"a\u0062"` names the task `"ab"`.
const ESCAPED: &str = r#"{"n\u0061me":"esc","tasks":[{"id":"ab","runtime_s":1},{"id":"c\"d","runtime_s":1,"deps":["a\u0062"]},{"id":"e","runtime_s":1,"type":"t\\u","deps":[{"t\u0061sk":"c\"d","data_mb":1}]}]}"#;

/// Numbers and escapes at the edge of the grammar that the reader
/// accepts: `01`, `1.` and `\u+abc`.
const EDGE_OF_GRAMMAR: &str = r#"{"name":"\u+abc","tasks":[{"id":"a","runtime_s":01},{"id":"b","runtime_s":1.,"deps":["a"]}]}"#;

/// Documents byte overwrites rarely reach from the valid seeds: field
/// orders, repeated keys, escapes, every kind of dep, nesting at and
/// past the limit, and numbers and escapes at the edge of the grammar.
fn edge_workflow_seeds() -> Vec<String> {
    let wf =
        |tasks: &str| format!(r#"{{"name":"e","tasks":[{{"id":"a","runtime_s":1}},{tasks}]}}"#);
    let mut seeds: Vec<String> = [
        r#"{"tasks":[{"deps":["a"],"runtime_s":2,"id":"b"},{"id":"a","runtime_s":1}],"version":1,"name":"late"}"#,
        r#"{"name":"d","name":"e","tasks":[{"id":"a","runtime_s":1}]}"#,
        r#"{"name":"d","tasks":[{"id":"a","runtime_s":1}],"tasks":[]}"#,
        ESCAPED,
        EDGE_OF_GRAMMAR,
        r#"{"name":"n","tasks":[{"id":"a","runtime_s":1,"input_mb":1e999}]}"#,
        r#"{"name":"n","tasks":[{"id":"a","runtime_s":-}]}"#,
        r#"{"version":0,"bogus":1,"name":"v","tasks":[{"id":"a","runtime_s":1}]}"#,
        r#"{"version":"x","format":"pegasus","name":"v","tasks":[{"id":"a","runtime_s":1}]}"#,
        r#"{"version":18446744073709551616,"name":"v","tasks":[{"id":"a","runtime_s":1}]}"#,
    ]
    .map(String::from)
    .into();
    for tasks in [
        r#"{"id":"b","id":"c","runtime_s":1}"#,
        r#"{"id":"b","runtime_s":1,"deps":["a"],"deps":["a"]}"#,
        r#"{"id":"b","runtime_s":1,"deps":[{"task":"a","task":"a"}]}"#,
        r#"{"id":"b","runtime_s":1,"deps":[{"data_mb":2,"data_mb":1,"task":"a"}]}"#,
        r#"{"id":"b","runtime_s":1,"deps":[{"task":"a"},"a"]}"#,
        r#"{"id":"b","runtime_s":1,"deps":[null,true,1.5,"a",[],{}]}"#,
        r#"{"id":"b","runtime_s":1,"deps":[{"task":7},{"task":"a","data_mb":-1}]}"#,
        r#"{"id":"b","runtime_s":1,"deps":{"task":"a"}}"#,
        r#"{"id":"b","runtime_s":1,"deps":"a"}"#,
        r#"[{"id":"b"}]"#,
        // Two faults in one object: the check that runs first names it.
        r#"{"id":"b","runtime_s":1,"deps":[{"data_mb":-1,"task":7}]}"#,
        r#"{"id":"b","runtime_s":1,"deps":[{"data_mb":-1,"x":0}]}"#,
        r#"{"id":"b","runtime_s":1,"deps":[{"data_mb":null}]}"#,
        r#"{"x":0,"runtime_s":-1}"#,
        r#"{"type":7,"input_mb":-1,"runtime_s":-1,"id":""}"#,
        r#"{"type":7,"input_mb":-1,"id":"b"}"#,
        r#"{"type":7,"input_mb":-1,"id":"a","runtime_s":1}"#,
        r#"{"id":"a","type":7,"runtime_s":1}"#,
        r#"{"deps":7,"id":"b","runtime_s":1e10}"#,
    ] {
        seeds.push(wf(tasks));
    }
    // Faults in different tasks and passes: every task's fields are
    // checked before any task's deps, and deps task by task.
    for tasks in [
        r#"{"id":"b","runtime_s":1,"deps":["ghost"]},{"id":"c","runtime_s":-1}"#,
        r#"{"id":"b","runtime_s":1,"deps":["ghost"]},{"id":"c","runtime_s":1,"deps":7}"#,
        r#"{"id":"b","runtime_s":1,"deps":7},{"id":"c","runtime_s":1,"deps":["ghost"]}"#,
        r#"{"id":"b","runtime_s":1,"deps":["c"]},{"id":"c","runtime_s":1,"deps":["b","b"]}"#,
    ] {
        seeds.push(format!(r#"{{"name":"e","tasks":[{tasks}]}}"#));
    }
    for fields in [
        r#""format":7,"version":0"#,
        r#""version":2,"name":7"#,
        r#""name":7,"tasks":7"#,
        r#""tasks":7"#,
        r#""name":"e","tasks":[],"format":"cws-dag""#,
    ] {
        seeds.push(format!("{{{fields}}}"));
    }
    // A dep of junk at the nesting limit, which reads; and one level
    // past it, which is malformed JSON.
    for levels in [124, 125] {
        let junk = format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        seeds.push(wf(&format!(
            r#"{{"id":"b","runtime_s":1,"deps":[{junk}]}}"#
        )));
    }
    seeds
}

/// Valid documents: their mutations are the ones that reach the
/// round-trip and fixed-point checks.
fn workflow_seeds() -> Vec<String> {
    let cybershake = cws_workloads::cybershake(cws_workloads::CyberShakeShape { synthesis: 2 });
    vec![DIAMOND.to_string(), cybershake.to_json()]
}

/// `wf` as a daemon submission.
fn submit(wf: &str) -> String {
    format!(r#"{{"tenant":"astro","time":12.5,"workflow":{wf}}}"#)
}

fn request_seeds() -> Vec<String> {
    let mut seeds = vec![
        r#"{"cmd":"report"}"#.to_string(),
        r#"{"cmd":"shutdown"}"#.to_string(),
    ];
    seeds.extend(workflow_seeds().iter().map(|wf| submit(wf)));
    seeds
}

/// Envelopes with repeated and out-of-order members (the first of a
/// repeated member counts, and `cmd` wins wherever it stands), then
/// every edge workflow seed as a submission.
fn edge_request_seeds() -> Vec<String> {
    let wf = r#"{"name":"w","tasks":[{"id":"t","runtime_s":1}]}"#;
    let mut seeds: Vec<String> = [
        format!(r#"{{"tenant":"a","tenant":7,"time":1,"time":"x","workflow":{wf},"workflow":7}}"#),
        format!(r#"{{"workflow":{wf},"time":null,"ten\u0061nt":"a"}}"#),
        format!(r#"{{"tenant":"a","workflow":{wf},"cmd":"shutdown","cmd":"report"}}"#),
        format!(r#"[{{"tenant":"a","workflow":{wf}}}]"#),
        r#"{"tenant":"a","workflow":{"version":0,"bogus":1,"name":"v","tasks":[]}}"#.to_string(),
    ]
    .into();
    seeds.extend(edge_workflow_seeds().iter().map(|wf| submit(wf)));
    seeds
}

/// A replayed two-VM schedule beside one pool rental: every event kind
/// once or more, with no violation.
const TRACE: &str = r#"{"ev":"pool-lease","t":0,"vm":0,"itype":"small","region":"us-east","price_per_btu":0.08}
{"ev":"vm-lease","t":0,"vm":0,"itype":"small","region":"us-east","price_per_btu":0.08}
{"ev":"vm-lease","t":0,"vm":1,"itype":"medium","region":"us-east","price_per_btu":0.16}
{"ev":"probe-decision","t":0,"task":0,"vm":0,"start":0,"finish":4000,"kind":"new-vm"}
{"ev":"probe-decision","t":0,"task":1,"vm":1,"start":4000.5,"finish":4100,"kind":"new-vm"}
{"ev":"vm-boot","t":0,"vm":0}
{"ev":"vm-boot","t":0,"vm":1}
{"ev":"task-start","t":0,"task":0,"vm":0}
{"ev":"btu-boundary","t":3600,"vm":0,"btu":1}
{"ev":"task-finish","t":4000,"task":0,"vm":0}
{"ev":"transfer-start","t":4000,"from":0,"to":1,"data_mb":12.5}
{"ev":"transfer-finish","t":4000.5,"from":0,"to":1}
{"ev":"task-start","t":4000.5,"task":1,"vm":1}
{"ev":"task-finish","t":4100,"task":1,"vm":1}
{"ev":"vm-reclaim","t":4000,"vm":0,"billed_btus":2,"busy_s":4000,"cost_usd":0.16}
{"ev":"vm-reclaim","t":4100,"vm":1,"billed_btus":1,"busy_s":99.5,"cost_usd":0.16}
{"ev":"pool-reclaim","t":3600,"vm":0,"billed_btus":1,"busy_s":3000,"cost_usd":0.08}"#;

fn reduce(trace: &str) -> TraceReport {
    let mut reducer = TraceReducer::new();
    for line in trace.lines() {
        reducer.feed_line(line);
    }
    reducer.finish()
}

/// The metrics a run of [`TRACE`] would publish, as a manifest.
fn manifest_seed() -> String {
    let reg = MetricsRegistry::new();
    reg.counter("sim.events_processed").add(17);
    reg.gauge("run.makespan_s").set(4100.0);
    reg.gauge("service.fleet_cost_usd").set(0.08);
    let h = reg.histogram("service.queue_wait");
    for wait in [0, 900, 1100, 70_000] {
        h.record(wait);
    }
    format!(
        r#"{{"tool":"cws-exp","seed":42,"metrics":{}}}"#,
        reg.snapshot().to_json()
    )
}

/// Everything `cws-exp trace-report --check` does with a reduced trace
/// and a manifest.
fn render_and_check(report: &TraceReport, manifest: &MetricsSnapshot) {
    let _ = report.to_text();
    let json = report.to_json();
    assert!(cws_obs::json::parse(&json).is_ok(), "report JSON: {json}");
    let _ = report::histogram_summaries(manifest);
    let _ = report::check(report, manifest);
}

/// The validation table of `docs/interchange.md`.
fn error_table() -> &'static [Row] {
    static ROWS: OnceLock<Vec<Row>> = OnceLock::new();
    ROWS.get_or_init(error_table::rows)
}

/// `cws_obs::json::parse` returns what the recursive reference parser
/// returns.
fn parse_as_the_reference(doc: &str) {
    assert_eq!(
        cws_obs::json::parse(doc),
        reference::parse(doc),
        "parse differs from the reference"
    );
}

fn read_workflow(doc: &str) {
    parse_as_the_reference(doc);
    let got = Workflow::from_json(doc);
    assert_eq!(
        got,
        reference::from_json(doc),
        "from_json differs from the reference"
    );
    match got {
        Ok(wf) => {
            let json = wf.to_json();
            let back = Workflow::from_json(&json).expect("an export parses");
            assert_eq!(back, wf, "accepted documents round-trip");
            assert_eq!(back.to_json(), json, "the export is a fixed point");
        }
        Err(e) => assert!(
            error_table::documented(error_table(), &e.path, &e.message),
            "undocumented interchange error: {e}"
        ),
    }
}

fn read_request(line: &str) {
    let got = cws_serve::parse_request(line);
    assert_eq!(
        got,
        reference::parse_request(line),
        "parse_request differs from the reference"
    );
    if let Err(e) = got {
        assert!(
            error_table::documented_on_the_wire(error_table(), &e),
            "undocumented workflow error: {e}"
        );
    }
}

fn read_trace(trace: &str) {
    for line in trace.lines() {
        parse_as_the_reference(line);
    }
    let manifest = MetricsSnapshot::from_json(&manifest_seed()).expect("seed manifest");
    render_and_check(&reduce(trace), &manifest);
}

fn read_manifest(doc: &str) {
    parse_as_the_reference(doc);
    if let Ok(snap) = MetricsSnapshot::from_json(doc) {
        render_and_check(&reduce(TRACE), &snap);
        assert_eq!(
            MetricsSnapshot::from_json(&snap.to_json()),
            Ok(snap),
            "accepted snapshots round-trip"
        );
    }
}

#[test]
fn seeds_are_valid_so_mutations_start_near_the_grammar() {
    for doc in workflow_seeds() {
        Workflow::from_json(&doc).expect("workflow seed");
    }
    for line in request_seeds() {
        cws_serve::parse_request(&line).expect("request seed");
    }
    let report = reduce(TRACE);
    assert!(report.parse_errors.is_empty(), "{:?}", report.parse_errors);
    assert!(report.violations().is_empty(), "{:?}", report.violations());
    assert_eq!((report.events, report.pool.reclaims), (17, 1));
    let manifest = MetricsSnapshot::from_json(&manifest_seed()).expect("manifest seed");
    assert_eq!(manifest.histograms["service.queue_wait"].count, 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn mutated_workflows_never_panic_the_interchange_parser(
        seed in 0usize..2, n in 1usize..5, edits in edits(),
    ) {
        let doc = mutate(&workflow_seeds()[seed], &edits[..n]);
        survives("Workflow::from_json", &doc, read_workflow);
    }

    #[test]
    fn mutated_request_lines_never_panic_the_daemon_parser(
        seed in 0usize..4, n in 1usize..5, edits in edits(),
    ) {
        let line = mutate(&request_seeds()[seed], &edits[..n]);
        survives("parse_request", &line, read_request);
    }

    #[test]
    fn mutated_traces_never_panic_the_reducer(n in 1usize..5, edits in edits()) {
        let trace = mutate(TRACE, &edits[..n]);
        survives("TraceReducer::feed_line", &trace, read_trace);
    }

    #[test]
    fn mutated_manifests_never_panic_the_snapshot_decoder(n in 1usize..5, edits in edits()) {
        let doc = mutate(&manifest_seed(), &edits[..n]);
        survives("MetricsSnapshot::from_json", &doc, read_manifest);
    }
}

// The edge seeds are each read unmutated by
// `edge_seeds_read_as_the_reference_reads_them`; their mutations get
// fewer cases than the valid seeds'.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_edge_workflows_read_as_the_reference_reads_them(
        seed in 0..edge_workflow_seeds().len(), n in 1usize..5, edits in edits(),
    ) {
        let doc = mutate(&edge_workflow_seeds()[seed], &edits[..n]);
        survives("Workflow::from_json", &doc, read_workflow);
    }

    #[test]
    fn mutated_edge_request_lines_read_as_the_reference_reads_them(
        seed in 0..edge_request_seeds().len(), n in 1usize..5, edits in edits(),
    ) {
        let line = mutate(&edge_request_seeds()[seed], &edits[..n]);
        survives("parse_request", &line, read_request);
    }
}

#[test]
fn edge_seeds_read_as_the_reference_reads_them() {
    for doc in workflow_seeds().into_iter().chain(edge_workflow_seeds()) {
        read_workflow(&doc);
    }
    for line in request_seeds().into_iter().chain(edge_request_seeds()) {
        read_request(&line);
    }
    // An escaped id names the task its unescaped text does, and the
    // first of a repeated envelope member counts.
    let esc = Workflow::from_json(ESCAPED).expect("escaped ids resolve");
    assert_eq!((esc.name(), esc.edge_count()), ("esc", 2));
    let odd = Workflow::from_json(EDGE_OF_GRAMMAR).expect("01 and 1. read as numbers");
    assert_eq!(odd.name(), "\u{abc}");
    match cws_serve::parse_request(&edge_request_seeds()[0]) {
        Ok(cws_serve::Request::Submit { tenant, time, .. }) => {
            assert_eq!((tenant.as_str(), time), ("a", Some(1.0)));
        }
        other => panic!("expected the first members to count, got {other:?}"),
    }
}

#[test]
fn every_row_of_the_error_table_is_reachable() {
    let wf =
        |tasks: &str| format!(r#"{{"name":"e","tasks":[{{"id":"a","runtime_s":1}},{tasks}]}}"#);
    let mut docs: Vec<String> = [
        "{",
        "[]",
        r#"{"nom":"e","tasks":[]}"#,
        r#"{"name":"e","name":"f","tasks":[]}"#,
        r#"{"format":"pegasus","name":"e","tasks":[]}"#,
        r#"{"version":0,"name":"e","tasks":[]}"#,
        r#"{"tasks":[]}"#,
        r#"{"name":7,"tasks":[]}"#,
        r#"{"name":"e","tasks":{}}"#,
        r#"{"name":"e","tasks":[]}"#,
        r#"{"name":"e","tasks":[7]}"#,
        r#"{"name":"e","tasks":[{"id":"","runtime_s":1}]}"#,
        r#"{"name":"e","tasks":[{"id":"a","runtime_s":1e10}]}"#,
        r#"{"name":"e","tasks":[{"id":"a","runtime_s":1,"deps":["a"]}]}"#,
    ]
    .map(String::from)
    .into();
    for tasks in [
        r#"{"id":"a","runtime_s":1}"#,
        r#"{"id":"b","runtime_s":-1}"#,
        r#"{"id":"b","runtime_s":1,"deps":[7]}"#,
        r#"{"id":"b","runtime_s":1,"deps":["z"]}"#,
        r#"{"id":"b","runtime_s":1,"deps":["a","a"]}"#,
    ] {
        docs.push(wf(tasks));
    }
    docs.push(
        r#"{"name":"e","tasks":[{"id":"a","runtime_s":1,"deps":["b"]},{"id":"b","runtime_s":1,"deps":["a"]}]}"#
            .to_string(),
    );
    let errors: Vec<_> = docs
        .iter()
        .map(|d| Workflow::from_json(d).expect_err(d))
        .collect();
    assert!(!error_table::documented(
        error_table(),
        "workflow",
        "made up"
    ));
    assert!(!error_table::documented(
        error_table(),
        "workflow.tasks[0]",
        "must be a string"
    ));
    for row in error_table() {
        assert!(
            errors.iter().any(|e| error_table::documented(
                std::slice::from_ref(row),
                &e.path,
                &e.message
            )),
            "no document reaches the row {:?}",
            row.rule
        );
    }
}

/// Inputs that once killed `cws-exp trace-report` or the JSON parser,
/// pinned so the fuzz seeds cannot drift past them.
#[test]
fn known_hostile_inputs_are_errors_not_crashes() {
    // A bucket pair with no elements: indexed as `p[0]`, exit 101.
    read_manifest(r#"{"histograms":{"h":{"count":1,"sum":1,"buckets":[[]]}}}"#);
    // The largest VM id sized a table: an 800 GB allocation, exit 134.
    // The largest pool id overflowed `vm + 1`: exit 101 in debug builds.
    let lease =
        r#"{"ev":"vm-lease","t":0,"vm":4294967295,"itype":"small","region":"r","price_per_btu":1}"#;
    read_trace(lease);
    read_trace(&lease.replace("vm-lease", "pool-lease"));
    // A megabyte of `[`: a stack overflow in the recursive parser.
    let deep = "[".repeat(1_000_000);
    let nesting = "nesting deeper than 128 levels at byte 128".to_string();
    assert_eq!(cws_serve::parse_request(&deep), Err(nesting.clone()));
    assert_eq!(MetricsSnapshot::from_json(&deep), Err(nesting.clone()));
    assert!(Workflow::from_json(&deep).is_err());
    assert_eq!(reduce(&deep).parse_errors, [(1, nesting)]);
}
