//! The `cws-dag` workflow interchange format (versioned JSON DAGs).
//!
//! This module is the **single** JSON representation of a workflow in
//! the workspace: the `cws-serve` submission daemon, the `cws-exp`
//! trace importer/exporter and the vendored test corpus all parse and
//! emit exactly this schema. The format grew out of the daemon's
//! JSON-lines submission schema — one format, not two. The normative
//! field-by-field specification lives in `docs/interchange.md`; a
//! fixture test asserts that the spec's field tables and this parser's
//! [`WORKFLOW_FIELDS`]/[`TASK_FIELDS`]/[`DEP_FIELDS`] lists agree, so
//! the document cannot drift from the implementation.
//!
//! One workflow document:
//!
//! ```json
//! {"format": "cws-dag", "version": 1, "name": "demo",
//!  "tasks": [
//!    {"id": "stage",  "runtime_s": 30.0, "type": "mProjectPP"},
//!    {"id": "reduce", "runtime_s": 10.0,
//!     "deps": ["stage", {"task": "stage", "data_mb": 0}]}]}
//! ```
//!
//! Parsing is **strict**: unknown or duplicated fields, non-finite or
//! negative numbers, duplicate task ids, dangling or duplicate
//! dependencies, self-loops and cycles are all rejected with an error
//! that names the exact JSON path (`workflow.tasks[3].deps[1]`, …).
//! Every structural error the [`WorkflowBuilder`] can detect is caught
//! here first with a better path; the builder re-validates as a
//! defense-in-depth backstop.

use crate::error::DagError;
use crate::graph::{Workflow, WorkflowBuilder};
use crate::task::TaskId;
use cws_obs::json::{json_f64, json_str, parse, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// The value of the optional `format` discriminator field.
pub const FORMAT_NAME: &str = "cws-dag";

/// The format version this parser implements. Documents without a
/// `version` field are read as version 1; larger versions are
/// rejected (forward compatibility is negotiated by the writer
/// downgrading, never by the reader guessing).
pub const FORMAT_VERSION: u64 = 1;

/// Fields accepted on the workflow (top-level) object.
pub const WORKFLOW_FIELDS: &[&str] = &["format", "name", "tasks", "version"];

/// Fields accepted on each entry of `tasks`.
pub const TASK_FIELDS: &[&str] = &["deps", "id", "input_mb", "runtime_s", "type"];

/// Fields accepted on object-form `deps` entries.
pub const DEP_FIELDS: &[&str] = &["data_mb", "task"];

/// The largest summed `runtime_s` a document may declare, in seconds.
/// Schedules hold every task to its duration within 1e-6 s, and from
/// about 1.6·10¹⁰ s on, a start time's rounding alone exceeds that.
pub const MAX_TOTAL_RUNTIME_S: f64 = 1e9;

/// The largest summed `data_mb` a document may declare, in megabytes:
/// at the slowest link, 125 MB/s, its transfers add at most 8·10⁸ s.
pub const MAX_TOTAL_DATA_MB: f64 = 1e11;

/// An interchange parse/validation failure: the JSON path of the
/// offending element plus a human-readable message.
///
/// The daemon echoes `to_string()` back to clients verbatim, so these
/// strings are part of the wire contract and covered by regression
/// tests with exact expected text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterchangeError {
    /// JSON path of the offending element (`workflow`,
    /// `workflow.tasks[3].deps[1]`, …). Empty only for document-level
    /// JSON syntax errors.
    pub path: String,
    /// What went wrong at that path.
    pub message: String,
}

impl InterchangeError {
    fn new(path: impl Into<String>, message: impl Into<String>) -> Self {
        InterchangeError {
            path: path.into(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for InterchangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.path.is_empty() {
            write!(f, "{}", self.message)
        } else {
            write!(f, "{}: {}", self.path, self.message)
        }
    }
}

impl std::error::Error for InterchangeError {}

/// Structural summary returned by [`validate`] — everything
/// `cws-exp validate` prints about an accepted document.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Workflow name.
    pub name: String,
    /// Format version the document declared (or defaulted to).
    pub version: u64,
    /// Task count.
    pub tasks: usize,
    /// Dependency edge count.
    pub edges: usize,
    /// DAG depth in levels (longest chain).
    pub depth: usize,
    /// Sum of all `runtime_s` values (sequential work, seconds).
    pub total_work_s: f64,
    /// Sum of all edge `data_mb` payloads (megabytes).
    pub total_data_mb: f64,
}

/// Parse and validate an interchange document without keeping the
/// workflow: the check behind `cws-exp validate FILE.json`.
///
/// # Errors
/// Returns the first [`InterchangeError`] encountered — malformed
/// JSON, schema violation, or structural DAG error — with its path.
///
/// # Examples
/// ```
/// use cws_dag::interchange::validate;
///
/// let s = validate(
///     r#"{"name":"pipe","tasks":[
///         {"id":"a","runtime_s":60},
///         {"id":"b","runtime_s":30,"deps":[{"task":"a","data_mb":512}]}]}"#,
/// )
/// .unwrap();
/// assert_eq!((s.tasks, s.edges, s.depth, s.version), (2, 1, 2, 1));
/// assert_eq!(s.total_data_mb, 512.0);
///
/// let err = validate(r#"{"name":"bad","tasks":[
///     {"id":"a","runtime_s":1,"deps":["ghost"]}]}"#)
/// .unwrap_err();
/// assert_eq!(err.path, "workflow.tasks[0].deps[0]");
/// assert!(err.to_string().contains("unknown task \"ghost\""));
/// ```
pub fn validate(src: &str) -> Result<Summary, InterchangeError> {
    let (wf, version) = parse_document(src)?;
    Ok(Summary {
        name: wf.name().to_string(),
        version,
        tasks: wf.len(),
        edges: wf.edge_count(),
        depth: wf.depth(),
        total_work_s: wf.total_work(),
        total_data_mb: wf.edges().map(|e| e.data_mb).sum(),
    })
}

fn parse_document(src: &str) -> Result<(Workflow, u64), InterchangeError> {
    let v = parse(src).map_err(|e| InterchangeError::new("", format!("malformed JSON: {e}")))?;
    let version = document_version(&v)?;
    Ok((from_json_value(&v)?, version))
}

fn document_version(v: &Value) -> Result<u64, InterchangeError> {
    match v.get("version") {
        None => Ok(FORMAT_VERSION),
        Some(x) => x
            .as_u64()
            .filter(|&n| n >= 1)
            .ok_or_else(|| InterchangeError::new("workflow.version", "must be a positive integer")),
    }
}

/// Build a [`Workflow`] from an already-parsed JSON [`Value`] (the
/// path the `cws-serve` wire layer takes: the workflow object arrives
/// nested inside a submission line).
///
/// # Errors
/// Returns an [`InterchangeError`] naming the exact JSON path of the
/// first schema or structural violation.
pub fn from_json_value(v: &Value) -> Result<Workflow, InterchangeError> {
    let Some(fields) = v.as_obj() else {
        return Err(InterchangeError::new("workflow", "expected a JSON object"));
    };
    check_fields("workflow", fields, WORKFLOW_FIELDS)?;

    if let Some(fmt) = v.get("format") {
        match fmt.as_str() {
            Some(FORMAT_NAME) => {}
            Some(other) => {
                return Err(InterchangeError::new(
                    "workflow.format",
                    format!("expected {FORMAT_NAME:?}, found {other:?}"),
                ))
            }
            None => return Err(InterchangeError::new("workflow.format", "must be a string")),
        }
    }
    let version = document_version(v)?;
    if version > FORMAT_VERSION {
        return Err(InterchangeError::new(
            "workflow.version",
            format!(
                "unsupported version {version} (this parser implements version {FORMAT_VERSION})"
            ),
        ));
    }

    let name = match v.get("name") {
        None => {
            return Err(InterchangeError::new(
                "workflow",
                "missing required field \"name\"",
            ))
        }
        Some(n) => n
            .as_str()
            .ok_or_else(|| InterchangeError::new("workflow.name", "must be a string"))?,
    };
    let tasks = match v.get("tasks") {
        None => {
            return Err(InterchangeError::new(
                "workflow",
                "missing required field \"tasks\"",
            ))
        }
        Some(t) => t
            .as_arr()
            .ok_or_else(|| InterchangeError::new("workflow.tasks", "must be an array"))?,
    };
    if tasks.is_empty() {
        return Err(InterchangeError::new(
            "workflow.tasks",
            "workflow has no tasks",
        ));
    }

    let mut builder = WorkflowBuilder::new(name);
    // First pass: declare every task, so deps can reference any task
    // regardless of declaration order (forward references included).
    let mut ids: BTreeMap<&str, TaskId> = BTreeMap::new();
    let mut total_runtime = 0.0;
    for (i, t) in tasks.iter().enumerate() {
        let path = format!("workflow.tasks[{i}]");
        let Some(fields) = t.as_obj() else {
            return Err(InterchangeError::new(path, "each task must be an object"));
        };
        check_fields(&path, fields, TASK_FIELDS)?;
        let id = match t.get("id") {
            None => return Err(InterchangeError::new(path, "missing required field \"id\"")),
            Some(x) => x.as_str().filter(|s| !s.is_empty()).ok_or_else(|| {
                InterchangeError::new(format!("{path}.id"), "must be a non-empty string")
            })?,
        };
        let runtime = match t.get("runtime_s") {
            None => {
                return Err(InterchangeError::new(
                    path,
                    "missing required field \"runtime_s\"",
                ))
            }
            Some(x) => finite_non_negative(x)
                .ok_or_else(|| non_negative_err(format!("{path}.runtime_s")))?,
        };
        total_runtime += runtime;
        if total_runtime > MAX_TOTAL_RUNTIME_S {
            return Err(InterchangeError::new(
                format!("{path}.runtime_s"),
                format!("summed runtime_s exceeds the horizon of {MAX_TOTAL_RUNTIME_S:e} s"),
            ));
        }
        let input_mb = match t.get("input_mb") {
            None => 0.0,
            Some(x) => finite_non_negative(x)
                .ok_or_else(|| non_negative_err(format!("{path}.input_mb")))?,
        };
        let kind = match t.get("type") {
            None => None,
            Some(x) => Some(
                x.as_str()
                    .ok_or_else(|| {
                        InterchangeError::new(format!("{path}.type"), "must be a string")
                    })?
                    .to_string(),
            ),
        };
        let task_id = builder.task_detailed(id, runtime, input_mb, kind);
        if ids.insert(id, task_id).is_some() {
            return Err(InterchangeError::new(
                format!("{path}.id"),
                format!("duplicate task id {id:?}"),
            ));
        }
    }

    // Second pass: edges.
    let mut total_data = 0.0;
    for (i, t) in tasks.iter().enumerate() {
        // Invariant: the first pass over `tasks` already rejected any
        // task whose `id` is missing or not a string.
        // cws-lint: allow(unwrap-in-kernel)
        let to_id = t.get("id").and_then(Value::as_str).expect("checked above");
        let to = ids[to_id];
        let Some(deps) = t.get("deps") else { continue };
        let deps = deps.as_arr().ok_or_else(|| {
            InterchangeError::new(format!("workflow.tasks[{i}].deps"), "must be an array")
        })?;
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for (j, dep) in deps.iter().enumerate() {
            let path = format!("workflow.tasks[{i}].deps[{j}]");
            let (from_id, data_mb) = match dep {
                Value::Str(s) => (s.as_str(), 0.0),
                Value::Obj(fields) => {
                    check_fields(&path, fields, DEP_FIELDS)?;
                    let from = match dep.get("task") {
                        None => {
                            return Err(InterchangeError::new(
                                path,
                                "missing required field \"task\"",
                            ))
                        }
                        Some(x) => x.as_str().ok_or_else(|| {
                            InterchangeError::new(format!("{path}.task"), "must be a string")
                        })?,
                    };
                    let mb = match dep.get("data_mb") {
                        None => 0.0,
                        Some(x) => finite_non_negative(x)
                            .ok_or_else(|| non_negative_err(format!("{path}.data_mb")))?,
                    };
                    total_data += mb;
                    if total_data > MAX_TOTAL_DATA_MB {
                        return Err(InterchangeError::new(
                            format!("{path}.data_mb"),
                            format!(
                                "summed data_mb exceeds the horizon of {MAX_TOTAL_DATA_MB:e} MB"
                            ),
                        ));
                    }
                    (from, mb)
                }
                _ => {
                    return Err(InterchangeError::new(
                        path,
                        "entries are task-id strings or {\"task\", \"data_mb\"} objects",
                    ))
                }
            };
            let Some(&from) = ids.get(from_id) else {
                return Err(InterchangeError::new(
                    path,
                    format!("depends on unknown task {from_id:?}"),
                ));
            };
            if from == to {
                return Err(InterchangeError::new(
                    path,
                    format!("task {to_id:?} depends on itself"),
                ));
            }
            if !seen.insert(from_id) {
                return Err(InterchangeError::new(
                    path,
                    format!("duplicate dependency on task {from_id:?}"),
                ));
            }
            builder.data_edge(from, to, data_mb);
        }
    }

    // Structural backstop. Every reachable error already produced a
    // better path above except cycles, which need the whole graph.
    builder.build().map_err(|e| match e {
        DagError::Cycle { cycle_witness } => InterchangeError::new(
            "workflow.tasks",
            format!(
                "workflow contains a cycle through task {:?}",
                tasks[cycle_witness.index()]
                    .get("id")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
            ),
        ),
        other => InterchangeError::new("workflow", format!("invalid DAG: {other}")),
    })
}

fn finite_non_negative(x: &Value) -> Option<f64> {
    x.as_f64().filter(|m| m.is_finite() && *m >= 0.0)
}

fn non_negative_err(path: String) -> InterchangeError {
    InterchangeError::new(path, "must be a finite number >= 0")
}

/// Reject unknown and duplicated fields on `obj`, naming `path`.
fn check_fields(
    path: &str,
    fields: &[(String, Value)],
    accepted: &[&str],
) -> Result<(), InterchangeError> {
    for (i, (name, _)) in fields.iter().enumerate() {
        if !accepted.contains(&name.as_str()) {
            let list = accepted
                .iter()
                .map(|f| format!("{f:?}"))
                .collect::<Vec<_>>()
                .join(", ");
            return Err(InterchangeError::new(
                path,
                format!("unknown field {name:?} (accepted: {list})"),
            ));
        }
        if fields[..i].iter().any(|(n, _)| n == name) {
            return Err(InterchangeError::new(
                path,
                format!("duplicate field {name:?}"),
            ));
        }
    }
    Ok(())
}

impl Workflow {
    /// Parse a workflow from its interchange JSON.
    ///
    /// # Errors
    /// Returns an [`InterchangeError`] naming the JSON path of the
    /// first violation: malformed JSON, unknown/duplicate fields,
    /// missing `name`/`tasks`/`id`/`runtime_s`, non-finite or negative
    /// numbers, duplicate task ids, dangling/duplicate/self
    /// dependencies, or a cycle.
    ///
    /// # Examples
    /// ```
    /// use cws_dag::Workflow;
    ///
    /// let wf = Workflow::from_json(
    ///     r#"{"format":"cws-dag","version":1,"name":"diamond","tasks":[
    ///         {"id":"a","runtime_s":10},
    ///         {"id":"b","runtime_s":20,"deps":["a"]},
    ///         {"id":"c","runtime_s":30,"deps":[{"task":"a","data_mb":5.5}]},
    ///         {"id":"d","runtime_s":1,"deps":["b","c"]}]}"#,
    /// )
    /// .unwrap();
    /// assert_eq!(wf.len(), 4);
    /// assert_eq!(wf.depth(), 3);
    /// // The export is a fixed point of parse ∘ export.
    /// assert_eq!(Workflow::from_json(&wf.to_json()).unwrap(), wf);
    /// ```
    pub fn from_json(src: &str) -> Result<Workflow, InterchangeError> {
        parse_document(src).map(|(wf, _)| wf)
    }

    /// Export this workflow as interchange JSON (version
    /// [`FORMAT_VERSION`], single line).
    ///
    /// The rendering is canonical and deterministic: fields appear in
    /// the documented order (`format`, `version`, `name`, `tasks`;
    /// per task `id`, `runtime_s`, `type`, `input_mb`, `deps`), tasks
    /// in dense-id order, deps in predecessor-id order, floats as
    /// their shortest round-trip decimal. `type` is omitted when
    /// absent, `input_mb` when zero, `deps` when empty; zero-payload
    /// dependencies render as bare id strings. Byte-equal exports ⇔
    /// structurally identical workflows, and
    /// `Workflow::from_json(&wf.to_json())` reconstructs `wf` exactly
    /// (bit-identical runtimes and payloads).
    ///
    /// Interchange ids are task *names*; if several tasks share a
    /// name, each ambiguous task is exported as `name#<dense id>` so
    /// the document stays parseable (the paper generators never emit
    /// duplicates, so this is a degenerate-input escape hatch).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for t in self.tasks() {
            *counts.entry(t.name.as_str()).or_insert(0) += 1;
        }
        let id_of = |id: TaskId| -> String {
            let t = self.task(id);
            if counts[t.name.as_str()] > 1 {
                format!("{}#{}", t.name, t.id.0)
            } else {
                t.name.clone()
            }
        };

        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"format\":{},\"version\":{FORMAT_VERSION},\"name\":{},\"tasks\":[",
            json_str(FORMAT_NAME),
            json_str(self.name())
        );
        for (i, id) in self.ids().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let task = self.task(id);
            let _ = write!(
                out,
                "{{\"id\":{},\"runtime_s\":{}",
                json_str(&id_of(id)),
                json_f64(task.base_time)
            );
            if let Some(kind) = &task.kind {
                let _ = write!(out, ",\"type\":{}", json_str(kind));
            }
            if task.input_mb != 0.0 {
                let _ = write!(out, ",\"input_mb\":{}", json_f64(task.input_mb));
            }
            let preds = self.predecessors(id);
            if !preds.is_empty() {
                out.push_str(",\"deps\":[");
                for (j, e) in preds.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let from = json_str(&id_of(e.from));
                    if e.data_mb > 0.0 {
                        let _ = write!(
                            out,
                            "{{\"task\":{},\"data_mb\":{}}}",
                            from,
                            json_f64(e.data_mb)
                        );
                    } else {
                        out.push_str(&from);
                    }
                }
                out.push(']');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond_json() -> &'static str {
        r#"{"name":"diamond","tasks":[
            {"id":"a","runtime_s":10,"type":"gen"},
            {"id":"b","runtime_s":20,"deps":["a"]},
            {"id":"c","runtime_s":30,"input_mb":7.5,"deps":[{"task":"a","data_mb":5.5}]},
            {"id":"d","runtime_s":1,"deps":["b","c"]}]}"#
    }

    #[test]
    fn parses_and_round_trips() {
        let wf = Workflow::from_json(diamond_json()).expect("valid");
        assert_eq!(wf.len(), 4);
        assert_eq!(wf.task(TaskId(0)).kind.as_deref(), Some("gen"));
        assert_eq!(wf.task(TaskId(2)).input_mb, 7.5);
        let json = wf.to_json();
        assert!(json.starts_with("{\"format\":\"cws-dag\",\"version\":1,"));
        let back = Workflow::from_json(&json).expect("export parses");
        assert_eq!(back, wf);
        assert_eq!(json, back.to_json(), "export is a fixed point");
    }

    #[test]
    fn version_negotiation() {
        let ok = r#"{"version":1,"name":"v","tasks":[{"id":"a","runtime_s":1}]}"#;
        assert!(Workflow::from_json(ok).is_ok());
        let future = r#"{"version":2,"name":"v","tasks":[{"id":"a","runtime_s":1}]}"#;
        let err = Workflow::from_json(future).unwrap_err();
        assert_eq!(err.path, "workflow.version");
        assert_eq!(
            err.to_string(),
            "workflow.version: unsupported version 2 (this parser implements version 1)"
        );
        let bad = r#"{"version":0,"name":"v","tasks":[{"id":"a","runtime_s":1}]}"#;
        assert_eq!(
            Workflow::from_json(bad).unwrap_err().message,
            "must be a positive integer"
        );
        let fmt = r#"{"format":"pegasus","name":"v","tasks":[{"id":"a","runtime_s":1}]}"#;
        assert_eq!(
            Workflow::from_json(fmt).unwrap_err().path,
            "workflow.format"
        );
    }

    #[test]
    fn forward_references_are_order_insensitive() {
        // Dep on a later-declared task id must parse identically to
        // the reordered document.
        let fwd = r#"{"name":"f","tasks":[
            {"id":"late","runtime_s":2,"deps":[]},
            {"id":"early","runtime_s":1}]}"#;
        let _ = Workflow::from_json(fwd).expect("empty deps fine");
        let a = Workflow::from_json(
            r#"{"name":"f","tasks":[
                {"id":"b","runtime_s":2,"deps":["a"]},
                {"id":"a","runtime_s":1}]}"#,
        )
        .expect("forward dep accepted");
        assert_eq!(a.edge_count(), 1);
        assert_eq!(a.entries().len(), 1);
    }

    #[test]
    fn precise_error_paths() {
        for (src, path, needle) in [
            ("[1]", "workflow", "expected a JSON object"),
            (r#"{"tasks":[]}"#, "workflow", "\"name\""),
            (r#"{"name":"e","tasks":[]}"#, "workflow.tasks", "no tasks"),
            (
                r#"{"name":"e","tasks":[{"id":"a","runtime_s":1},{"id":"a","runtime_s":2}]}"#,
                "workflow.tasks[1].id",
                "duplicate task id \"a\"",
            ),
            (
                r#"{"name":"e","tasks":[{"id":"a","runtime_s":1,"deps":["ghost"]}]}"#,
                "workflow.tasks[0].deps[0]",
                "unknown task \"ghost\"",
            ),
            (
                r#"{"name":"e","tasks":[{"id":"a","runtime_s":-4}]}"#,
                "workflow.tasks[0].runtime_s",
                "finite number >= 0",
            ),
            (
                r#"{"name":"e","tasks":[{"id":"a","runtime_s":1,"dep":["b"]}]}"#,
                "workflow.tasks[0]",
                "unknown field \"dep\"",
            ),
            (
                r#"{"name":"e","name":"f","tasks":[{"id":"a","runtime_s":1}]}"#,
                "workflow",
                "duplicate field \"name\"",
            ),
            (
                r#"{"name":"e","tasks":[{"id":"a","runtime_s":1,"deps":["a"]}]}"#,
                "workflow.tasks[0].deps[0]",
                "depends on itself",
            ),
            (
                r#"{"name":"e","tasks":[{"id":"a","runtime_s":1},
                    {"id":"b","runtime_s":1,"deps":["a","a"]}]}"#,
                "workflow.tasks[1].deps[1]",
                "duplicate dependency on task \"a\"",
            ),
            (
                r#"{"name":"e","tasks":[{"id":"","runtime_s":1}]}"#,
                "workflow.tasks[0].id",
                "non-empty string",
            ),
            (
                r#"{"name":"e","tasks":[{"id":"a","runtime_s":1,"deps":[42]}]}"#,
                "workflow.tasks[0].deps[0]",
                "task-id strings",
            ),
        ] {
            let err = Workflow::from_json(src).expect_err(src);
            assert_eq!(err.path, path, "{src}: {err}");
            assert!(err.message.contains(needle), "{src}: {err}");
        }
    }

    #[test]
    fn cycle_names_a_task_on_the_cycle() {
        let err = Workflow::from_json(
            r#"{"name":"cyc","tasks":[
                {"id":"a","runtime_s":1,"deps":["b"]},
                {"id":"b","runtime_s":1,"deps":["a"]}]}"#,
        )
        .unwrap_err();
        assert_eq!(err.path, "workflow.tasks");
        assert!(err.message.contains("cycle through task"), "{err}");
    }

    #[test]
    fn validate_summarizes() {
        let s = validate(diamond_json()).expect("valid");
        assert_eq!(s.name, "diamond");
        assert_eq!((s.tasks, s.edges, s.depth), (4, 4, 3));
        assert_eq!(s.total_work_s, 61.0);
        assert_eq!(s.total_data_mb, 5.5);
        assert!(validate("not json")
            .unwrap_err()
            .message
            .contains("malformed JSON"));
    }

    #[test]
    fn deep_nesting_is_malformed_json_not_an_abort() {
        // Regression: a megabyte of `[` used to overflow the parser's
        // stack and abort the process.
        let err = Workflow::from_json(&"[".repeat(1_000_000)).unwrap_err();
        assert_eq!(err.path, "");
        assert_eq!(
            err.message,
            "malformed JSON: nesting deeper than 128 levels at byte 128"
        );
    }

    #[test]
    fn duplicate_names_export_with_disambiguators() {
        let mut b = WorkflowBuilder::new("dup");
        let a = b.task("t", 1.0);
        let c = b.task("t", 2.0);
        b.edge(a, c);
        let wf = b.build().unwrap();
        let json = wf.to_json();
        assert!(
            json.contains("\"t#0\"") && json.contains("\"t#1\""),
            "{json}"
        );
        let back = Workflow::from_json(&json).expect("disambiguated export parses");
        assert_eq!(back.len(), 2);
        assert_eq!(back.edge_count(), 1);
    }

    #[test]
    fn field_lists_are_sorted_and_disjoint_contexts_cover_parser() {
        // The doc-agreement fixture (tests/interchange.rs) compares
        // these lists against docs/interchange.md; keep them sorted so
        // the rendered "accepted:" hints are deterministic.
        for list in [WORKFLOW_FIELDS, TASK_FIELDS, DEP_FIELDS] {
            let mut sorted = list.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, list);
        }
    }
}
