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
//!
//! A document goes from text to workflow in two steps, with no JSON
//! tree between them. [`Document::read`] pulls it through the
//! workspace's one JSON reader (`cws_obs::json::Reader`) into flat
//! records that borrow their strings from the source; then
//! [`Document::into_workflow`] runs every check over those records and
//! feeds the builder. Files and daemon request lines take the same two
//! steps, so they get the same errors.

use crate::error::DagError;
use crate::graph::{Workflow, WorkflowBuilder};
use crate::task::TaskId;
use cws_obs::json::{push_json_f64, push_json_str, Reader, Token, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;

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
    let mut r = Reader::new(src);
    Document::read(&mut r)
        .and_then(|doc| r.finish().map(|()| doc))
        .map_err(|e| InterchangeError::new("", format!("malformed JSON: {e}")))?
        .build()
}

/// A workflow value as read, before any check: each accepted field's
/// first occurrence with its JSON kind, the first field the schema
/// rejects, and the tasks and their dependencies as flat records that
/// borrow their strings from the source.
///
/// Reading fails only on malformed JSON. Every schema and structure
/// check runs afterwards, in [`Document::into_workflow`], so a document
/// gets the same error whether it arrives as a file or inside a
/// `cws-serve` request line, and whatever order its fields come in.
#[derive(Debug)]
pub struct Document<'a> {
    /// The value is an object. Nothing else is read otherwise.
    object: bool,
    bad_field: Option<BadField<'a>>,
    format: Option<Token<'a>>,
    version: Option<Token<'a>>,
    name: Option<Token<'a>>,
    /// `tasks`; when it is an array, its entries are `tasks_read`.
    tasks: Option<Token<'a>>,
    tasks_read: Vec<TaskRecord<'a>>,
    /// Every task's `deps` entries, task after task.
    deps: Vec<DepRecord<'a>>,
}

/// The first field of an object that its schema rejects: a name it
/// does not accept, or one that came before.
#[derive(Debug)]
struct BadField<'a> {
    name: Cow<'a, str>,
    repeated: bool,
}

impl BadField<'_> {
    fn error(&self, path: impl Into<String>, accepted: &[&str]) -> InterchangeError {
        let name = &self.name;
        if self.repeated {
            return InterchangeError::new(path, format!("duplicate field {name:?}"));
        }
        let list = accepted
            .iter()
            .map(|f| format!("{f:?}"))
            .collect::<Vec<_>>()
            .join(", ");
        InterchangeError::new(path, format!("unknown field {name:?} (accepted: {list})"))
    }
}

/// One entry of `tasks`, as read.
#[derive(Debug)]
struct TaskRecord<'a> {
    /// The entry is an object. Nothing else is read otherwise.
    object: bool,
    bad_field: Option<BadField<'a>>,
    id: Option<Token<'a>>,
    runtime_s: Option<Token<'a>>,
    input_mb: Option<Token<'a>>,
    kind: Option<Token<'a>>,
    /// `deps`; when it is an array, its entries are
    /// `Document::deps[deps_from..deps_to]`.
    deps: Option<Token<'a>>,
    deps_from: usize,
    deps_to: usize,
}

/// One entry of `deps`, as read: the predecessor it names and its
/// payload, or what is wrong with the entry on its own.
#[derive(Debug)]
struct DepRecord<'a> {
    /// The bare string, or the object entry's `task`.
    task: Result<Cow<'a, str>, DepFault<'a>>,
    /// The object entry's `data_mb`; 0 when absent or for a bare
    /// string.
    data_mb: f64,
}

/// Why a `deps` entry names no predecessor, in the order the checks
/// run.
#[derive(Debug)]
enum DepFault<'a> {
    Field(Box<BadField<'a>>),
    MissingTask,
    TaskNotString,
    DataMb,
    /// Neither a string nor an object.
    Kind,
}

impl<'a> Document<'a> {
    /// Read one workflow value from `r`: the whole value, however
    /// malformed its contents are as a workflow.
    ///
    /// # Errors
    /// The reader's message on malformed JSON, the only failure here.
    pub fn read(r: &mut Reader<'a>) -> Result<Self, String> {
        let mut doc = Document {
            object: r.enter_object()?,
            bad_field: None,
            format: None,
            version: None,
            name: None,
            tasks: None,
            tasks_read: Vec::new(),
            deps: Vec::new(),
        };
        if doc.object {
            read_fields(r, WORKFLOW_FIELDS, &mut doc.bad_field, |r, field| {
                let slot = match field {
                    "tasks" => {
                        let tasks = read_array(r, |r| {
                            let task = TaskRecord::read(r, &mut doc.deps)?;
                            doc.tasks_read.push(task);
                            Ok(())
                        })?;
                        doc.tasks = Some(tasks);
                        return Ok(());
                    }
                    "format" => &mut doc.format,
                    "name" => &mut doc.name,
                    _ => &mut doc.version,
                };
                *slot = Some(r.skim()?);
                Ok(())
            })?;
        }
        Ok(doc)
    }

    /// Check the document and build its workflow.
    ///
    /// The checks run in a fixed order, and the first to fail is the
    /// error: the workflow object's fields, then each task in order,
    /// then each task's deps in order, then a cycle.
    ///
    /// # Errors
    /// An [`InterchangeError`] naming the exact JSON path of the first
    /// schema or structural violation.
    pub fn into_workflow(self) -> Result<Workflow, InterchangeError> {
        self.build().map(|(wf, _)| wf)
    }

    /// [`Document::into_workflow`], also returning the version the
    /// document declared.
    fn build(self) -> Result<(Workflow, u64), InterchangeError> {
        if !self.object {
            return Err(InterchangeError::new("workflow", "expected a JSON object"));
        }
        if let Some(bad) = &self.bad_field {
            return Err(bad.error("workflow", WORKFLOW_FIELDS));
        }
        match &self.format {
            None => {}
            Some(Token::Str(s)) if s == FORMAT_NAME => {}
            Some(Token::Str(other)) => {
                return Err(InterchangeError::new(
                    "workflow.format",
                    format!("expected {FORMAT_NAME:?}, found {other:?}"),
                ))
            }
            Some(_) => return Err(InterchangeError::new("workflow.format", "must be a string")),
        }
        let version = match self.version {
            None => Some(FORMAT_VERSION),
            Some(Token::Num(x)) => Value::Num(x).as_u64().filter(|&n| n >= 1),
            Some(_) => None,
        }
        .ok_or_else(|| InterchangeError::new("workflow.version", "must be a positive integer"))?;
        if version > FORMAT_VERSION {
            return Err(InterchangeError::new(
                "workflow.version",
                format!(
                    "unsupported version {version} (this parser implements version {FORMAT_VERSION})"
                ),
            ));
        }
        let name = match self.name {
            None => {
                return Err(InterchangeError::new(
                    "workflow",
                    "missing required field \"name\"",
                ))
            }
            Some(Token::Str(s)) => s.into_owned(),
            Some(_) => return Err(InterchangeError::new("workflow.name", "must be a string")),
        };
        match self.tasks {
            None => {
                return Err(InterchangeError::new(
                    "workflow",
                    "missing required field \"tasks\"",
                ))
            }
            Some(Token::Arr) => {}
            Some(_) => return Err(InterchangeError::new("workflow.tasks", "must be an array")),
        }
        let tasks = &self.tasks_read;
        if tasks.is_empty() {
            return Err(InterchangeError::new(
                "workflow.tasks",
                "workflow has no tasks",
            ));
        }

        let mut builder = WorkflowBuilder::new(name);
        // First pass: declare every task, so deps can reference any task
        // regardless of declaration order (forward references included).
        let mut ids: BTreeMap<&str, usize> = BTreeMap::new();
        let mut total_runtime = 0.0;
        for (i, t) in tasks.iter().enumerate() {
            let path = |field: &str| format!("workflow.tasks[{i}]{field}");
            if !t.object {
                return Err(InterchangeError::new(
                    path(""),
                    "each task must be an object",
                ));
            }
            if let Some(bad) = &t.bad_field {
                return Err(bad.error(path(""), TASK_FIELDS));
            }
            let id = match &t.id {
                None => {
                    return Err(InterchangeError::new(
                        path(""),
                        "missing required field \"id\"",
                    ))
                }
                Some(Token::Str(s)) if !s.is_empty() => s.as_ref(),
                Some(_) => {
                    return Err(InterchangeError::new(
                        path(".id"),
                        "must be a non-empty string",
                    ))
                }
            };
            let runtime = match &t.runtime_s {
                None => {
                    return Err(InterchangeError::new(
                        path(""),
                        "missing required field \"runtime_s\"",
                    ))
                }
                Some(x) => {
                    finite_non_negative(x).ok_or_else(|| non_negative_err(path(".runtime_s")))?
                }
            };
            total_runtime += runtime;
            if total_runtime > MAX_TOTAL_RUNTIME_S {
                return Err(InterchangeError::new(
                    path(".runtime_s"),
                    format!("summed runtime_s exceeds the horizon of {MAX_TOTAL_RUNTIME_S:e} s"),
                ));
            }
            let input_mb = match &t.input_mb {
                None => 0.0,
                Some(x) => {
                    finite_non_negative(x).ok_or_else(|| non_negative_err(path(".input_mb")))?
                }
            };
            let kind = match &t.kind {
                None => None,
                Some(Token::Str(s)) => Some(s.to_string()),
                Some(_) => return Err(InterchangeError::new(path(".type"), "must be a string")),
            };
            builder.task_detailed(id, runtime, input_mb, kind);
            if ids.insert(id, i).is_some() {
                return Err(InterchangeError::new(
                    path(".id"),
                    format!("duplicate task id {id:?}"),
                ));
            }
        }

        // Second pass: edges. `listed[p] == i` once task `i` names `p`.
        let mut listed = vec![usize::MAX; tasks.len()];
        let mut total_data = 0.0;
        for (i, t) in tasks.iter().enumerate() {
            let to = TaskId(i as u32);
            match t.deps {
                None => continue,
                Some(Token::Arr) => {}
                Some(_) => {
                    return Err(InterchangeError::new(
                        format!("workflow.tasks[{i}].deps"),
                        "must be an array",
                    ))
                }
            }
            for (j, dep) in self.deps[t.deps_from..t.deps_to].iter().enumerate() {
                let path = |field: &str| format!("workflow.tasks[{i}].deps[{j}]{field}");
                let from_id = match &dep.task {
                    Ok(id) => id.as_ref(),
                    Err(fault) => return Err(fault.error(path)),
                };
                // A bare string adds 0, which cannot cross the horizon.
                total_data += dep.data_mb;
                if total_data > MAX_TOTAL_DATA_MB {
                    return Err(InterchangeError::new(
                        path(".data_mb"),
                        format!("summed data_mb exceeds the horizon of {MAX_TOTAL_DATA_MB:e} MB"),
                    ));
                }
                let Some(&from) = ids.get(from_id) else {
                    return Err(InterchangeError::new(
                        path(""),
                        format!("depends on unknown task {from_id:?}"),
                    ));
                };
                if from == i {
                    return Err(InterchangeError::new(
                        path(""),
                        format!("task {from_id:?} depends on itself"),
                    ));
                }
                if listed[from] == i {
                    return Err(InterchangeError::new(
                        path(""),
                        format!("duplicate dependency on task {from_id:?}"),
                    ));
                }
                listed[from] = i;
                builder.data_edge(TaskId(from as u32), to, dep.data_mb);
            }
        }

        // Structural backstop. Every reachable error already produced a
        // better path above except cycles, which need the whole graph.
        let wf = builder.build().map_err(|e| match e {
            DagError::Cycle { cycle_witness } => {
                let witness = match tasks.get(cycle_witness.index()).and_then(|t| t.id.as_ref()) {
                    Some(Token::Str(s)) => s.as_ref(),
                    _ => "?",
                };
                InterchangeError::new(
                    "workflow.tasks",
                    format!("workflow contains a cycle through task {witness:?}"),
                )
            }
            other => InterchangeError::new("workflow", format!("invalid DAG: {other}")),
        })?;
        Ok((wf, version))
    }
}

impl<'a> TaskRecord<'a> {
    /// Read one entry of `tasks`, appending its deps to `deps`.
    fn read(r: &mut Reader<'a>, deps: &mut Vec<DepRecord<'a>>) -> Result<Self, String> {
        let mut t = TaskRecord {
            object: r.enter_object()?,
            bad_field: None,
            id: None,
            runtime_s: None,
            input_mb: None,
            kind: None,
            deps: None,
            deps_from: deps.len(),
            deps_to: deps.len(),
        };
        if t.object {
            read_fields(r, TASK_FIELDS, &mut t.bad_field, |r, field| {
                let slot = match field {
                    "deps" => {
                        let entries = read_array(r, |r| {
                            deps.push(DepRecord::read(r)?);
                            Ok(())
                        })?;
                        t.deps = Some(entries);
                        t.deps_to = deps.len();
                        return Ok(());
                    }
                    "id" => &mut t.id,
                    "input_mb" => &mut t.input_mb,
                    "runtime_s" => &mut t.runtime_s,
                    _ => &mut t.kind,
                };
                *slot = Some(r.skim()?);
                Ok(())
            })?;
        }
        Ok(t)
    }
}

impl<'a> DepRecord<'a> {
    /// Read one entry of `deps`.
    fn read(r: &mut Reader<'a>) -> Result<Self, String> {
        let fault = |fault| DepRecord {
            task: Err(fault),
            data_mb: 0.0,
        };
        match r.value()? {
            Token::Str(id) => {
                return Ok(DepRecord {
                    task: Ok(id),
                    data_mb: 0.0,
                })
            }
            Token::Obj => {}
            Token::Arr => {
                r.skip_container()?;
                return Ok(fault(DepFault::Kind));
            }
            _ => return Ok(fault(DepFault::Kind)),
        }
        let (mut bad_field, mut task, mut data_mb) = (None, None, None);
        read_fields(r, DEP_FIELDS, &mut bad_field, |r, field| {
            let value = Some(r.skim()?);
            if field == "task" {
                task = value;
            } else {
                data_mb = value;
            }
            Ok(())
        })?;
        if let Some(bad) = bad_field {
            return Ok(fault(DepFault::Field(Box::new(bad))));
        }
        let task = match task {
            None => return Ok(fault(DepFault::MissingTask)),
            Some(Token::Str(id)) => id,
            Some(_) => return Ok(fault(DepFault::TaskNotString)),
        };
        let data_mb = match data_mb {
            None => 0.0,
            Some(x) => match finite_non_negative(&x) {
                Some(mb) => mb,
                None => return Ok(fault(DepFault::DataMb)),
            },
        };
        Ok(DepRecord {
            task: Ok(task),
            data_mb,
        })
    }
}

impl DepFault<'_> {
    /// The error for an entry at `path("")`.
    fn error(&self, path: impl Fn(&str) -> String) -> InterchangeError {
        match self {
            DepFault::Field(bad) => bad.error(path(""), DEP_FIELDS),
            DepFault::MissingTask => {
                InterchangeError::new(path(""), "missing required field \"task\"")
            }
            DepFault::TaskNotString => InterchangeError::new(path(".task"), "must be a string"),
            DepFault::DataMb => non_negative_err(path(".data_mb")),
            DepFault::Kind => InterchangeError::new(
                path(""),
                "entries are task-id strings or {\"task\", \"data_mb\"} objects",
            ),
        }
    }
}

/// Read the fields of the object `r` just entered. The first
/// occurrence of each `accepted` field goes to `read`, with its name;
/// the first field that is not accepted, or that repeats one, goes to
/// `bad`. Every other value is read whole and dropped.
fn read_fields<'a>(
    r: &mut Reader<'a>,
    accepted: &'static [&'static str],
    bad: &mut Option<BadField<'a>>,
    mut read: impl FnMut(&mut Reader<'a>, &'static str) -> Result<(), String>,
) -> Result<(), String> {
    let mut seen = 0u32;
    while let Some(key) = r.next_key()? {
        match accepted.iter().position(|field| *field == key) {
            Some(k) if seen & 1 << k == 0 => {
                seen |= 1 << k;
                read(r, accepted[k])?;
            }
            known => {
                if bad.is_none() {
                    *bad = Some(BadField {
                        name: key,
                        repeated: known.is_some(),
                    });
                }
                r.skim()?;
            }
        }
    }
    Ok(())
}

/// Read one value: each entry through `entry` if it is an array, and
/// whole otherwise. Returns the value's token.
fn read_array<'a>(
    r: &mut Reader<'a>,
    mut entry: impl FnMut(&mut Reader<'a>) -> Result<(), String>,
) -> Result<Token<'a>, String> {
    let token = r.value()?;
    match token {
        Token::Arr => {
            while r.next_item()? {
                entry(r)?;
            }
        }
        Token::Obj => r.skip_container()?,
        _ => {}
    }
    Ok(token)
}

fn finite_non_negative(x: &Token<'_>) -> Option<f64> {
    match *x {
        Token::Num(m) if m.is_finite() && m >= 0.0 => Some(m),
        _ => None,
    }
}

fn non_negative_err(path: String) -> InterchangeError {
    InterchangeError::new(path, "must be a finite number >= 0")
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
        // Every task's id, escaped once: task `i` writes
        // `ids[ends[i - 1]..ends[i]]` wherever it is named.
        let mut ids = String::new();
        let mut ends = Vec::with_capacity(self.len());
        for t in self.tasks() {
            if counts[t.name.as_str()] > 1 {
                push_json_str(&mut ids, &format!("{}#{}", t.name, t.id.0));
            } else {
                push_json_str(&mut ids, &t.name);
            }
            ends.push(ids.len());
        }
        let id_of = |id: TaskId| {
            let i = id.index();
            &ids[if i == 0 { 0 } else { ends[i - 1] }..ends[i]]
        };

        let mut out = String::from("{\"format\":");
        push_json_str(&mut out, FORMAT_NAME);
        out.push_str(",\"version\":");
        out.push_str(&FORMAT_VERSION.to_string());
        out.push_str(",\"name\":");
        push_json_str(&mut out, self.name());
        out.push_str(",\"tasks\":[");
        for (i, id) in self.ids().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let task = self.task(id);
            out.push_str("{\"id\":");
            out.push_str(id_of(id));
            out.push_str(",\"runtime_s\":");
            push_json_f64(&mut out, task.base_time);
            if let Some(kind) = &task.kind {
                out.push_str(",\"type\":");
                push_json_str(&mut out, kind);
            }
            if task.input_mb != 0.0 {
                out.push_str(",\"input_mb\":");
                push_json_f64(&mut out, task.input_mb);
            }
            let preds = self.predecessors(id);
            if !preds.is_empty() {
                out.push_str(",\"deps\":[");
                for (j, e) in preds.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    if e.data_mb > 0.0 {
                        out.push_str("{\"task\":");
                        out.push_str(id_of(e.from));
                        out.push_str(",\"data_mb\":");
                        push_json_f64(&mut out, e.data_mb);
                        out.push('}');
                    } else {
                        out.push_str(id_of(e.from));
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
