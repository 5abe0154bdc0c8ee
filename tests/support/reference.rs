//! The readers as they were before the iterative JSON reader: a
//! recursive-descent parser into a [`Value`] tree, the interchange
//! checks written against that tree, and the daemon's envelope logic.
//!
//! `tests/reader_fuzz.rs` holds `cws_obs::json::parse`,
//! `Workflow::from_json` and `cws_serve::parse_request` to exactly what
//! these return: the same value, workflow or request, or the same error
//! text. They read every workflow in the order the wire always used:
//! the object's fields are checked before its `version`.

use cws_dag::interchange::{
    InterchangeError, DEP_FIELDS, FORMAT_NAME, FORMAT_VERSION, MAX_TOTAL_DATA_MB,
    MAX_TOTAL_RUNTIME_S, TASK_FIELDS, WORKFLOW_FIELDS,
};
use cws_dag::{DagError, TaskId, Workflow, WorkflowBuilder};
use cws_obs::json::{Value, MAX_DEPTH};
use cws_serve::Request;
use std::collections::{BTreeMap, BTreeSet};

/// Parse one JSON document, recursing once per nesting level.
///
/// # Errors
/// Returns a human-readable message (with a byte offset) on malformed
/// input, trailing non-whitespace, or nesting deeper than
/// [`MAX_DEPTH`] levels.
pub fn parse(src: &str) -> Result<Value, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(src, bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, *pos))
    }
}

/// Parse the value at `pos`, which sits inside `depth` open arrays and
/// objects.
fn parse_value(src: &str, bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'{') => parse_object(src, bytes, pos, depth + 1),
        Some(b'[') => parse_array(src, bytes, pos, depth + 1),
        Some(b'"') => Ok(Value::Str(parse_string(src, bytes, pos)?)),
        Some(b't') => parse_keyword(src, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(src, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_keyword(src, pos, "null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(src, bytes, pos),
        _ => Err(format!("unexpected input at byte {}", *pos)),
    }
}

fn parse_keyword(src: &str, pos: &mut usize, word: &str, v: Value) -> Result<Value, String> {
    if src[*pos..].starts_with(word) {
        *pos += word.len();
        Ok(v)
    } else {
        Err(format!("expected '{word}' at byte {}", *pos))
    }
}

fn parse_number(src: &str, bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && (bytes[*pos].is_ascii_digit() || matches!(bytes[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    src[start..*pos]
        .parse::<f64>()
        .map(Value::Num)
        .map_err(|e| format!("bad number at byte {start}: {e}"))
}

fn parse_string(src: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".to_string());
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".to_string());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = src
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                        *pos += 4;
                        // Surrogate pairs never occur in this
                        // workspace's writers; map lone surrogates to
                        // the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape '\\{}'", other as char)),
                }
            }
            _ => {
                // Multi-byte UTF-8 sequences pass through verbatim.
                let ch_start = *pos;
                let ch = src[ch_start..]
                    .chars()
                    .next()
                    .ok_or_else(|| "invalid utf-8".to_string())?;
                *pos += ch.len_utf8();
                out.push(ch);
            }
        }
    }
}

fn parse_object(src: &str, bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(src, bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(src, bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(src: &str, bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(src, bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

/// `Workflow::from_json`: the document parsed whole, then checked.
pub fn from_json(src: &str) -> Result<Workflow, InterchangeError> {
    let v = parse(src).map_err(|e| err("", format!("malformed JSON: {e}")))?;
    from_json_value(&v)
}

/// `cws_serve::parse_request`.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = parse(line)?;
    if let Some(cmd) = v.get("cmd") {
        return match cmd.as_str() {
            Some("report") => Ok(Request::Report),
            Some("shutdown") => Ok(Request::Shutdown),
            Some(other) => Err(format!("unknown cmd {other:?}")),
            None => Err("cmd must be a string".to_string()),
        };
    }
    let tenant = v
        .get("tenant")
        .and_then(Value::as_str)
        .ok_or("submission needs a \"tenant\" string")?
        .to_string();
    let time = match v.get("time") {
        None | Some(Value::Null) => None,
        Some(t) => {
            let t = t.as_f64().ok_or("\"time\" must be a number")?;
            if !t.is_finite() || t < 0.0 {
                return Err("\"time\" must be finite and >= 0".to_string());
            }
            Some(t)
        }
    };
    let wf = v.get("workflow").ok_or("submission needs a \"workflow\"")?;
    Ok(Request::Submit {
        tenant,
        time,
        workflow: from_json_value(wf).map_err(|e| e.to_string())?,
    })
}

fn err(path: impl Into<String>, message: impl Into<String>) -> InterchangeError {
    InterchangeError {
        path: path.into(),
        message: message.into(),
    }
}

fn from_json_value(v: &Value) -> Result<Workflow, InterchangeError> {
    let Some(fields) = v.as_obj() else {
        return Err(err("workflow", "expected a JSON object"));
    };
    check_fields("workflow", fields, WORKFLOW_FIELDS)?;

    if let Some(fmt) = v.get("format") {
        match fmt.as_str() {
            Some(FORMAT_NAME) => {}
            Some(other) => {
                return Err(err(
                    "workflow.format",
                    format!("expected {FORMAT_NAME:?}, found {other:?}"),
                ))
            }
            None => return Err(err("workflow.format", "must be a string")),
        }
    }
    let version = match v.get("version") {
        None => FORMAT_VERSION,
        Some(x) => x
            .as_u64()
            .filter(|&n| n >= 1)
            .ok_or_else(|| err("workflow.version", "must be a positive integer"))?,
    };
    if version > FORMAT_VERSION {
        return Err(err(
            "workflow.version",
            format!(
                "unsupported version {version} (this parser implements version {FORMAT_VERSION})"
            ),
        ));
    }

    let name = match v.get("name") {
        None => return Err(err("workflow", "missing required field \"name\"")),
        Some(n) => n
            .as_str()
            .ok_or_else(|| err("workflow.name", "must be a string"))?,
    };
    let tasks = match v.get("tasks") {
        None => return Err(err("workflow", "missing required field \"tasks\"")),
        Some(t) => t
            .as_arr()
            .ok_or_else(|| err("workflow.tasks", "must be an array"))?,
    };
    if tasks.is_empty() {
        return Err(err("workflow.tasks", "workflow has no tasks"));
    }

    let mut builder = WorkflowBuilder::new(name);
    let mut ids: BTreeMap<&str, TaskId> = BTreeMap::new();
    let mut total_runtime = 0.0;
    for (i, t) in tasks.iter().enumerate() {
        let path = format!("workflow.tasks[{i}]");
        let Some(fields) = t.as_obj() else {
            return Err(err(path, "each task must be an object"));
        };
        check_fields(&path, fields, TASK_FIELDS)?;
        let id = match t.get("id") {
            None => return Err(err(path, "missing required field \"id\"")),
            Some(x) => x
                .as_str()
                .filter(|s| !s.is_empty())
                .ok_or_else(|| err(format!("{path}.id"), "must be a non-empty string"))?,
        };
        let runtime = match t.get("runtime_s") {
            None => return Err(err(path, "missing required field \"runtime_s\"")),
            Some(x) => finite_non_negative(x)
                .ok_or_else(|| non_negative_err(format!("{path}.runtime_s")))?,
        };
        total_runtime += runtime;
        if total_runtime > MAX_TOTAL_RUNTIME_S {
            return Err(err(
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
                    .ok_or_else(|| err(format!("{path}.type"), "must be a string"))?
                    .to_string(),
            ),
        };
        let task_id = builder.task_detailed(id, runtime, input_mb, kind);
        if ids.insert(id, task_id).is_some() {
            return Err(err(
                format!("{path}.id"),
                format!("duplicate task id {id:?}"),
            ));
        }
    }

    let mut total_data = 0.0;
    for (i, t) in tasks.iter().enumerate() {
        let to_id = t.get("id").and_then(Value::as_str).expect("checked above");
        let to = ids[to_id];
        let Some(deps) = t.get("deps") else { continue };
        let deps = deps
            .as_arr()
            .ok_or_else(|| err(format!("workflow.tasks[{i}].deps"), "must be an array"))?;
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for (j, dep) in deps.iter().enumerate() {
            let path = format!("workflow.tasks[{i}].deps[{j}]");
            let (from_id, data_mb) = match dep {
                Value::Str(s) => (s.as_str(), 0.0),
                Value::Obj(fields) => {
                    check_fields(&path, fields, DEP_FIELDS)?;
                    let from = match dep.get("task") {
                        None => return Err(err(path, "missing required field \"task\"")),
                        Some(x) => x
                            .as_str()
                            .ok_or_else(|| err(format!("{path}.task"), "must be a string"))?,
                    };
                    let mb = match dep.get("data_mb") {
                        None => 0.0,
                        Some(x) => finite_non_negative(x)
                            .ok_or_else(|| non_negative_err(format!("{path}.data_mb")))?,
                    };
                    total_data += mb;
                    if total_data > MAX_TOTAL_DATA_MB {
                        return Err(err(
                            format!("{path}.data_mb"),
                            format!(
                                "summed data_mb exceeds the horizon of {MAX_TOTAL_DATA_MB:e} MB"
                            ),
                        ));
                    }
                    (from, mb)
                }
                _ => {
                    return Err(err(
                        path,
                        "entries are task-id strings or {\"task\", \"data_mb\"} objects",
                    ))
                }
            };
            let Some(&from) = ids.get(from_id) else {
                return Err(err(path, format!("depends on unknown task {from_id:?}")));
            };
            if from == to {
                return Err(err(path, format!("task {to_id:?} depends on itself")));
            }
            if !seen.insert(from_id) {
                return Err(err(
                    path,
                    format!("duplicate dependency on task {from_id:?}"),
                ));
            }
            builder.data_edge(from, to, data_mb);
        }
    }

    builder.build().map_err(|e| match e {
        DagError::Cycle { cycle_witness } => err(
            "workflow.tasks",
            format!(
                "workflow contains a cycle through task {:?}",
                tasks[cycle_witness.index()]
                    .get("id")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
            ),
        ),
        other => err("workflow", format!("invalid DAG: {other}")),
    })
}

fn finite_non_negative(x: &Value) -> Option<f64> {
    x.as_f64().filter(|m| m.is_finite() && *m >= 0.0)
}

fn non_negative_err(path: String) -> InterchangeError {
    err(path, "must be a finite number >= 0")
}

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
            return Err(err(
                path,
                format!("unknown field {name:?} (accepted: {list})"),
            ));
        }
        if fields[..i].iter().any(|(n, _)| n == name) {
            return Err(err(path, format!("duplicate field {name:?}")));
        }
    }
    Ok(())
}
