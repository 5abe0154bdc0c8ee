//! JSON-lines requests the daemon accepts over its socket.
//!
//! Submitted workflows use the **`cws-dag` interchange format** —
//! the same versioned JSON schema `cws-exp sweep --workflow` reads and
//! `Workflow::to_json` writes — parsed by
//! [`cws_dag::interchange`] (normative spec: `docs/interchange.md`).
//! This module only adds the request envelope:
//!
//! ```json
//! {"tenant": "astro", "workflow": {...}}          // submit, clock = now
//! {"tenant": "astro", "time": 120.5, "workflow": {...}}
//! {"cmd": "report"}                               // per-tenant aggregates so far
//! {"cmd": "shutdown"}                             // final report, then exit
//! ```
//!
//! Parsing reports errors as strings (the daemon echoes them back as
//! `{"ok": false, "error": ...}`), never panics on untrusted input.
//! Workflow errors carry the JSON path of the offending element
//! (e.g. `workflow.tasks[3].deps[1]: depends on unknown task "x"`).

use cws_dag::{interchange, Workflow};
use cws_obs::json::{Reader, Token};

/// The longest request line the daemon reads, in bytes, not counting
/// its terminating newline: 64 MiB, four times the largest interchange
/// document the benchmark submits. A longer line gets one
/// `{"ok":false,"error":"request line longer than 67108864 bytes"}`
/// reply and its connection is closed, so no client can grow the
/// daemon's line buffer without bound.
pub const MAX_REQUEST_LINE_BYTES: usize = 64 << 20;

/// One parsed request line.
// One `Request` exists per socket line and dies after dispatch; boxing
// the workflow would buy nothing but an indirection in the hot parse.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a workflow for `tenant`, optionally at simulation time
    /// `time` (seconds; the daemon clamps it to its monotone clock).
    Submit {
        /// Tenant name (created on first submission).
        tenant: String,
        /// Requested simulation arrival time, if any.
        time: Option<f64>,
        /// The submitted workflow.
        workflow: Workflow,
    },
    /// Ask for the per-tenant cost/makespan report so far.
    Report,
    /// Finish the run: terminate the pool, reply with the final
    /// report, close the connection and stop the daemon.
    Shutdown,
}

/// Parse one JSON-line request.
///
/// The whole line is read first, its `workflow` member straight into
/// the interchange's records, so malformed JSON anywhere on the line is
/// the error before anything the envelope or the workflow says. Of a
/// repeated envelope field, the first counts.
///
/// # Errors
/// Returns a human-readable message for malformed JSON, an unknown
/// `cmd`, or an invalid workflow (unknown dep, duplicate id, cycle…)
/// — workflow messages include the precise JSON path.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut r = Reader::new(line);
    let (mut cmd, mut tenant, mut time, mut workflow) = (None, None, None, None);
    if r.enter_object()? {
        while let Some(key) = r.next_key()? {
            match key.as_ref() {
                "cmd" if cmd.is_none() => cmd = Some(r.skim()?),
                "tenant" if tenant.is_none() => tenant = Some(r.skim()?),
                "time" if time.is_none() => time = Some(r.skim()?),
                "workflow" if workflow.is_none() => {
                    workflow = Some(interchange::Document::read(&mut r)?);
                }
                _ => {
                    r.skim()?;
                }
            }
        }
    }
    r.finish()?;

    if let Some(cmd) = cmd {
        return match cmd {
            Token::Str(c) if c == "report" => Ok(Request::Report),
            Token::Str(c) if c == "shutdown" => Ok(Request::Shutdown),
            Token::Str(other) => Err(format!("unknown cmd {other:?}")),
            _ => Err("cmd must be a string".to_string()),
        };
    }
    let Some(Token::Str(tenant)) = tenant else {
        return Err("submission needs a \"tenant\" string".to_string());
    };
    let time = match time {
        None | Some(Token::Null) => None,
        Some(Token::Num(t)) if !t.is_finite() || t < 0.0 => {
            return Err("\"time\" must be finite and >= 0".to_string())
        }
        Some(Token::Num(t)) => Some(t),
        Some(_) => return Err("\"time\" must be a number".to_string()),
    };
    let workflow = workflow.ok_or("submission needs a \"workflow\"")?;
    Ok(Request::Submit {
        tenant: tenant.into_owned(),
        time,
        workflow: workflow.into_workflow().map_err(|e| e.to_string())?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_dag::TaskId;

    /// Submit `doc` as one request line and return its workflow.
    fn parse(doc: &str) -> Result<Workflow, String> {
        match parse_request(&format!(r#"{{"tenant":"t","workflow":{doc}}}"#))? {
            Request::Submit { workflow, .. } => Ok(workflow),
            other => panic!("expected Submit, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_diamond() {
        let wf = parse(
            r#"{"name":"diamond","tasks":[
                {"id":"a","runtime_s":10},
                {"id":"b","runtime_s":20,"deps":["a"]},
                {"id":"c","runtime_s":30,"deps":[{"task":"a","data_mb":5.5}]},
                {"id":"d","runtime_s":1,"deps":["b","c"]}]}"#,
        )
        .expect("valid workflow");
        assert_eq!(wf.len(), 4);
        let ids: Vec<TaskId> = wf.ids().collect();
        assert_eq!(wf.predecessors(ids[3]).len(), 2);
        assert_eq!(wf.edge_data(ids[0], ids[2]), Some(5.5));
        assert_eq!(wf.edge_data(ids[0], ids[1]), Some(0.0));
    }

    #[test]
    fn round_trips_through_export() {
        let src = r#"{"name":"rt","tasks":[
            {"id":"x","runtime_s":3.5},
            {"id":"y","runtime_s":7,"deps":[{"task":"x","data_mb":2}]}]}"#;
        let wf = parse(src).expect("valid");
        let json = wf.to_json();
        let back = parse(&json).expect("export parses");
        assert_eq!(back, wf, "round trip is exact");
        assert_eq!(json, back.to_json(), "export is a fixed point");
    }

    #[test]
    fn rejects_bad_workflows() {
        for (src, needle) in [
            (r#"{"tasks":[]}"#, "name"),
            (r#"{"name":"e","tasks":[]}"#, "no tasks"),
            (
                r#"{"name":"e","tasks":[{"id":"a","runtime_s":1},{"id":"a","runtime_s":2}]}"#,
                "duplicate",
            ),
            (
                r#"{"name":"e","tasks":[{"id":"a","runtime_s":1,"deps":["ghost"]}]}"#,
                "unknown task",
            ),
            (
                r#"{"name":"e","tasks":[{"id":"a","runtime_s":-4}]}"#,
                "runtime_s",
            ),
            (
                r#"{"name":"e","tasks":[
                    {"id":"a","runtime_s":1,"deps":["b"]},
                    {"id":"b","runtime_s":1,"deps":["a"]}]}"#,
                "cycle",
            ),
        ] {
            let err = parse(src).expect_err(src);
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
    }

    #[test]
    fn submission_errors_carry_exact_paths() {
        // Regression: a typo'd "dep" field used to be silently ignored,
        // admitting an edgeless DAG; strict field checking rejects it
        // with the exact strings the daemon echoes back to clients.
        for (src, expected) in [
            (
                r#"{"name":"w","tasks":[{"id":"a","runtime_s":1,"dep":["b"]}]}"#,
                "workflow.tasks[0]: unknown field \"dep\" \
                 (accepted: \"deps\", \"id\", \"input_mb\", \"runtime_s\", \"type\")",
            ),
            (
                r#"{"name":"w","tasks":[{"id":"a","runtime_s":1,"deps":["ghost"]}]}"#,
                "workflow.tasks[0].deps[0]: depends on unknown task \"ghost\"",
            ),
            (
                r#"{"name":"w","version":9,"tasks":[{"id":"a","runtime_s":1}]}"#,
                "workflow.version: unsupported version 9 (this parser implements version 1)",
            ),
            (
                r#"{"name":"w","tasks":[{"id":"a","runtime_s":1e999}]}"#,
                "workflow.tasks[0].runtime_s: must be a finite number >= 0",
            ),
        ] {
            assert_eq!(parse(src).expect_err(src), expected);
        }
    }

    #[test]
    fn parses_requests() {
        assert_eq!(parse_request(r#"{"cmd":"report"}"#), Ok(Request::Report));
        assert_eq!(
            parse_request(r#"{"cmd":"shutdown"}"#),
            Ok(Request::Shutdown)
        );
        assert!(parse_request(r#"{"cmd":"dance"}"#).is_err());
        assert!(parse_request("not json").is_err());
        let sub = parse_request(
            r#"{"tenant":"astro","time":12.5,"workflow":
                {"name":"w","tasks":[{"id":"t","runtime_s":1}]}}"#,
        )
        .expect("valid submission");
        match sub {
            Request::Submit {
                tenant,
                time,
                workflow,
            } => {
                assert_eq!(tenant, "astro");
                assert_eq!(time, Some(12.5));
                assert_eq!(workflow.len(), 1);
            }
            other => panic!("expected Submit, got {other:?}"),
        }
    }

    #[test]
    fn negative_time_is_rejected() {
        let err = parse_request(
            r#"{"tenant":"a","time":-1,"workflow":{"name":"w","tasks":[{"id":"t","runtime_s":1}]}}"#,
        )
        .expect_err("negative time");
        assert!(err.contains("time"));
    }

    #[test]
    fn deeply_nested_line_is_an_error_reply() {
        // Regression: one line of a megabyte of `[` used to overflow the
        // parser's stack and abort the daemon.
        assert_eq!(
            parse_request(&"[".repeat(1_000_000)),
            Err("nesting deeper than 128 levels at byte 128".to_string())
        );
        let deep_workflow = format!(r#"{{"tenant":"a","workflow":{}}}"#, "[".repeat(1_000_000));
        assert_eq!(
            parse_request(&deep_workflow),
            Err("nesting deeper than 128 levels at byte 152".to_string())
        );
    }
}
