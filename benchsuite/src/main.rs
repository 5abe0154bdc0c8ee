//! `cws-benchsuite` — run one workload, or every workload in its own
//! child process.
//!
//! ```text
//! cws-benchsuite --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! cws-benchsuite suite [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One workload prints its result as one JSON line on stdout, last:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}` with the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics; a
//! traced run also writes its spans to `.bench_trace/NAME.jsonl`.
//! `suite` re-executes this binary once per workload, so each child's
//! `peak_rss_mib` is its workload's alone, and prints `NAME JSON` lines.
//! Exit status is 0 only when every output check passed.

use cws_benchsuite::{run, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};

/// Where traced runs write their spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_trace";

struct Args {
    suite: bool,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cws-benchsuite --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n       \
         cws-benchsuite suite [--seed N] [--seconds S] [--trace 0|1]\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

fn parse() -> Option<Args> {
    let mut a = Args {
        suite: false,
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "suite" => a.suite = true,
            "--workload" => a.workload = Some(it.next()?),
            "--seed" => a.seed = it.next()?.parse().ok()?,
            "--seconds" => a.seconds = it.next()?.parse().ok().filter(|s: &f64| *s >= 0.0)?,
            "--trace" => {
                a.trace = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    (a.suite != a.workload.is_some()).then_some(a)
}

fn main() -> ExitCode {
    let Some(args) = parse() else { return usage() };
    if args.suite {
        return suite(&args);
    }
    let name = args.workload.as_deref().unwrap_or_default();
    let outcome = match run(name, args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(spans) = &outcome.spans {
        let path = std::path::Path::new(TRACE_DIR).join(format!("{name}.jsonl"));
        if let Err(e) =
            std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(&path, spans))
        {
            eprintln!("{name}: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("{name}: spans written to {}", path.display());
    }
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload in a child process of its own, one after another.
fn suite(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("suite: locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut status = ExitCode::SUCCESS;
    for w in &WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        match out {
            Ok(out) => {
                let stdout = String::from_utf8_lossy(&out.stdout);
                println!("{} {}", w.name, stdout.lines().last().unwrap_or("{}"));
                if !out.status.success() {
                    status = ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("suite: run {}: {e}", w.name);
                status = ExitCode::FAILURE;
            }
        }
    }
    status
}
