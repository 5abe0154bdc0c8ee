// cws-lint: allow-file(wall-clock-in-sim)
//! End-to-end benchmark of the entry points users run — the paper
//! figures, 10⁴-task trace sweeps, `serve` batch runs and the TCP
//! daemon — with a traced one-thread replica that splits each workload's
//! time by layer.
//!
//! [`run`] drives one workload: set it up several times,
//! warm up, then run units through the crates' public entry points for
//! the requested seconds, checking every unit's output. With `trace`
//! it instead re-drives the workload at one thread with a span around
//! each public call, checks the replica's output equals the entry
//! point's, and reports self time per layer. See `README.md` for the
//! workloads, the metrics and how to compare two commits.

mod daemon;
mod dag;
mod measure;
mod paper;
mod replica;
mod serve;
mod trace;

use cws_obs::metrics::names;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use trace::{Layer, Tracer};

/// Worker threads of every batch entry point. Fixed, so numbers compare
/// across machines; the daemon workload adds its one client thread.
pub const THREADS: usize = 2;

/// An untraced run sets up at least `SETUP_REPEATS` times and until
/// `SETUP_MIN_S` seconds are spent (at most `SETUP_MAX` times);
/// `setup_s` is the median, so cheap set-ups are timed often enough to
/// be steady.
const SETUP_REPEATS: usize = 3;
const SETUP_MIN_S: f64 = 0.25;
const SETUP_MAX: usize = 50;

/// Units run and checked before timing starts, at least this long.
const WARMUP_S: f64 = 0.5;

/// Share of `--seconds` a traced run spends on replica units, half of
/// them with spans on and half with spans off.
const TRACED_SHARE: f64 = 0.8;

/// One workload of the benchmark.
#[derive(Debug)]
pub struct WorkloadInfo {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the benchmark has it (one line).
    pub why: &'static str,
}

/// The workloads, in the order `suite` runs them.
pub const WORKLOADS: [WorkloadInfo; 6] = [
    WorkloadInfo {
        name: "paper",
        why: "fig4+fig5+spot on four tiny DAGs: fixed per-schedule costs (tables, validate, replay, billing, render) dominate",
    },
    WorkloadInfo {
        name: "dag-dense",
        why: "19-pairing sweep of a 10k-task, 475k-edge layered DAG: edge-bound, CPA-Eager and simulator replay dominate",
    },
    WorkloadInfo {
        name: "dag-sparse",
        why: "19-pairing sweep of epigenomics-50x50 (10k tasks, 12.5k edges): AllPar dominates and CPA does not",
    },
    WorkloadInfo {
        name: "serve-pooled",
        why: "serve paper profile, 26k submissions, 85% warm-pool hits: realization, pooled placement and warm snapshots dominate",
    },
    WorkloadInfo {
        name: "serve-light",
        why: "serve --light, 100k submissions: no warm reuse and 400k rentals, so reclaim, commit and fold dominate",
    },
    WorkloadInfo {
        name: "daemon-tcp",
        why: "closed-loop round trips to the daemon over loopback TCP: wire parse, submit and the socket",
    },
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// `"higher"` or `"lower"`, as `BENCHMARK.json` spells it.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// Share of the parent's median it may worsen by before a change
    /// counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

fn metric(name: &str, unit: &'static str, better: Better, bound: Option<f64>) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics every untraced run prints. The timing bounds
/// are the widest allowed because the timing noise of a shared 2-vCPU
/// host is wide: the same workload and seed runs up to 1.6× slower for
/// minutes at a time (README.md, "Machine noise").
#[must_use]
pub fn end_to_end() -> Vec<Metric> {
    use Better::{Higher, Lower};
    vec![
        metric("throughput_per_s", "1/s", Higher, Some(0.25)),
        metric("p50_ms", "ms", Lower, Some(0.25)),
        metric("cpu_ms_per_unit", "ms", Lower, Some(0.25)),
        metric("peak_rss_mib", "MiB", Lower, Some(0.15)),
        metric("setup_s", "s", Lower, Some(0.25)),
    ]
}

/// `cws-obs` counters a traced run snapshots, per unit.
pub const COUNTERS: [&str; 4] = [
    names::KERNEL_PROBES,
    names::KERNEL_PLACEMENTS,
    names::KERNEL_KEY_BUILDS,
    names::KERNEL_TABLE_REUSE,
];

/// The per-layer metrics every traced run prints.
#[must_use]
pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let mut v = Vec::new();
    for l in Layer::ALL {
        v.push(metric(
            &format!("{}.calls", l.name()),
            "calls/unit",
            Lower,
            None,
        ));
        v.push(metric(
            &format!("{}.self_ms", l.name()),
            "ms/unit",
            Lower,
            None,
        ));
    }
    for c in COUNTERS {
        v.push(metric(c, "count/unit", Lower, None));
    }
    v.push(metric("kernel.placements_per_probe", "ratio", Higher, None));
    v.push(metric("serve.pool_hit_rate", "ratio", Higher, None));
    v.push(metric("spot.completion_rate", "ratio", Higher, None));
    v.push(metric("trace.overhead_pct", "%", Lower, None));
    v.push(metric("trace.coverage_pct", "%", Higher, None));
    v
}

/// Which end-to-end metric a per-layer metric should move, and on which
/// workloads. On the others the prediction is no change.
#[derive(Debug)]
pub struct Target {
    /// Per-layer metric name, or the layer prefix of its `.calls` and
    /// `.self_ms` metrics.
    pub layer: &'static str,
    /// End-to-end metrics it should move.
    pub metrics: &'static [&'static str],
    /// Workloads it should move them on.
    pub workloads: &'static [&'static str],
}

const fn target(
    layer: &'static str,
    metrics: &'static [&'static str],
    workloads: &'static [&'static str],
) -> Target {
    Target {
        layer,
        metrics,
        workloads,
    }
}

const DAGS_AND_PAPER: &[&str] = &["dag-dense", "dag-sparse", "paper"];
const THROUGHPUT: &[&str] = &["throughput_per_s"];

/// The layer → end-to-end map; `trace.*` metrics describe the trace
/// itself and have no target.
pub const TARGETS: [Target; 31] = [
    target(
        "core.schedule.cpa",
        &["p50_ms", "throughput_per_s"],
        &["dag-dense"],
    ),
    target("core.schedule.allpar", THROUGHPUT, &["dag-sparse"]),
    target("core.schedule.heft", THROUGHPUT, DAGS_AND_PAPER),
    target("core.schedule.gain", THROUGHPUT, DAGS_AND_PAPER),
    target("core.schedule.onelns", THROUGHPUT, DAGS_AND_PAPER),
    target("core.schedule.spot_heft", THROUGHPUT, &["paper"]),
    target("sim.replay", &["p50_ms", "cpu_ms_per_unit"], &["dag-dense"]),
    target("workloads.realize", THROUGHPUT, &["paper", "serve-pooled"]),
    target("core.tables_build", THROUGHPUT, &["paper"]),
    target("core.validate", THROUGHPUT, &["paper"]),
    target("core.billing", THROUGHPUT, &["paper"]),
    target("sim.spot_replay", THROUGHPUT, &["paper"]),
    target("experiments.render", THROUGHPUT, &["paper"]),
    target("dag.from_json", &["setup_s"], &["dag-dense", "dag-sparse"]),
    target("service.tickets", THROUGHPUT, &["serve-pooled"]),
    target("core.pooled_cold", THROUGHPUT, &["serve-pooled"]),
    target("core.pooled_warm", THROUGHPUT, &["serve-pooled"]),
    target("serve.warm_slots", THROUGHPUT, &["serve-pooled"]),
    target("serve.reclaim", THROUGHPUT, &["serve-light"]),
    target("serve.commit", THROUGHPUT, &["serve-light"]),
    target("serve.fold", THROUGHPUT, &["serve-light"]),
    target("serve.wire_parse", &["p50_ms"], &["daemon-tcp"]),
    target("serve.submit", &["p50_ms"], &["daemon-tcp"]),
    target("daemon.transport", &["p50_ms"], &["daemon-tcp"]),
    target("kernel.probes", THROUGHPUT, DAGS_AND_PAPER),
    target("kernel.placements", THROUGHPUT, DAGS_AND_PAPER),
    target("kernel.key_ready_builds", THROUGHPUT, DAGS_AND_PAPER),
    target("kernel.table_reuse_hits", THROUGHPUT, DAGS_AND_PAPER),
    target("kernel.placements_per_probe", THROUGHPUT, DAGS_AND_PAPER),
    target("serve.pool_hit_rate", THROUGHPUT, &["serve-pooled"]),
    // Evicted work is re-executed in the spot replay's recovery.
    target("spot.completion_rate", THROUGHPUT, &["paper"]),
];

/// A workload, as the runner drives it.
pub(crate) trait Workload {
    /// Schedules or submissions one unit completes.
    fn work_per_unit(&self) -> f64;

    /// One unit through the public entry point, its output checked.
    fn unit(&mut self) -> Result<(), String>;

    /// One unit re-driven at one thread, a span around each public
    /// call; its output must equal the entry point's.
    fn replica(&mut self, t: &mut Tracer) -> Result<(), String>;

    /// Checks that need the whole run.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Adjust layer totals after the traced replica units.
    fn settle(&self, _t: &mut Tracer) {}

    /// Mean completion rate of the replica's spot replays (0 without any).
    fn spot_completion_rate(&self) -> f64 {
        0.0
    }
}

fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "paper" => Box::new(paper::Paper::setup(seed)?),
        "dag-dense" => Box::new(dag::Dag::setup(true, seed)?),
        "dag-sparse" => Box::new(dag::Dag::setup(false, seed)?),
        "serve-pooled" => Box::new(serve::Serve::setup(true, seed)),
        "serve-light" => Box::new(serve::Serve::setup(false, seed)),
        "daemon-tcp" => Box::new(daemon::DaemonLoad::setup(seed)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// What one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Units run and checked, warm-up included.
    pub attempted: u64,
    /// Units whose run or check failed, plus a failed end-of-run check.
    pub failed: u64,
    /// `(name, value, unit)` in reporting order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// A traced run's spans, as JSON lines.
    pub spans: Option<String>,
}

impl Outcome {
    /// The one-line JSON result.
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    cws_obs::json::json_str(name),
                    cws_obs::json::json_f64(*value),
                    cws_obs::json::json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Runs units and counts them, turning errors and panics into failures.
struct Checker<'a> {
    workload: &'a str,
    attempted: u64,
    failed: u64,
}

impl Checker<'_> {
    fn check(&mut self, f: impl FnOnce() -> Result<(), String>) -> bool {
        self.attempted += 1;
        let err = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(())) => return true,
            Ok(Err(e)) => e,
            Err(panic) => panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "panic".to_string()),
        };
        eprintln!("{}: {err}", self.workload);
        self.failed += 1;
        false
    }

    fn outcome(self, metrics: Vec<(String, f64, &'static str)>, spans: Option<String>) -> Outcome {
        Outcome {
            correct: self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            spans,
        }
    }
}

/// Run `workload` at `seed` for `seconds` (at least one unit). With
/// `trace`, run the traced replica instead and report per-layer metrics.
///
/// # Errors
/// An unknown workload, or a set-up that fails.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut w: Option<Box<dyn Workload>> = None;
    while setup_s.is_empty()
        || !trace
            && setup_s.len() < SETUP_MAX
            && (setup_s.len() < SETUP_REPEATS || setup_s.iter().sum::<f64>() < SETUP_MIN_S)
    {
        if let Some(mut previous) = w.take() {
            previous.finish()?;
        }
        let start = Instant::now();
        w = Some(setup(workload, seed)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up ran");
    let checker = Checker {
        workload,
        attempted: 0,
        failed: 0,
    };
    Ok(if trace {
        traced(&mut *w, checker, seconds)
    } else {
        timed(&mut *w, checker, seconds, &setup_s)
    })
}

fn timed(w: &mut dyn Workload, mut c: Checker<'_>, seconds: f64, setup_s: &[f64]) -> Outcome {
    let warmup = Instant::now();
    while warmup.elapsed().as_secs_f64() < WARMUP_S.min(seconds) && c.check(|| w.unit()) {}

    let (mut unit_ms, mut cpu_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        let (t, cpu) = (Instant::now(), measure::cpu_seconds());
        let ok = c.check(|| w.unit());
        unit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        cpu_ms.push((measure::cpu_seconds() - cpu) * 1e3);
        if !ok || start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    c.check(|| w.finish());
    let rss = match measure::peak_rss_mib() {
        Ok(mib) => mib,
        Err(e) => {
            c.check(|| Err(e));
            0.0
        }
    };
    let values = [
        unit_ms.len() as f64 * w.work_per_unit() / elapsed,
        measure::quantile(&unit_ms, 0.5),
        measure::quantile(&cpu_ms, 0.5),
        rss,
        measure::quantile(setup_s, 0.5),
    ];
    let metrics = end_to_end()
        .into_iter()
        .zip(values)
        .map(|(m, v)| (m.name, v, m.unit))
        .collect();
    c.outcome(metrics, None)
}

fn traced(w: &mut dyn Workload, mut c: Checker<'_>, seconds: f64) -> Outcome {
    // The entry point's output, which every replica unit must equal.
    c.check(|| w.unit());

    // Spans-on and spans-off units alternate, so both see the same
    // machine conditions and the difference is the tracing overhead.
    let mut on = Tracer::new(true);
    let mut off = Tracer::new(false);
    let (mut on_s, mut off_s) = (0.0, 0.0);
    let start = Instant::now();
    while c.failed == 0
        && (on.units() == 0 || start.elapsed().as_secs_f64() < seconds * TRACED_SHARE)
    {
        for (tracer, total) in [(&mut on, &mut on_s), (&mut off, &mut off_s)] {
            let t = Instant::now();
            c.check(|| w.replica(tracer));
            *total += t.elapsed().as_secs_f64();
        }
    }
    w.settle(&mut on);

    // One entry-point unit with the program's own counters on.
    let registry = cws_obs::MetricsRegistry::global();
    registry.reset();
    cws_obs::set_metrics_enabled(true);
    c.check(|| w.unit());
    cws_obs::set_metrics_enabled(false);
    let snap = registry.snapshot();
    c.check(|| w.finish());

    let per_unit = f64::from(on.units().max(1));
    let mut values = Vec::new();
    for &l in Layer::ALL {
        let t = on.totals(l);
        values.push(t.calls as f64 / per_unit);
        values.push(t.self_ns as f64 / 1e6 / per_unit);
    }
    values.extend(COUNTERS.map(|n| snap.counter(n) as f64));
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let count = |name| snap.counter(name) as f64;
    let (hits, cold) = (count(names::POOL_HITS), count(names::POOL_COLD_RENTALS));
    values.push(ratio(
        count(names::KERNEL_PLACEMENTS),
        count(names::KERNEL_PROBES),
    ));
    values.push(ratio(hits, hits + cold));
    values.push(w.spot_completion_rate());
    values.push(100.0 * ratio(on_s - off_s, off_s));
    values.push(on.coverage_pct());
    let metrics = per_layer()
        .into_iter()
        .zip(values)
        .map(|(m, v)| (m.name, v, m.unit))
        .collect();
    c.outcome(metrics, Some(on.to_jsonl()))
}
