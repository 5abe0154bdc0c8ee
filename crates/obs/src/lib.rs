//! Observability for the workflow-scheduling workspace: structured
//! event tracing, a lock-free metrics registry and reproducible run
//! manifests.
//!
//! The paper's evaluation (Sect. V) reduces every provisioning ×
//! allocation pairing to three derived numbers — makespan gain,
//! monetary loss and VM idle time. This crate exposes *how* those
//! numbers come about:
//!
//! * [`trace`] — a structured event stream ([`TraceEvent`]) emitted by
//!   the scheduling kernel (`cws-core`), the discrete-event replayer
//!   (`cws-sim`) and the warm-VM pool (`cws-service`), delivered to a
//!   pluggable [`TraceSink`] (JSONL file or in-memory ring buffer).
//!   Tracing is **zero-cost when disabled**: every emission site checks
//!   one relaxed atomic load (or a bool captured at construction) and
//!   the event itself is built inside a closure that never runs while
//!   tracing is off.
//! * [`metrics`] — named counters, gauges and histograms backed by
//!   atomics. Counter and histogram state is integer-only, so
//!   accumulation is commutative and parallel sweeps produce
//!   bit-identical totals at any thread count. Snapshots are
//!   [mergeable](metrics::MetricsSnapshot::merge) across per-worker
//!   registries and read back from JSON by
//!   [`MetricsSnapshot::from_json`].
//! * [`manifest`] — a [`RunManifest`] written next to every experiment
//!   or bench artifact: git SHA, seed, thread count, platform
//!   fingerprint, policy set and final metrics, sufficient to re-run
//!   the producing command.
//! * [`report`] — a streaming trace reducer ([`TraceReducer`]) that
//!   folds a `--trace` JSONL stream back into per-VM billing and
//!   utilisation summaries in one constant-memory pass, and a
//!   reconciliation gate ([`report::check`]) that recomputes cost and
//!   makespan from the trace and compares them — exactly — against the
//!   run manifest's gauges (`cws-exp trace-report --check`).
//!
//! The crate deliberately depends on nothing else in the workspace (it
//! sits below `cws-core`), so events carry primitive ids — dense task
//! and VM indices — rather than the richer domain types.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod report;
pub mod sink;
pub mod trace;

pub use event::{PlacementKind, TraceEvent};
pub use manifest::RunManifest;
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
pub use report::{SegmentSummary, TraceReducer, TraceReport, VmSummary};
pub use sink::{JsonlSink, RingSink, TraceSink};
pub use trace::{
    clear_sink, emit, flush, install_sink, metrics_enabled, quiet, set_metrics_enabled,
    trace_enabled,
};
