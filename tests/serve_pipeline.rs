//! The serve engine's pipeline and shards are invisible: a small run of
//! the `cws-exp serve` paper profile gives the same summary JSON and the
//! same trace bytes at 1, 2 and 8 threads and at 1, 2 and 8 shards, and
//! those trace bytes and fleet numbers are the reference engine's. The
//! full shard × thread × epoch matrix lives in
//! `crates/serve/tests/shard_invariance.rs`; this copy keeps an engine
//! regression visible to the root `cargo test`.

use std::io::Write;
use std::sync::{Arc, Mutex};

use cloud_workflow_sched::prelude::*;
use cloud_workflow_sched::service::{
    run_service, ArrivalModel, ReclaimPolicy, ServiceConfig, TenantSpec, WorkloadKind,
};
use cws_obs as obs;
use cws_serve::{run_sharded_summary, ShardedConfig};

/// `Write` handle into a shared byte buffer, so a `JsonlSink` can be
/// read back after the run.
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The paper profile of `cws-exp serve`: three tenants, 120 s boot,
/// BTU-boundary reclaim, over one simulated day.
fn paper_profile(seed: u64) -> ServiceConfig {
    let tenant = |name: &str, kind, rate_per_hour| TenantSpec {
        name: name.to_string(),
        kind,
        rate_per_hour,
    };
    ServiceConfig {
        alloc: StaticAlloc::HeftStartParExceed,
        itype: InstanceType::Small,
        reclaim: ReclaimPolicy::AtBtuBoundary,
        boot_time_s: 120.0,
        tenants: vec![
            tenant("astro", WorkloadKind::Montage24, 6.0),
            tenant("climate", WorkloadKind::CStem, 4.0),
            tenant("batch", WorkloadKind::BagOfTasks(16), 3.0),
        ],
        model: ArrivalModel::Poisson {
            horizon_s: 24.0 * 3600.0,
        },
        seed,
    }
}

/// Run `f` with a fresh JSONL trace sink installed; returns the result
/// and the exact bytes the run emitted.
fn traced<R>(f: impl FnOnce() -> R) -> (R, Vec<u8>) {
    let bytes = Arc::new(Mutex::new(Vec::new()));
    let sink = obs::JsonlSink::from_writer(Box::new(SharedBuf(bytes.clone())));
    obs::install_sink(Arc::new(sink));
    let result = f();
    obs::flush();
    obs::clear_sink();
    let captured = bytes.lock().expect("buffer poisoned").clone();
    (result, captured)
}

#[test]
fn summary_and_trace_bytes_are_thread_invariant() {
    obs::set_metrics_enabled(false);
    let platform = Platform::ec2_paper();
    let run = |shards: usize, threads: usize| {
        let cfg = ShardedConfig {
            service: paper_profile(42),
            shards,
            threads,
            epoch: 64,
        };
        traced(|| run_sharded_summary(&platform, &cfg))
    };
    let (summary, trace) = run(1, 1);
    assert!(!trace.is_empty(), "the run must emit trace events");
    let (reference, reference_trace) = traced(|| run_service(&platform, &paper_profile(42)));
    assert_eq!(
        summary.fleet, reference.fleet,
        "fleet differs from the reference engine"
    );
    assert!(
        trace == reference_trace,
        "trace bytes differ from the reference engine ({} vs {} bytes)",
        trace.len(),
        reference_trace.len()
    );
    let summary = summary.to_json();
    for (shards, threads) in [(1, 2), (1, 8), (2, 1), (2, 2), (8, 2)] {
        let (s, t) = run(shards, threads);
        assert_eq!(
            s.to_json(),
            summary,
            "summary diverged at {shards} shards, {threads} threads"
        );
        assert!(
            t == trace,
            "trace bytes diverged at {shards} shards, {threads} threads ({} vs {} bytes)",
            t.len(),
            trace.len()
        );
    }
}
