//! The sharded engine's central contract: shard count and thread count
//! are **invisible**. For every seed in the CI seed matrix, the report
//! JSON and the trace byte stream produced by the sharded engine must
//! be byte-identical to the reference engine, `run_service` — and
//! therefore to each other — across shards ∈ {1, 2, 8} × threads ∈
//! {1, 2, 3, 8} × epoch ∈ {1, 7, 64}. Epoch 7 splits unevenly into the pipeline's
//! chunks (3 tickets at two threads, 2 at three), so the chunks never
//! fill the credit window exactly.
//!
//! The trace sink is process-global, so every test here serializes on
//! one lock and uninstalls the sink before releasing it.

use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};

use cws_core::StaticAlloc;
use cws_obs as obs;
use cws_platform::{InstanceType, Platform};
use cws_serve::{run_sharded_service, run_sharded_summary, ShardedConfig};
use cws_service::{
    run_service, ArrivalModel, ReclaimPolicy, ServiceConfig, TenantSpec, TicketStream, WorkloadKind,
};

static OBS_GUARD: Mutex<()> = Mutex::new(());

fn obs_lock() -> MutexGuard<'static, ()> {
    OBS_GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

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

fn config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        alloc: StaticAlloc::HeftStartParExceed,
        itype: InstanceType::Small,
        reclaim: ReclaimPolicy::AtBtuBoundary,
        boot_time_s: 120.0,
        tenants: vec![
            TenantSpec {
                name: "astro".to_string(),
                kind: WorkloadKind::Montage24,
                rate_per_hour: 6.0,
            },
            TenantSpec {
                name: "climate".to_string(),
                kind: WorkloadKind::CStem,
                rate_per_hour: 4.0,
            },
            TenantSpec {
                name: "batch".to_string(),
                kind: WorkloadKind::BagOfTasks(16),
                rate_per_hour: 3.0,
            },
        ],
        model: ArrivalModel::Poisson {
            horizon_s: 2.0 * 3600.0,
        },
        seed,
    }
}

/// Thread counts and credit windows every matrix below covers.
const THREADS: [usize; 4] = [1, 2, 3, 8];
const EPOCHS: [usize; 3] = [1, 7, 64];

/// The full matrix: seeds 7, 42, 1337 × shards 1, 2, 8 × threads
/// 1, 2, 3, 8 × epoch 1, 7, 64 — every cell byte-identical to legacy
/// in both report and trace.
#[test]
fn report_and_trace_are_invariant_across_shards_and_threads() {
    let _g = obs_lock();
    obs::set_metrics_enabled(false);
    let platform = Platform::ec2_paper();
    for seed in [7_u64, 42, 1337] {
        let cfg = config(seed);
        let (legacy_report, legacy_trace) = traced(|| run_service(&platform, &cfg));
        let legacy_json = legacy_report.to_json();
        assert!(
            !legacy_trace.is_empty(),
            "seed {seed}: legacy run must emit trace events"
        );
        for shards in [1_usize, 2, 8] {
            for threads in THREADS {
                for epoch in EPOCHS {
                    let scfg = ShardedConfig {
                        service: cfg.clone(),
                        shards,
                        threads,
                        epoch,
                    };
                    let (report, trace) = traced(|| run_sharded_service(&platform, &scfg));
                    let cell =
                        format!("seed {seed} shards {shards} threads {threads} epoch {epoch}");
                    assert_eq!(report.to_json(), legacy_json, "report diverged: {cell}");
                    assert!(
                        trace == legacy_trace,
                        "trace bytes diverged: {cell} (legacy {} bytes, sharded {} bytes)",
                        legacy_trace.len(),
                        trace.len()
                    );
                }
            }
        }
    }
}

/// The pipeline's edge cases: a stream with no tickets at all, and one
/// whose horizon closes between the first and second arrival.
#[test]
fn empty_and_one_ticket_streams_are_invariant() {
    let _g = obs_lock();
    obs::set_metrics_enabled(false);
    let platform = Platform::ec2_paper();
    let tickets = |cfg: &ServiceConfig| TicketStream::new(&cfg.tenants, &cfg.model, cfg.seed);
    let mut first_two = tickets(&config(42)).map(|t| t.time);
    let (t0, t1) = (
        first_two.next().expect("a first arrival"),
        first_two.next().expect("a second arrival"),
    );
    for (horizon_s, want) in [(0.0, 0), ((t0 + t1) / 2.0, 1)] {
        let mut cfg = config(42);
        cfg.model = ArrivalModel::Poisson { horizon_s };
        assert_eq!(tickets(&cfg).count(), want, "horizon {horizon_s} s");
        let (legacy, legacy_trace) = traced(|| run_service(&platform, &cfg).to_json());
        for threads in THREADS {
            for epoch in EPOCHS {
                let scfg = ShardedConfig {
                    service: cfg.clone(),
                    shards: 2,
                    threads,
                    epoch,
                };
                let (sharded, trace) = traced(|| run_sharded_service(&platform, &scfg).to_json());
                let cell = format!("{want} tickets, threads {threads} epoch {epoch}");
                assert_eq!(sharded, legacy, "report diverged: {cell}");
                assert!(trace == legacy_trace, "trace bytes diverged: {cell}");
            }
        }
    }
}

/// The summary mode folds the same fleet numbers as the full report,
/// and is itself shard/thread-invariant.
#[test]
fn summary_is_invariant_and_consistent_with_full_report() {
    let _g = obs_lock();
    obs::set_metrics_enabled(false);
    let platform = Platform::ec2_paper();
    let cfg = config(42);
    let full = run_service(&platform, &cfg);
    let baseline = run_sharded_summary(&platform, &ShardedConfig::new(cfg.clone())).to_json();
    for (shards, threads) in [(2, 1), (8, 8)] {
        let scfg = ShardedConfig {
            service: cfg.clone(),
            shards,
            threads,
            epoch: 16,
        };
        let summary = run_sharded_summary(&platform, &scfg);
        assert_eq!(
            summary.to_json(),
            baseline,
            "shards {shards} threads {threads}"
        );
        assert_eq!(
            summary.fleet, full.fleet,
            "summary fleet == full-report fleet"
        );
    }
}

/// Immediate reclaim (the no-reuse baseline) must also hold the
/// contract — it exercises the path where warm snapshots are empty and
/// every machine dies at its idle start.
#[test]
fn immediate_reclaim_is_invariant_too() {
    let _g = obs_lock();
    obs::set_metrics_enabled(false);
    let platform = Platform::ec2_paper();
    let mut cfg = config(7);
    cfg.reclaim = ReclaimPolicy::Immediate;
    cfg.boot_time_s = 0.0;
    let (legacy, legacy_trace) = traced(|| run_service(&platform, &cfg).to_json());
    let scfg = ShardedConfig {
        service: cfg.clone(),
        shards: 8,
        threads: 8,
        epoch: 32,
    };
    let (sharded, trace) = traced(|| run_sharded_service(&platform, &scfg).to_json());
    assert_eq!(sharded, legacy);
    assert!(
        trace == legacy_trace,
        "immediate-reclaim trace bytes diverged"
    );
}
