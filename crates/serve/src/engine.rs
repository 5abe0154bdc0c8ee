//! The sharded streaming engine: lazy arrivals → chunked two-stage
//! pipeline → sequential in-order commits against the [`ShardedPool`].
//!
//! # Pipeline shape
//!
//! Per submission the work splits in two. *Preparation* materializes
//! the workflow from its ticket seed and schedules the cold one-shot
//! reference; it never touches the pool. The *commit* (reclaim, warm
//! snapshot, pooled schedule, pool mutation, report fold) is
//! order-sensitive; it is `Committer::admit`, the same admission step
//! the daemon runs per submission. Both cost about the same, so with
//! `threads = T` the calling thread commits while `T - 1` worker lanes
//! prepare:
//!
//! ```text
//!                 chunk k ──► lane k mod L: realize + cold reference
//! TicketStream ──►                          (under obs::quiet)
//!   (chunks of C)                                │ prepared chunk k
//!        ▲                                       ▼
//!        └── refill lane ◄── committer ◄─ lanes in round-robin order
//!                           (this thread, strict arrival order)
//!                                │ committed chunk k
//!                                └──► back to lane k mod L, dropped there
//! ```
//!
//! Chunk *k* of `C` contiguous tickets goes to lane *k mod L* and the
//! committer takes results from the lanes in the same round-robin
//! order, so they arrive in arrival order and need no reorder buffer.
//! While chunk *k* commits, the lanes prepare the next `L` chunks. A
//! committed chunk returns to the lane that allocated it to be freed
//! there: freeing on the committer sends every allocation through
//! the allocator's cross-thread path, which doubled the CPU time of a
//! two-thread run.
//!
//! The pool therefore sees the identical operation sequence at any
//! thread count. Because preparation is muted with [`cws_obs::quiet`],
//! the trace byte stream is identical too. With `threads <= 1` the same
//! sequence runs inline on one thread, no channels involved; it is the
//! reference.
//!
//! Memory is bounded by the credit window plus the live pool. Tickets
//! are ~40 bytes. Workflows exist only from preparation until their
//! lane drops them after the commit. At most `epoch.max(threads)` of
//! them wait for their commit at once: each lane holds one chunk and
//! the committer one more, and `C` is sized so that `L + 1` chunks
//! fit. With one lane that is all that is alive; with more, each lane
//! may also hold one committed chunk it has yet to drop. Terminated
//! machines fold into the running [`ReportAccumulator`] (rental order)
//! and are dropped.

use crate::shard::ShardedPool;
use cws_core::pooled::pooled_static;
use cws_core::StaticAlloc;
use cws_dag::Workflow;
use cws_obs as obs;
use cws_platform::{InstanceType, Platform};
use cws_service::{
    ArrivalTicket, ReclaimPolicy, ReportAccumulator, ServiceConfig, ServiceReport, ServiceSummary,
    TicketStream, WorkflowRecord, WorkloadKind,
};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::{self, ScopedJoinHandle};

/// Gauge reporting the shard count of the last sharded run.
pub const SERVICE_SHARDS: &str = "service.shards";

/// A [`ServiceConfig`] plus the sharding/pipelining knobs. The knobs
/// never change observable output — that is the engine's contract,
/// enforced by the shard-invariance test matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedConfig {
    /// The run itself (strategy, tenants, arrivals, seed, …).
    pub service: ServiceConfig,
    /// Warm-pool shard count.
    pub shards: usize,
    /// Threads, the committer included: `threads - 1` preparation
    /// lanes feed the committing thread. `<= 1` runs fully inline.
    pub threads: usize,
    /// Credit window: at most `epoch.max(threads)` workflows are alive
    /// between preparation and commit.
    pub epoch: usize,
}

impl ShardedConfig {
    /// Single-shard, single-threaded configuration with the default
    /// credit window — observably identical to any other shard and
    /// thread count.
    #[must_use]
    pub fn new(service: ServiceConfig) -> Self {
        ShardedConfig {
            service,
            shards: 1,
            threads: 1,
            epoch: 64,
        }
    }
}

/// The cold one-shot reference makespan of `wf`: the same strategy
/// from an empty pool. It is a counterfactual, so it runs under
/// [`obs::quiet`] and leaves no mark in the trace or metrics streams.
pub(crate) fn cold_makespan(
    wf: &Workflow,
    platform: &Platform,
    alloc: StaticAlloc,
    itype: InstanceType,
) -> f64 {
    obs::quiet(|| {
        pooled_static(wf, platform, alloc, itype, &[])
            .schedule
            .makespan()
    })
}

/// A submission after the parallel preparation stage: everything the
/// committer needs, in a form that crossed the channel.
struct Prepared {
    tenant: usize,
    time: f64,
    wf: Workflow,
    cold_makespan_s: f64,
}

impl Prepared {
    /// Prepare one ticket. Runs muted: preparation happens on worker
    /// threads in nondeterministic real-time order, so nothing it does
    /// may reach the trace or metrics streams (ticket realization emits
    /// nothing but is muted for symmetry with the cold reference).
    fn prepare(
        ticket: &ArrivalTicket,
        kinds: &[WorkloadKind],
        platform: &Platform,
        alloc: StaticAlloc,
        itype: InstanceType,
    ) -> Prepared {
        let wf = obs::quiet(|| ticket.realize(kinds[ticket.tenant]));
        let cold_makespan_s = cold_makespan(&wf, platform, alloc, itype);
        Prepared {
            tenant: ticket.tenant,
            time: ticket.time,
            wf,
            cold_makespan_s,
        }
    }
}

/// The order-sensitive half of the service: the sharded pool, the
/// running report fold, and the platform and strategy every submission
/// is scheduled with. The batch engine's committer and the daemon each
/// drive one, one admission at a time in arrival order. Every trace
/// event of a run is born here, which is what makes the byte stream
/// thread-count-invariant.
#[derive(Debug)]
pub(crate) struct Committer {
    /// The platform, already carrying the run's boot time.
    pub(crate) platform: Platform,
    pub(crate) alloc: StaticAlloc,
    pub(crate) itype: InstanceType,
    pub(crate) pool: ShardedPool,
    pub(crate) acc: ReportAccumulator,
}

impl Committer {
    /// An empty pool of `shards` shards under `reclaim`, folding into a
    /// report over `tenants` tenants.
    pub(crate) fn new(
        platform: Platform,
        alloc: StaticAlloc,
        itype: InstanceType,
        reclaim: ReclaimPolicy,
        shards: usize,
        tenants: usize,
    ) -> Self {
        Committer {
            platform,
            alloc,
            itype,
            pool: ShardedPool::new(reclaim, shards),
            acc: ReportAccumulator::new(tenants),
        }
    }

    /// Admit `wf` for `tenant` at `now`: reclaim the machines due by
    /// then and fold those whose turn has come, schedule `wf` against a
    /// snapshot of the warm pool, fold the outcome and its
    /// `service.queue_wait` sample, and commit the schedule to the pool.
    pub(crate) fn admit(
        &mut self,
        tenant: usize,
        now: f64,
        wf: &Workflow,
        cold_makespan_s: f64,
    ) -> WorkflowRecord {
        self.pool.reclaim_until(now);
        self.drain();
        let (warm, slot_map) = self.pool.warm_slots(now);
        let pooled = pooled_static(wf, &self.platform, self.alloc, self.itype, &warm);
        let queue_delay_s = pooled
            .schedule
            .placements
            .iter()
            .map(|pl| pl.start)
            .fold(f64::INFINITY, f64::min);
        let record = WorkflowRecord {
            tenant,
            arrival_s: now,
            makespan_s: pooled.schedule.makespan(),
            cold_makespan_s,
            queue_delay_s,
            pool_hits: pooled.pool_hits(),
            cold_rentals: pooled.cold_rentals(),
            tasks: wf.len(),
        };
        self.acc.record(&record);
        // Queue wait in sim-clock milliseconds: derived from placement
        // starts, so the histogram is deterministic at any thread count.
        if obs::metrics_enabled() && record.queue_delay_s.is_finite() {
            obs::MetricsRegistry::global()
                .histogram(obs::metrics::names::SERVICE_QUEUE_WAIT)
                .record((record.queue_delay_s * 1000.0).round() as u64);
        }
        self.pool
            .commit(now, tenant, &pooled, &slot_map, &self.platform);
        record
    }

    /// Fold every terminated machine whose rental-order turn has come.
    pub(crate) fn drain(&mut self) {
        self.pool.drain_folded(&mut self.acc, &self.platform);
    }

    /// Terminate every live machine and fold them all.
    pub(crate) fn finish(&mut self) {
        self.pool.finish();
        self.drain();
        debug_assert_eq!(self.pool.pending_fold(), 0, "every machine folded");
    }
}

/// A message to a preparation lane.
enum Job<T, P> {
    /// Prepare these items and send the results back.
    Prepare(Vec<T>),
    /// Drop these committed results. They were allocated on this lane,
    /// and freeing them here keeps the allocator off its cross-thread
    /// path (see the module docs).
    Retire(Vec<P>),
}

/// One preparation lane of [`ordered_pipeline`]: its worker's job
/// inbox, its result outbox, and its join handle, kept so a worker's
/// panic can be re-raised with its own payload.
struct Lane<'scope, T, P> {
    jobs: SyncSender<Job<T, P>>,
    results: Receiver<Vec<P>>,
    worker: ScopedJoinHandle<'scope, ()>,
}

impl<T, P> Lane<'_, T, P> {
    /// Re-raise the panic that ended this lane's worker.
    fn rethrow(self) -> ! {
        drop((self.jobs, self.results));
        match self.worker.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            // A worker only exits cleanly once its job inbox closes,
            // and the committer holds that inbox open while it waits.
            Ok(()) => unreachable!("pipeline worker exited with work in flight"),
        }
    }
}

/// Send `job` to lane `at`, or re-raise the panic that closed its inbox.
fn send_job<T, P>(lanes: &mut Vec<Lane<'_, T, P>>, at: usize, job: Job<T, P>) {
    if lanes[at].jobs.send(job).is_err() {
        lanes.swap_remove(at).rethrow();
    }
}

/// Run `prepare` over `items` on `lanes` worker threads and `commit`
/// on the calling thread, strictly in item order.
///
/// Items travel in contiguous chunks of `chunk`. Chunk *k* goes to
/// lane *k mod lanes*, and results are taken back from the lanes in
/// the same round-robin order, so they arrive in item order with no
/// reorder buffer. While the caller commits chunk *k*, the lanes
/// prepare chunks *k + 1 ..= k + lanes*: a lane holds at most one
/// chunk and the committer one more, so no more than
/// `(lanes + 1) × chunk` prepared values wait for their commit.
///
/// A committed chunk goes back to its lane to be dropped. The lane
/// drops it before its next chunk when `lanes == 1`, so then at most
/// `2 × chunk` values are alive at all. With more lanes the drop may
/// wait behind the lane's current chunk, adding one chunk per lane.
///
/// A panic in `prepare` is re-raised on the calling thread with its
/// original payload. A panic in `commit` closes every channel on its
/// way out, so the workers exit instead of blocking the scope's join.
fn ordered_pipeline<T: Send, P: Send>(
    mut items: impl Iterator<Item = T>,
    chunk: usize,
    lanes: usize,
    prepare: impl Fn(T) -> P + Sync,
    mut commit: impl FnMut(&P),
) {
    let chunk = chunk.max(1);
    let mut next_chunk = move || {
        let c: Vec<T> = items.by_ref().take(chunk).collect();
        (!c.is_empty()).then_some(c)
    };
    let prepare = &prepare;
    thread::scope(|scope| {
        let mut lanes: Vec<Lane<'_, T, P>> = (0..lanes.max(1))
            .map(|_| {
                // Two inbox slots hold a lane's pending `Retire` and its
                // next `Prepare`; the outbox holds its one prepared chunk.
                let (jobs, job_rx) = sync_channel::<Job<T, P>>(2);
                let (result_tx, results) = sync_channel::<Vec<P>>(1);
                let worker = scope.spawn(move || {
                    for job in job_rx {
                        match job {
                            Job::Prepare(items) => {
                                let prepared = items.into_iter().map(prepare).collect();
                                if result_tx.send(prepared).is_err() {
                                    return; // the committer is unwinding
                                }
                            }
                            Job::Retire(spent) => drop(spent),
                        }
                    }
                });
                Lane {
                    jobs,
                    results,
                    worker,
                }
            })
            .collect();

        let mut in_flight = 0usize;
        for at in 0..lanes.len() {
            let Some(c) = next_chunk() else { break };
            send_job(&mut lanes, at, Job::Prepare(c));
            in_flight += 1;
        }
        let mut at = 0usize;
        while in_flight > 0 {
            let Ok(prepared) = lanes[at].results.recv() else {
                lanes.swap_remove(at).rethrow();
            };
            in_flight -= 1;
            // Refill this lane before committing, so the next chunk's
            // preparation overlaps this chunk's commit.
            if let Some(c) = next_chunk() {
                send_job(&mut lanes, at, Job::Prepare(c));
                in_flight += 1;
            }
            prepared.iter().for_each(&mut commit);
            send_job(&mut lanes, at, Job::Retire(prepared));
            at = (at + 1) % lanes.len();
        }
    });
}

/// Run the sharded engine and fold the whole run into an accumulator.
fn drive(platform: &Platform, cfg: &ShardedConfig) -> ReportAccumulator {
    let svc = &cfg.service;
    let platform = platform.clone().with_boot_time(svc.boot_time_s);
    let kinds: Vec<WorkloadKind> = svc.tenants.iter().map(|t| t.kind).collect();
    let (alloc, itype) = (svc.alloc, svc.itype);
    let shards = cfg.shards.max(1);

    let mut committer = Committer::new(
        platform.clone(),
        alloc,
        itype,
        svc.reclaim,
        shards,
        svc.tenants.len(),
    );
    let mut commit = |p: &Prepared| {
        committer.admit(p.tenant, p.time, &p.wf, p.cold_makespan_s);
    };
    let prepare =
        |ticket: ArrivalTicket| Prepared::prepare(&ticket, &kinds, &platform, alloc, itype);
    let tickets = TicketStream::new(&svc.tenants, &svc.model, svc.seed);

    if cfg.threads <= 1 {
        for ticket in tickets {
            commit(&prepare(ticket));
        }
    } else {
        // The committer is a thread too, so `threads` buys `threads - 1`
        // preparation lanes. A lane holds at most one chunk of prepared
        // workflows and the committer one more, so `lanes + 1` chunks
        // fill the credit window. On a two-core machine one lane with
        // 32-ticket chunks beat two lanes with 21-ticket ones, and
        // smaller chunks were no faster.
        let window = cfg.epoch.max(cfg.threads);
        let lanes = cfg.threads - 1;
        let chunk = (window / (lanes + 1)).max(1);
        ordered_pipeline(tickets, chunk, lanes, prepare, commit);
    }
    committer.finish();

    let acc = committer.acc;
    if obs::metrics_enabled() {
        let reg = obs::MetricsRegistry::global();
        let (hits, cold) = acc.rentals();
        if hits + cold > 0 {
            reg.gauge(obs::metrics::names::RUN_POOL_HIT_RATE)
                .set(hits as f64 / (hits + cold) as f64);
        }
        reg.gauge(SERVICE_SHARDS).set(shards as f64);
    }
    acc
}

/// Run the sharded engine, producing the full per-tenant report. At
/// any shard and thread count its JSON and trace bytes equal those of
/// the reference engine, [`cws_service::run_service`], on the same
/// [`ServiceConfig`].
#[must_use]
pub fn run_sharded_service(platform: &Platform, cfg: &ShardedConfig) -> ServiceReport {
    drive(platform, cfg).finish_report(&cfg.service)
}

/// Run the sharded engine, producing the bounded [`ServiceSummary`]
/// (`--report summary`): fleet aggregates plus histogram percentiles,
/// `O(1)` output for any tenant count.
#[must_use]
pub fn run_sharded_summary(platform: &Platform, cfg: &ShardedConfig) -> ServiceSummary {
    drive(platform, cfg).finish_summary(&cfg.service)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_service::{run_service, ArrivalModel, TenantSpec};

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
            ],
            model: ArrivalModel::Poisson {
                horizon_s: 2.0 * 3600.0,
            },
            seed,
        }
    }

    #[test]
    fn sharded_report_matches_legacy_byte_for_byte() {
        let p = Platform::ec2_paper();
        let legacy = run_service(&p, &config(42)).to_json();
        for shards in [1, 3] {
            for threads in [1, 4] {
                let cfg = ShardedConfig {
                    service: config(42),
                    shards,
                    threads,
                    epoch: 8,
                };
                let got = run_sharded_service(&p, &cfg).to_json();
                assert_eq!(got, legacy, "shards={shards} threads={threads}");
            }
        }
    }

    #[test]
    fn summary_fleet_matches_full_report_fleet() {
        let p = Platform::ec2_paper();
        let cfg = ShardedConfig::new(config(7));
        let full = run_sharded_service(&p, &cfg);
        let summary = run_sharded_summary(&p, &cfg);
        assert_eq!(summary.fleet, full.fleet);
        assert_eq!(summary.strategy, full.strategy);
        assert!(summary.p50_makespan_ms <= summary.p99_makespan_ms);
    }

    #[test]
    fn tiny_credit_window_still_commits_in_order() {
        let p = Platform::ec2_paper();
        let legacy = run_service(&p, &config(1337)).to_json();
        let cfg = ShardedConfig {
            service: config(1337),
            shards: 2,
            threads: 3,
            epoch: 1, // degenerate window: one ticket in flight per worker refill
        };
        assert_eq!(run_sharded_service(&p, &cfg).to_json(), legacy);
    }

    #[test]
    fn pipeline_commits_every_item_in_order_within_the_window() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        /// A prepared value that counts itself out of `alive` on drop.
        struct Counted<'a>(u32, &'a AtomicUsize);
        impl Drop for Counted<'_> {
            fn drop(&mut self) {
                self.1.fetch_sub(1, Ordering::SeqCst);
            }
        }
        for n in [0_u32, 1, 5, 100] {
            for lanes in [1, 2, 3, 8] {
                for chunk in [1, 3, 7, 64] {
                    // `alive`: prepared, not yet dropped. `waiting`:
                    // prepared, not yet committed.
                    let (alive, waiting) = (AtomicUsize::new(0), AtomicUsize::new(0));
                    let (peak_alive, peak_waiting) = (AtomicUsize::new(0), AtomicUsize::new(0));
                    let mut got = Vec::new();
                    ordered_pipeline(
                        0..n,
                        chunk,
                        lanes,
                        |i| {
                            peak_alive.fetch_max(
                                alive.fetch_add(1, Ordering::SeqCst) + 1,
                                Ordering::SeqCst,
                            );
                            peak_waiting.fetch_max(
                                waiting.fetch_add(1, Ordering::SeqCst) + 1,
                                Ordering::SeqCst,
                            );
                            Counted(i * 2, &alive)
                        },
                        |p| {
                            waiting.fetch_sub(1, Ordering::SeqCst);
                            got.push(p.0);
                        },
                    );
                    let case = format!("n={n} lanes={lanes} chunk={chunk}");
                    let want: Vec<u32> = (0..n).map(|i| i * 2).collect();
                    assert_eq!(got, want, "{case}");
                    assert_eq!(alive.load(Ordering::SeqCst), 0, "{case}: all dropped");
                    let peak_waiting = peak_waiting.load(Ordering::SeqCst);
                    assert!(
                        peak_waiting <= (lanes + 1) * chunk,
                        "{case}: {peak_waiting} waiting"
                    );
                    let peak_alive = peak_alive.load(Ordering::SeqCst);
                    let alive_bound = if lanes == 1 { 2 } else { 2 * lanes + 1 } * chunk;
                    assert!(peak_alive <= alive_bound, "{case}: {peak_alive} alive");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "prepare failed on item 5")]
    fn pipeline_reraises_a_prepare_panic_with_its_message() {
        ordered_pipeline(
            0..64_u32,
            2,
            3,
            |i| {
                assert!(i != 5, "prepare failed on item {i}");
                i
            },
            |_| {},
        );
    }

    #[test]
    #[should_panic(expected = "commit failed on item 9")]
    fn pipeline_commit_panic_does_not_deadlock_the_workers() {
        ordered_pipeline(
            0..1000_u32,
            4,
            2,
            |i| i,
            |&i| assert!(i != 9, "commit failed on item {i}"),
        );
    }
}
