//! Streaming trace analysis: fold a `--trace` JSONL stream back into
//! per-VM billing/utilisation summaries and per-run aggregates, in one
//! pass and in memory proportional to the *schedules* (VMs + tasks),
//! never to the trace length.
//!
//! The paper's evaluation (Sect. V) is entirely about per-VM
//! utilisation — makespan gain, monetary loss and idle time per
//! provisioning × scheduling pairing. The trace stream already carries
//! every ingredient (leases with prices, probe decisions, replayed
//! task intervals, BTU-boundary crossings, priced reclaims); this
//! module is the fold that turns the stream back into those numbers,
//! so a trace can be audited post-hoc without `jq` — and, through
//! `cws-exp trace-report --check`, *reconciled* against the run's
//! manifest: the recomputed plan cost and makespan must equal the
//! `run.cost_usd` / `run.makespan_s` gauges bit-for-bit.
//!
//! # Segmentation
//!
//! One trace file may carry many schedules (every cell of a figure
//! matrix replays through the same global sink). At `--threads 1` the
//! stream is a concatenation of **segments**, each the builder events
//! of one schedule (VM leases + probe decisions) optionally followed
//! by its replay (boots, task intervals, transfers, billing). The
//! reducer detects a new segment when an event *restarts* the dense id
//! spaces: a second lease of the same VM id, a second placement of the
//! same task, a second boot, a second task start. Traces recorded at
//! higher thread counts interleave events from concurrent cells and do
//! not segment cleanly — record reconciliation traces at `--threads 1`
//! (what `tools/seed_matrix.sh` does).
//!
//! # Exactness
//!
//! The plan-path quantities are recomputed with the *same* float
//! operations, in the same order, as `cws-core`:
//!
//! * per-VM busy time accumulates probe-decision durations in event
//!   (= placement) order, exactly like `BtuMeter::busy`;
//! * plan makespan is an `f64::max` fold over probe-decision finishes
//!   (`max` is exact and commutative, so event order vs task order is
//!   immaterial);
//! * plan cost sums `billed(btus) × price` in VM-id order, exactly
//!   like `Schedule::rental_cost` (prices recover bit-exactly from the
//!   JSON, see [`crate::json`]).
//!
//! BTU arithmetic is mirrored by [`btus_for_span`] because this crate
//! sits *below* `cws-platform`; a cross-crate regression test in
//! `cws-experiments` pins the two implementations equal.

use crate::event::TraceEvent;
use crate::json::{json_f64, json_str};
use crate::metrics::MetricsSnapshot;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Billing-time-unit length in seconds (the paper's 1 h): the
/// reducer-side mirror of `cws_platform::billing::BTU_SECONDS`. The BTU
/// arithmetic is kept here (not imported) because `cws-obs` depends on
/// nothing in the workspace; the `btu_policy_matches_platform_billing`
/// test in `cws-experiments` proves the mirror exact.
pub const BTU_SECONDS: f64 = 3600.0;

/// Spans within this epsilon of a BTU multiple round down: the mirror of
/// `cws_platform::billing::BTU_EPSILON`.
pub const BTU_EPSILON: f64 = 1e-6;

/// Billed BTUs for a busy span (minimum 1 — renting at all pays one
/// unit). Mirrors `cws_platform::billing::btus_for_span`, and saturates
/// at `u64::MAX` as it does. A trace is outside input, so a negative or
/// NaN span bills 1 BTU instead of panicking (NaN fails the comparison,
/// and `as u64` turns it into 0).
#[must_use]
pub fn btus_for_span(span: f64) -> u64 {
    if span <= BTU_EPSILON {
        return 1;
    }
    (((span - BTU_EPSILON) / BTU_SECONDS).floor() as u64).saturating_add(1)
}

/// Per-VM summary of one segment.
#[derive(Debug, Clone, PartialEq)]
pub struct VmSummary {
    /// Dense VM id within the segment.
    pub vm: u32,
    /// Instance type from the lease.
    pub itype: String,
    /// Region from the lease.
    pub region: String,
    /// Per-BTU price from the lease (USD).
    pub price_per_btu: f64,
    /// Rental start (schedule clock).
    pub lease_t: f64,
    /// Boot-ready time from the replay, when replayed.
    pub boot_t: Option<f64>,
    /// Planned busy seconds (probe-decision durations, placement
    /// order — bit-exact vs `BtuMeter::busy`).
    pub plan_busy_s: f64,
    /// Planned task count.
    pub plan_tasks: u64,
    /// Observed busy seconds from replayed task intervals.
    pub obs_busy_s: f64,
    /// Observed task count.
    pub obs_tasks: u64,
    /// BTU-boundary crossings observed.
    pub boundaries: u64,
    /// Reclaim record from the replay: `(time, billed_btus, busy_s,
    /// cost_usd)`.
    pub reclaim: Option<(f64, u64, f64, f64)>,
}

impl VmSummary {
    /// Idle seconds paid for: `billed × BTU − busy` (0 until
    /// reclaimed).
    #[must_use]
    pub fn idle_s(&self) -> f64 {
        match self.reclaim {
            Some((_, billed, busy, _)) => billed as f64 * BTU_SECONDS - busy,
            None => 0.0,
        }
    }
}

/// Aggregates of one segment (one schedule's plan, optionally plus its
/// replay).
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentSummary {
    /// 0-based position in the trace.
    pub index: usize,
    /// Per-VM summaries in VM-id order.
    pub vms: Vec<VmSummary>,
    /// Whether the segment contains replay events (task starts).
    pub replayed: bool,
    /// Max probe-decision finish — equals `Schedule::makespan()`
    /// bit-for-bit.
    pub plan_makespan_s: f64,
    /// Max replayed task-finish time (0 when not replayed).
    pub obs_makespan_s: f64,
    /// Rental cost recomputed from planned busy times — equals
    /// `Schedule::rental_cost()` bit-for-bit (single-region runs have
    /// no transfer cost on top).
    pub plan_cost_usd: f64,
    /// Sum of reclaim costs from the replay.
    pub obs_cost_usd: f64,
    /// Billed BTUs from the replay's reclaims.
    pub billed_btus: u64,
    /// Paid-but-idle seconds from the replay's reclaims.
    pub idle_s: f64,
    /// Distinct regions leased in (1 ⇒ plan cost is the whole cost).
    pub region_count: usize,
    /// Planned task placements.
    pub tasks: u64,
    /// Cross-VM transfers completed.
    pub transfers: u64,
    /// Megabytes shipped across VMs.
    pub transfer_mb: f64,
    /// Transfers carrying 0 MB (pure latency edges).
    pub zero_byte_transfers: u64,
    /// Events folded into this segment.
    pub events: u64,
    /// Internal-consistency violations found while folding (empty on a
    /// healthy trace).
    pub violations: Vec<String>,
}

impl SegmentSummary {
    /// Idle fraction of the replay (`idle / billed·BTU`; 0 when not
    /// replayed).
    #[must_use]
    pub fn idle_fraction(&self) -> f64 {
        let billed = self.billed_btus as f64 * BTU_SECONDS;
        if billed > 0.0 {
            self.idle_s / billed
        } else {
            0.0
        }
    }
}

/// Run-level fold of the service pool's `pool-lease`/`pool-reclaim`
/// stream. Pool ids are global (dense over the run, never reused), so
/// this summary lives *outside* the segment machinery: a service trace
/// interleaves many small schedule segments with pool events, and the
/// pool fold must survive every segment seal.
///
/// `cost_usd` accumulates reclaim costs **in pool-id order** (a
/// contiguous-prefix drain, exactly like the service layer's own
/// report fold), so it reconciles bit-exactly with the
/// `service.fleet_cost_usd` gauge a `cws-exp serve --metrics` run
/// publishes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolSummary {
    /// Pool rentals observed.
    pub leases: u64,
    /// Pool terminations observed.
    pub reclaims: u64,
    /// Machines still live when the trace ended.
    pub live: u64,
    /// BTUs billed across all reclaims.
    pub billed_btus: u64,
    /// Total rental cost (reclaim costs summed in pool-id order).
    pub cost_usd: f64,
    /// Total busy seconds across all reclaims.
    pub busy_s: f64,
    /// Pool-stream violations (bad ids, price/cost mismatches).
    pub violations: Vec<String>,
}

/// The reduced trace: every segment plus run-level totals.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Segment summaries in stream order.
    pub segments: Vec<SegmentSummary>,
    /// Run-level fold of the service pool stream (all zeros for
    /// one-shot schedule traces, which carry no pool events).
    pub pool: PoolSummary,
    /// Total events reduced.
    pub events: u64,
    /// Lines that failed to parse (offset, message) — capped at 16.
    pub parse_errors: Vec<(u64, String)>,
}

impl TraceReport {
    /// All violations across segments, prefixed with their segment
    /// index.
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        self.segments
            .iter()
            .flat_map(|s| {
                s.violations
                    .iter()
                    .map(move |v| format!("segment {}: {v}", s.index))
            })
            .chain(self.pool.violations.iter().map(|v| format!("pool: {v}")))
            .collect()
    }

    /// The last segment (the one the run's final `ScheduleMetrics`
    /// gauges describe at `--threads 1`).
    #[must_use]
    pub fn last_segment(&self) -> Option<&SegmentSummary> {
        self.segments.last()
    }

    /// Render as human-readable text: run totals, a per-VM table of
    /// the last segment and any violations.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let replayed = self.segments.iter().filter(|s| s.replayed).count();
        let _ = writeln!(
            out,
            "trace report: {} events, {} segments ({} replayed), {} parse errors",
            self.events,
            self.segments.len(),
            replayed,
            self.parse_errors.len()
        );
        let total_cost: f64 = self.segments.iter().map(|s| s.obs_cost_usd).sum();
        let total_btus = self
            .segments
            .iter()
            .fold(0u64, |n, s| n.saturating_add(s.billed_btus));
        let total_idle: f64 = self.segments.iter().map(|s| s.idle_s).sum();
        let total_mb: f64 = self.segments.iter().map(|s| s.transfer_mb).sum();
        let _ = writeln!(
            out,
            "replay totals: {total_btus} BTUs billed, ${total_cost:.3} rental, \
             {total_idle:.0} s idle, {total_mb:.1} MB shipped"
        );
        if self.pool.leases > 0 {
            let p = &self.pool;
            let _ = writeln!(
                out,
                "service pool: {} leases, {} reclaims ({} live at end), \
                 {} BTUs billed, ${:.4} rental, {:.0} s busy",
                p.leases, p.reclaims, p.live, p.billed_btus, p.cost_usd, p.busy_s
            );
        }
        if let Some(last) = self.last_segment() {
            let _ = writeln!(
                out,
                "last segment (#{}): {} VMs, {} tasks, plan makespan {:.1} s, \
                 plan cost ${:.4}{}",
                last.index,
                last.vms.len(),
                last.tasks,
                last.plan_makespan_s,
                last.plan_cost_usd,
                if last.replayed {
                    format!(
                        ", replay makespan {:.1} s, idle {:.1}%",
                        last.obs_makespan_s,
                        100.0 * last.idle_fraction()
                    )
                } else {
                    " (plan only)".to_string()
                }
            );
            let _ = writeln!(
                out,
                "  {:>4} {:>8} {:>18} {:>9} {:>10} {:>5} {:>9} {:>6}",
                "vm", "itype", "region", "lease_t", "busy_s", "btus", "cost_usd", "idle%"
            );
            for v in &last.vms {
                let (btus, busy, cost) = match v.reclaim {
                    Some((_, b, busy, c)) => (b.to_string(), busy, format!("{c:.4}")),
                    None => ("-".to_string(), v.plan_busy_s, "-".to_string()),
                };
                let idle_pct = match v.reclaim {
                    Some((_, b, busy, _)) if b > 0 => {
                        100.0 * (1.0 - busy / (b as f64 * BTU_SECONDS))
                    }
                    _ => 0.0,
                };
                let _ = writeln!(
                    out,
                    "  {:>4} {:>8} {:>18} {:>9.1} {:>10.1} {:>5} {:>9} {:>6.1}",
                    v.vm, v.itype, v.region, v.lease_t, busy, btus, cost, idle_pct
                );
            }
            if last.transfers > 0 || last.zero_byte_transfers > 0 {
                let _ = writeln!(
                    out,
                    "  transfers: {} ({} zero-byte), {:.1} MB",
                    last.transfers, last.zero_byte_transfers, last.transfer_mb
                );
            }
        }
        let violations = self.violations();
        if violations.is_empty() {
            let _ = writeln!(out, "violations: none");
        } else {
            let _ = writeln!(out, "violations ({}):", violations.len());
            for v in &violations {
                let _ = writeln!(out, "  {v}");
            }
        }
        out
    }

    /// Render as one JSON object with run totals and every segment.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"events\":{},\"segments\":{},\"parse_errors\":{},\"violations\":{},",
            self.events,
            self.segments.len(),
            self.parse_errors.len(),
            self.violations().len()
        );
        let _ = write!(
            out,
            "\"pool\":{{\"leases\":{},\"reclaims\":{},\"live\":{},\"billed_btus\":{},\
             \"cost_usd\":{},\"busy_s\":{}}},",
            self.pool.leases,
            self.pool.reclaims,
            self.pool.live,
            self.pool.billed_btus,
            json_f64(self.pool.cost_usd),
            json_f64(self.pool.busy_s),
        );
        out.push_str("\"segment_list\":[");
        for (i, s) in self.segments.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"index\":{},\"replayed\":{},\"vms\":{},\"tasks\":{},\
                 \"plan_makespan_s\":{},\"obs_makespan_s\":{},\
                 \"plan_cost_usd\":{},\"obs_cost_usd\":{},\"billed_btus\":{},\
                 \"idle_s\":{},\"idle_fraction\":{},\"region_count\":{},\
                 \"transfers\":{},\"transfer_mb\":{},\"zero_byte_transfers\":{},\
                 \"violations\":[",
                s.index,
                s.replayed,
                s.vms.len(),
                s.tasks,
                json_f64(s.plan_makespan_s),
                json_f64(s.obs_makespan_s),
                json_f64(s.plan_cost_usd),
                json_f64(s.obs_cost_usd),
                s.billed_btus,
                json_f64(s.idle_s),
                json_f64(s.idle_fraction()),
                s.region_count,
                s.transfers,
                json_f64(s.transfer_mb),
                s.zero_byte_transfers,
            );
            for (j, v) in s.violations.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json_str(v));
            }
            out.push_str("],\"vm_list\":[");
            for (j, v) in s.vms.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"vm\":{},\"itype\":{},\"region\":{},\"price_per_btu\":{},\
                     \"lease_t\":{},\"plan_busy_s\":{},\"plan_tasks\":{},\
                     \"obs_busy_s\":{},\"obs_tasks\":{},\"boundaries\":{},\
                     \"billed_btus\":{},\"cost_usd\":{},\"idle_s\":{}}}",
                    v.vm,
                    json_str(&v.itype),
                    json_str(&v.region),
                    json_f64(v.price_per_btu),
                    json_f64(v.lease_t),
                    json_f64(v.plan_busy_s),
                    v.plan_tasks,
                    json_f64(v.obs_busy_s),
                    v.obs_tasks,
                    v.boundaries,
                    v.reclaim.map_or(0, |(_, b, _, _)| b),
                    json_f64(v.reclaim.map_or(f64::NAN, |(_, _, _, c)| c)),
                    json_f64(v.idle_s()),
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// Per-VM accumulator while a segment is open.
#[derive(Debug, Clone)]
struct VmAcc {
    summary: VmSummary,
    running: Option<(u32, f64)>,
    max_boundary: u64,
}

/// The single-pass reducer. Feed events (or JSONL lines) in stream
/// order, then [`TraceReducer::finish`].
#[derive(Debug, Default)]
pub struct TraceReducer {
    segments: Vec<SegmentSummary>,
    events: u64,
    parse_errors: Vec<(u64, String)>,
    lines: u64,
    // ---- run-level service-pool state (outside segments) ----
    pool: PoolSummary,
    /// Live pool machines by global id → per-BTU price from the lease.
    pool_live: BTreeMap<u32, f64>,
    /// Next expected (dense) pool lease id; `u64` so the id after
    /// `u32::MAX` still has a value.
    pool_next_lease: u64,
    /// Reclaimed machines awaiting the in-id-order fold:
    /// id → (billed BTUs, busy seconds, cost USD).
    pool_done: BTreeMap<u64, (u64, f64, f64)>,
    /// Next pool id to fold into the running totals.
    pool_next_fold: u64,
    // ---- current segment state ----
    // Keyed by id, not indexed by it: memory follows the events read,
    // never the largest id one of them names.
    vms: BTreeMap<u32, VmAcc>,
    placed: BTreeSet<u32>,
    started: BTreeSet<u32>,
    seg_events: u64,
    seg_replayed: bool,
    plan_makespan: f64,
    obs_makespan: f64,
    tasks: u64,
    transfers: u64,
    transfer_mb: f64,
    zero_byte: u64,
    pending_transfers: BTreeMap<(u32, u32), u64>,
    violations: Vec<String>,
    dropped_violations: u64,
}

const MAX_VIOLATIONS: usize = 32;

impl TraceReducer {
    /// An empty reducer.
    #[must_use]
    pub fn new() -> Self {
        TraceReducer::default()
    }

    /// Record a violation (capped; the cap keeps a hostile trace from
    /// growing memory without bound).
    fn violate(&mut self, msg: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(msg);
        } else {
            self.dropped_violations += 1;
        }
    }

    fn vm_mut(&mut self, vm: u32, context: &str) -> Option<&mut VmAcc> {
        if self.vms.contains_key(&vm) {
            self.vms.get_mut(&vm)
        } else {
            self.violate(format!("{context} for unleased vm{vm}"));
            None
        }
    }

    /// Does feeding `e` start a new segment?
    fn starts_new_segment(&self, e: &TraceEvent) -> bool {
        match e {
            TraceEvent::VmLease { vm, .. } => self.vms.contains_key(vm),
            TraceEvent::ProbeDecision { task, .. } => self.placed.contains(task),
            TraceEvent::VmBoot { vm, .. } => {
                self.vms.get(vm).is_some_and(|a| a.summary.boot_t.is_some())
            }
            TraceEvent::TaskStart { task, .. } => self.started.contains(task),
            _ => false,
        }
    }

    /// Record a pool-stream violation (same cap as segment violations,
    /// shared budget is fine — a healthy trace has none of either).
    fn pool_violate(&mut self, msg: String) {
        if self.pool.violations.len() < MAX_VIOLATIONS {
            self.pool.violations.push(msg);
        }
    }

    /// Fold the contiguous prefix of reclaimed machines into the
    /// running pool totals, **in pool-id order** — the same fold order
    /// as the service layer's `ReportAccumulator`, so `cost_usd` is a
    /// bit-exact replay of its additions.
    fn pool_drain(&mut self) {
        while let Some((btus, busy, cost)) = self.pool_done.remove(&self.pool_next_fold) {
            self.pool.billed_btus = self.pool.billed_btus.saturating_add(btus);
            self.pool.busy_s += busy;
            self.pool.cost_usd += cost;
            self.pool_next_fold += 1;
        }
    }

    /// Fold one event.
    pub fn feed(&mut self, e: &TraceEvent) {
        // Pool events live outside the segment machinery: global ids,
        // run-level fold, no influence on segmentation.
        match e {
            TraceEvent::PoolLease {
                vm, price_per_btu, ..
            } => {
                self.events += 1;
                let id = u64::from(*vm);
                if id != self.pool_next_lease {
                    self.pool_violate(format!(
                        "pool lease vm{vm} is not the next dense id {}",
                        self.pool_next_lease
                    ));
                }
                self.pool_next_lease = id + 1;
                self.pool.leases += 1;
                self.pool_live.insert(*vm, *price_per_btu);
                return;
            }
            TraceEvent::PoolReclaim {
                vm,
                billed_btus,
                busy_s,
                cost_usd,
                ..
            } => {
                self.events += 1;
                match self.pool_live.remove(vm) {
                    None => self.pool_violate(format!(
                        "pool-reclaim for unknown or already reclaimed vm{vm}"
                    )),
                    Some(price) => {
                        // Same multiplication the emitter performed —
                        // must recover bit-exactly.
                        let expect = *billed_btus as f64 * price;
                        if *cost_usd != expect {
                            self.pool_violate(format!(
                                "pool vm{vm}: reclaim cost {cost_usd} != billed \
                                 {billed_btus} × price {price}"
                            ));
                        }
                        self.pool.reclaims += 1;
                        self.pool_done
                            .insert(u64::from(*vm), (*billed_btus, *busy_s, *cost_usd));
                        self.pool_drain();
                    }
                }
                return;
            }
            _ => {}
        }
        if self.starts_new_segment(e) {
            self.seal_segment();
        }
        self.events += 1;
        self.seg_events += 1;
        match e {
            TraceEvent::VmLease {
                vm,
                itype,
                region,
                price_per_btu,
                time,
            } => {
                let acc = VmAcc {
                    summary: VmSummary {
                        vm: *vm,
                        itype: itype.clone(),
                        region: region.clone(),
                        price_per_btu: *price_per_btu,
                        lease_t: *time,
                        boot_t: None,
                        plan_busy_s: 0.0,
                        plan_tasks: 0,
                        obs_busy_s: 0.0,
                        obs_tasks: 0,
                        boundaries: 0,
                        reclaim: None,
                    },
                    running: None,
                    max_boundary: 0,
                };
                self.vms.insert(*vm, acc);
            }
            TraceEvent::ProbeDecision {
                task,
                vm,
                start,
                finish,
                ..
            } => {
                self.placed.insert(*task);
                self.tasks += 1;
                self.plan_makespan = self.plan_makespan.max(*finish);
                let (start, finish) = (*start, *finish);
                if let Some(a) = self.vm_mut(*vm, "probe-decision") {
                    // Same accumulation order as BtuMeter::busy.
                    a.summary.plan_busy_s += finish - start;
                    a.summary.plan_tasks += 1;
                }
            }
            TraceEvent::VmBoot { vm, time } => {
                self.seg_replayed = true;
                let time = *time;
                if let Some(a) = self.vm_mut(*vm, "vm-boot") {
                    a.summary.boot_t = Some(time);
                }
            }
            TraceEvent::TaskStart { task, vm, time } => {
                self.seg_replayed = true;
                self.started.insert(*task);
                let (task, time) = (*task, *time);
                if let Some(a) = self.vm_mut(*vm, "task-start") {
                    if let Some((other, _)) = a.running {
                        let vm_id = a.summary.vm;
                        self.violate(format!(
                            "task t{task} starts on vm{vm_id} while t{other} is still running"
                        ));
                    } else {
                        a.running = Some((task, time));
                    }
                }
            }
            TraceEvent::TaskFinish { task, vm, time } => {
                let (task, time) = (*task, *time);
                let mut err = None;
                if let Some(a) = self.vm_mut(*vm, "task-finish") {
                    match a.running.take() {
                        Some((t, start)) if t == task => {
                            a.summary.obs_busy_s += time - start;
                            a.summary.obs_tasks += 1;
                        }
                        other => {
                            a.running = other;
                            err = Some(format!("task t{task} finished without a matching start"));
                        }
                    }
                }
                if let Some(m) = err {
                    self.violate(m);
                }
                self.obs_makespan = self.obs_makespan.max(time);
            }
            TraceEvent::TransferStart {
                from, to, data_mb, ..
            } => {
                if *data_mb == 0.0 {
                    self.zero_byte += 1;
                }
                self.transfer_mb += data_mb;
                *self.pending_transfers.entry((*from, *to)).or_insert(0) += 1;
            }
            TraceEvent::TransferFinish { from, to, .. } => {
                let slot = self.pending_transfers.entry((*from, *to)).or_insert(0);
                if *slot == 0 {
                    let (from, to) = (*from, *to);
                    self.violate(format!(
                        "transfer t{from}→t{to} finished without a matching start"
                    ));
                } else {
                    *slot -= 1;
                    self.transfers += 1;
                }
            }
            TraceEvent::BtuBoundary { vm, btu, .. } => {
                let btu = *btu;
                let mut err = None;
                if let Some(a) = self.vm_mut(*vm, "btu-boundary") {
                    a.summary.boundaries += 1;
                    if btu <= a.max_boundary {
                        let vm_id = a.summary.vm;
                        err = Some(format!(
                            "vm{vm_id}: btu-boundary ordinal {btu} does not advance past {}",
                            a.max_boundary
                        ));
                    }
                    a.max_boundary = btu;
                }
                if let Some(m) = err {
                    self.violate(m);
                }
            }
            TraceEvent::VmReclaim {
                vm,
                time,
                billed_btus,
                busy_s,
                cost_usd,
            } => {
                let (time, billed, busy, cost) = (*time, *billed_btus, *busy_s, *cost_usd);
                let mut errs: Vec<String> = Vec::new();
                if let Some(a) = self.vm_mut(*vm, "vm-reclaim") {
                    let vm_id = a.summary.vm;
                    if a.summary.reclaim.is_some() {
                        errs.push(format!("vm{vm_id} reclaimed twice"));
                    }
                    // Same multiplication the emitter performed — the
                    // product must recover bit-exactly.
                    let expect = billed as f64 * a.summary.price_per_btu;
                    if cost != expect {
                        errs.push(format!(
                            "vm{vm_id}: reclaim cost {cost} != billed {billed} × price {}",
                            a.summary.price_per_btu
                        ));
                    }
                    if a.summary.boundaries != billed.saturating_sub(1) {
                        errs.push(format!(
                            "vm{vm_id}: {} btu-boundary crossings for {billed} billed BTUs \
                             (expected billed − 1)",
                            a.summary.boundaries
                        ));
                    }
                    if let Some((t, _)) = a.running {
                        errs.push(format!("vm{vm_id} reclaimed while t{t} is still running"));
                    }
                    a.summary.reclaim = Some((time, billed, busy, cost));
                }
                for m in errs {
                    self.violate(m);
                }
            }
            TraceEvent::PoolLease { .. } | TraceEvent::PoolReclaim { .. } => {
                unreachable!("pool events are folded before segmentation")
            }
        }
    }

    /// Parse one JSONL line and fold it. Blank lines are skipped;
    /// malformed lines are recorded (capped at 16) and otherwise
    /// ignored, so one bad line does not abort a multi-gigabyte
    /// reduction.
    pub fn feed_line(&mut self, line: &str) {
        self.lines += 1;
        let line = line.trim();
        if line.is_empty() {
            return;
        }
        match TraceEvent::from_json(line) {
            Ok(e) => self.feed(&e),
            Err(msg) => {
                if self.parse_errors.len() < 16 {
                    let at = self.lines;
                    self.parse_errors.push((at, msg));
                }
            }
        }
    }

    /// Close the current segment and push its summary.
    fn seal_segment(&mut self) {
        if self.seg_events == 0 {
            return;
        }
        let index = self.segments.len();
        let mut vms: Vec<VmSummary> = Vec::new();
        let mut plan_cost = 0.0f64;
        let mut obs_cost = 0.0f64;
        let mut billed_total = 0u64;
        let mut idle = 0.0f64;
        let mut regions: Vec<&str> = Vec::new();
        let mut violations = std::mem::take(&mut self.violations);
        let replayed = self.seg_replayed;
        for acc in self.vms.values() {
            let s = &acc.summary;
            if let Some((t, _)) = acc.running {
                violations.push(format!("vm{}: task t{t} never finished", s.vm));
            }
            // Same term and summation order as Schedule::rental_cost
            // (vms are visited in id order).
            plan_cost += btus_for_span(s.plan_busy_s) as f64 * s.price_per_btu;
            if let Some((_, billed, busy, cost)) = s.reclaim {
                obs_cost += cost;
                billed_total = billed_total.saturating_add(billed);
                idle += billed as f64 * BTU_SECONDS - busy;
            } else if replayed && s.obs_tasks > 0 {
                violations.push(format!("vm{} replayed but never reclaimed", s.vm));
            }
            if replayed
                && s.plan_tasks == s.obs_tasks
                && (s.plan_busy_s - s.obs_busy_s).abs() > 1e-6 * (1.0 + s.plan_tasks as f64)
            {
                violations.push(format!(
                    "vm{}: planned busy {} s diverges from replayed busy {} s",
                    s.vm, s.plan_busy_s, s.obs_busy_s
                ));
            }
            if !regions.contains(&s.region.as_str()) {
                regions.push(&s.region);
            }
            vms.push(s.clone());
        }
        let region_count = regions.len();
        for (&(from, to), &n) in &self.pending_transfers {
            if n > 0 {
                violations.push(format!("{n} transfer start(s) t{from}→t{to} never arrived"));
            }
        }
        if self.dropped_violations > 0 {
            violations.push(format!(
                "... and {} more violations (capped)",
                self.dropped_violations
            ));
        }
        self.segments.push(SegmentSummary {
            index,
            vms,
            replayed,
            plan_makespan_s: self.plan_makespan,
            obs_makespan_s: self.obs_makespan,
            plan_cost_usd: plan_cost,
            obs_cost_usd: obs_cost,
            billed_btus: billed_total,
            idle_s: idle,
            region_count,
            tasks: self.tasks,
            transfers: self.transfers,
            transfer_mb: self.transfer_mb,
            zero_byte_transfers: self.zero_byte,
            events: self.seg_events,
            violations,
        });
        // Reset per-segment state.
        self.vms.clear();
        self.placed.clear();
        self.started.clear();
        self.seg_events = 0;
        self.seg_replayed = false;
        self.plan_makespan = 0.0;
        self.obs_makespan = 0.0;
        self.tasks = 0;
        self.transfers = 0;
        self.transfer_mb = 0.0;
        self.zero_byte = 0;
        self.pending_transfers.clear();
        self.dropped_violations = 0;
    }

    /// Seal the open segment and return the report.
    #[must_use]
    pub fn finish(mut self) -> TraceReport {
        self.seal_segment();
        // Stragglers: reclaims stuck behind a never-reclaimed id fold
        // in id order (a gap already shows up as `live > 0`).
        let stragglers = std::mem::take(&mut self.pool_done);
        for (_, (btus, busy, cost)) in stragglers {
            self.pool.billed_btus = self.pool.billed_btus.saturating_add(btus);
            self.pool.busy_s += busy;
            self.pool.cost_usd += cost;
        }
        self.pool.live = self.pool_live.len() as u64;
        TraceReport {
            segments: self.segments,
            pool: self.pool,
            events: self.events,
            parse_errors: self.parse_errors,
        }
    }
}

/// Render percentile summaries of published histograms (the
/// trace-report text footer).
#[must_use]
pub fn histogram_summaries(m: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, h) in &m.histograms {
        let _ = writeln!(
            out,
            "  {name}: count {} mean {:.0} p50 ≤{} p90 ≤{} p99 ≤{}",
            h.count,
            h.mean(),
            h.quantile(0.50),
            h.quantile(0.90),
            h.quantile(0.99)
        );
    }
    out
}

/// The reconciliation gate behind `cws-exp trace-report --check`:
/// compare the reduced trace against the run manifest's final gauges.
/// Returns the list of failures (empty ⇒ the trace and the metrics
/// agree).
///
/// The plan-path comparisons are **exact** (`==` on `f64`): the
/// reducer recomputes `run.makespan_s` and `run.cost_usd` with the
/// same operations in the same order as the kernel, and JSON floats
/// round-trip bit-exactly. Requires a `--threads 1` trace (higher
/// thread counts interleave segments).
///
/// Traces that carry `pool-lease`/`pool-reclaim` events are *service*
/// streams: the gate instead reconciles the run-level [`PoolSummary`]
/// against the `service.fleet_cost_usd` / `service.fleet_vms` /
/// `service.fleet_btus` gauges published by `cws-exp serve --metrics`
/// — also exactly, because the pool fold replays the service report's
/// additions in the same (pool-id) order. Pool ids are global, so this
/// branch is thread-count independent.
#[must_use]
pub fn check(report: &TraceReport, manifest: &MetricsSnapshot) -> Vec<String> {
    let mut failures = Vec::new();
    for (at, msg) in &report.parse_errors {
        failures.push(format!("line {at}: {msg}"));
    }
    failures.extend(report.violations());
    // A trace carrying pool events is a *service* stream: many small
    // schedule segments (one per admitted workflow) interleaved with
    // the pool's global lease/reclaim stream. The run-level quantities
    // to reconcile are the fleet totals, not any single segment's
    // schedule gauges.
    if report.pool.leases > 0 {
        let p = &report.pool;
        if p.live > 0 {
            failures.push(format!(
                "{} pool machines leased but never reclaimed \
                 (incomplete service trace?)",
                p.live
            ));
        }
        for (name, recomputed) in [
            ("service.fleet_cost_usd", p.cost_usd),
            ("service.fleet_vms", p.reclaims as f64),
            ("service.fleet_btus", p.billed_btus as f64),
        ] {
            match manifest.gauge(name) {
                Some(gauge) if gauge != recomputed => {
                    failures.push(format!("{name} {gauge} != trace-recomputed {recomputed}"));
                }
                Some(_) => {}
                None => failures.push(format!("manifest has no {name} gauge (was --metrics on?)")),
            }
        }
        return failures;
    }
    let Some(last) = report.last_segment() else {
        failures.push("trace contains no events".to_string());
        return failures;
    };
    if let Some(&makespan) = manifest.gauges.get("run.makespan_s") {
        if makespan != last.plan_makespan_s {
            failures.push(format!(
                "run.makespan_s {makespan} != trace-recomputed {}",
                last.plan_makespan_s
            ));
        }
    } else {
        failures.push("manifest has no run.makespan_s gauge (was --metrics on?)".to_string());
    }
    if let Some(&cost) = manifest.gauges.get("run.cost_usd") {
        if last.region_count <= 1 {
            if cost != last.plan_cost_usd {
                failures.push(format!(
                    "run.cost_usd {cost} != trace-recomputed {}",
                    last.plan_cost_usd
                ));
            }
        } else if cost + 1e-9 < last.plan_cost_usd {
            // Cross-region runs add transfer cost the trace does not
            // carry; the rental part is still a lower bound.
            failures.push(format!(
                "run.cost_usd {cost} below trace-recomputed rental {}",
                last.plan_cost_usd
            ));
        }
    } else {
        failures.push("manifest has no run.cost_usd gauge (was --metrics on?)".to_string());
    }
    if last.replayed {
        if (last.obs_makespan_s - last.plan_makespan_s).abs() > 1e-6 {
            failures.push(format!(
                "replay makespan {} diverges from plan {}",
                last.obs_makespan_s, last.plan_makespan_s
            ));
        }
        if last.region_count <= 1 && (last.obs_cost_usd - last.plan_cost_usd).abs() > 1e-6 {
            failures.push(format!(
                "replay cost {} diverges from plan {}",
                last.obs_cost_usd, last.plan_cost_usd
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PlacementKind;

    fn lease(vm: u32, t: f64) -> TraceEvent {
        TraceEvent::VmLease {
            vm,
            itype: "small".into(),
            region: "us-east-virginia".into(),
            price_per_btu: 0.095,
            time: t,
        }
    }

    fn probe(task: u32, vm: u32, start: f64, finish: f64) -> TraceEvent {
        TraceEvent::ProbeDecision {
            task,
            vm,
            start,
            finish,
            kind: PlacementKind::Append,
        }
    }

    /// One VM, two tasks, replayed and reclaimed: every quantity of the
    /// summary is checkable by hand.
    fn simple_segment() -> Vec<TraceEvent> {
        vec![
            lease(0, 0.0),
            probe(0, 0, 0.0, 100.0),
            probe(1, 0, 100.0, 300.0),
            TraceEvent::VmBoot { vm: 0, time: 0.0 },
            TraceEvent::TaskStart {
                task: 0,
                vm: 0,
                time: 0.0,
            },
            TraceEvent::TaskFinish {
                task: 0,
                vm: 0,
                time: 100.0,
            },
            TraceEvent::TaskStart {
                task: 1,
                vm: 0,
                time: 100.0,
            },
            TraceEvent::TaskFinish {
                task: 1,
                vm: 0,
                time: 300.0,
            },
            TraceEvent::VmReclaim {
                vm: 0,
                time: 300.0,
                billed_btus: 1,
                busy_s: 300.0,
                cost_usd: 0.095,
            },
        ]
    }

    #[test]
    fn reduces_a_hand_checked_segment() {
        let mut r = TraceReducer::new();
        for e in simple_segment() {
            r.feed(&e);
        }
        let report = r.finish();
        assert_eq!(report.segments.len(), 1);
        let s = &report.segments[0];
        assert!(s.violations.is_empty(), "{:?}", s.violations);
        assert!(s.replayed);
        assert_eq!(s.tasks, 2);
        assert_eq!(s.plan_makespan_s, 300.0);
        assert_eq!(s.obs_makespan_s, 300.0);
        assert_eq!(s.billed_btus, 1);
        assert_eq!(s.plan_cost_usd, 0.095);
        assert_eq!(s.obs_cost_usd, 0.095);
        assert_eq!(s.idle_s, 3600.0 - 300.0);
        let vm = &s.vms[0];
        assert_eq!(vm.plan_busy_s, 300.0);
        assert_eq!(vm.obs_busy_s, 300.0);
        assert_eq!(vm.plan_tasks, 2);
        assert_eq!(vm.obs_tasks, 2);
    }

    #[test]
    fn a_second_lease_of_vm0_starts_a_new_segment() {
        let mut r = TraceReducer::new();
        for e in simple_segment() {
            r.feed(&e);
        }
        // Plan-only repeat (e.g. a prepare() baseline).
        r.feed(&lease(0, 0.0));
        r.feed(&probe(0, 0, 0.0, 50.0));
        let report = r.finish();
        assert_eq!(report.segments.len(), 2);
        assert!(report.segments[0].replayed);
        assert!(!report.segments[1].replayed);
        assert_eq!(report.segments[1].plan_makespan_s, 50.0);
        assert!(report.violations().is_empty(), "{:?}", report.violations());
    }

    #[test]
    fn billing_mismatches_are_flagged() {
        let mut r = TraceReducer::new();
        r.feed(&lease(0, 0.0));
        r.feed(&probe(0, 0, 0.0, 100.0));
        // Cost inconsistent with billed × price, and a boundary count
        // that cannot match billed − 1.
        r.feed(&TraceEvent::BtuBoundary {
            vm: 0,
            btu: 1,
            time: 50.0,
        });
        r.feed(&TraceEvent::VmReclaim {
            vm: 0,
            time: 100.0,
            billed_btus: 1,
            busy_s: 100.0,
            cost_usd: 0.42,
        });
        let report = r.finish();
        let v = report.violations();
        assert!(v.iter().any(|m| m.contains("!= billed")), "{v:?}");
        assert!(
            v.iter().any(|m| m.contains("btu-boundary crossings")),
            "{v:?}"
        );
    }

    #[test]
    fn unmatched_events_are_flagged() {
        let mut r = TraceReducer::new();
        r.feed(&lease(0, 0.0));
        r.feed(&TraceEvent::TaskFinish {
            task: 7,
            vm: 0,
            time: 10.0,
        });
        r.feed(&TraceEvent::TransferStart {
            from: 1,
            to: 2,
            data_mb: 0.0,
            time: 5.0,
        });
        r.feed(&TraceEvent::VmBoot { vm: 9, time: 0.0 });
        let report = r.finish();
        let v = report.violations();
        assert!(
            v.iter().any(|m| m.contains("without a matching start")),
            "{v:?}"
        );
        assert!(v.iter().any(|m| m.contains("never arrived")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("unleased vm9")), "{v:?}");
        assert_eq!(report.segments[0].zero_byte_transfers, 1);
    }

    #[test]
    fn feed_line_parses_and_reports_errors() {
        let mut r = TraceReducer::new();
        for e in simple_segment() {
            r.feed_line(&e.to_json());
        }
        r.feed_line("");
        r.feed_line("garbage");
        let report = r.finish();
        assert_eq!(report.events, 9);
        assert_eq!(report.parse_errors.len(), 1);
        assert_eq!(report.parse_errors[0].0, 11, "1-based line offset");
    }

    #[test]
    fn check_passes_on_matching_manifest_and_fails_on_divergence() {
        let mut r = TraceReducer::new();
        for e in simple_segment() {
            r.feed(&e);
        }
        let report = r.finish();
        let mut m = MetricsSnapshot::default();
        m.gauges.insert("run.makespan_s".into(), 300.0);
        m.gauges.insert("run.cost_usd".into(), 0.095);
        assert!(check(&report, &m).is_empty());
        m.gauges.insert("run.cost_usd".into(), 0.096);
        let failures = check(&report, &m);
        assert!(
            failures.iter().any(|f| f.contains("run.cost_usd")),
            "{failures:?}"
        );
    }

    fn pool_lease(vm: u32, price: f64, t: f64) -> TraceEvent {
        TraceEvent::PoolLease {
            vm,
            itype: "small".into(),
            region: "us-east-virginia".into(),
            price_per_btu: price,
            time: t,
        }
    }

    fn pool_reclaim(vm: u32, btus: u64, price: f64, t: f64) -> TraceEvent {
        TraceEvent::PoolReclaim {
            vm,
            time: t,
            billed_btus: btus,
            busy_s: 100.0 * btus as f64,
            cost_usd: btus as f64 * price,
        }
    }

    /// Pool events ride alongside schedule segments without disturbing
    /// them, and fold into run-level fleet totals in id order.
    #[test]
    fn pool_stream_folds_outside_segments() {
        let mut r = TraceReducer::new();
        r.feed(&pool_lease(0, 0.095, 0.0));
        for e in simple_segment() {
            r.feed(&e);
        }
        r.feed(&pool_lease(1, 0.095, 10.0));
        // Out-of-id-order reclaims still fold deterministically.
        r.feed(&pool_reclaim(1, 2, 0.095, 7200.0));
        r.feed(&pool_reclaim(0, 1, 0.095, 3600.0));
        let report = r.finish();
        assert_eq!(report.segments.len(), 1, "pool events never segment");
        assert!(report.violations().is_empty(), "{:?}", report.violations());
        assert_eq!(report.pool.leases, 2);
        assert_eq!(report.pool.reclaims, 2);
        assert_eq!(report.pool.live, 0);
        assert_eq!(report.pool.billed_btus, 3);
        assert_eq!(report.pool.cost_usd, 1.0 * 0.095 + 2.0 * 0.095);
    }

    #[test]
    fn pool_stream_violations_are_flagged() {
        let mut r = TraceReducer::new();
        r.feed(&pool_lease(1, 0.095, 0.0)); // not dense: expected 0
        r.feed(&TraceEvent::PoolReclaim {
            vm: 1,
            time: 3600.0,
            billed_btus: 1,
            busy_s: 10.0,
            cost_usd: 0.42, // != 1 × 0.095
        });
        r.feed(&pool_reclaim(7, 1, 0.095, 3600.0)); // never leased
        let report = r.finish();
        let v = report.violations();
        assert!(
            v.iter().any(|m| m.contains("not the next dense id")),
            "{v:?}"
        );
        assert!(v.iter().any(|m| m.contains("!= billed")), "{v:?}");
        assert!(
            v.iter().any(|m| m.contains("unknown or already reclaimed")),
            "{v:?}"
        );
    }

    /// A service trace (pool events present) is reconciled against the
    /// `service.fleet_*` gauges instead of the schedule gauges.
    #[test]
    fn check_reconciles_service_traces_against_fleet_gauges() {
        let mut r = TraceReducer::new();
        for e in simple_segment() {
            r.feed(&e);
        }
        r.feed(&pool_lease(0, 0.095, 0.0));
        r.feed(&pool_reclaim(0, 3, 0.095, 10800.0));
        let report = r.finish();
        let mut m = MetricsSnapshot::default();
        m.gauges
            .insert("service.fleet_cost_usd".into(), 3.0 * 0.095);
        m.gauges.insert("service.fleet_vms".into(), 1.0);
        m.gauges.insert("service.fleet_btus".into(), 3.0);
        assert!(check(&report, &m).is_empty(), "{:?}", check(&report, &m));
        // The schedule gauges are not consulted on the service branch…
        m.gauges.insert("run.cost_usd".into(), 999.0);
        assert!(check(&report, &m).is_empty());
        // …but a fleet divergence or a missing gauge fails it.
        m.gauges.insert("service.fleet_btus".into(), 4.0);
        let failures = check(&report, &m);
        assert!(
            failures.iter().any(|f| f.contains("service.fleet_btus")),
            "{failures:?}"
        );
        let empty = MetricsSnapshot::default();
        let failures = check(&report, &empty);
        assert!(
            failures.iter().any(|f| f.contains("was --metrics on?")),
            "{failures:?}"
        );
    }

    #[test]
    fn unreclaimed_pool_machines_fail_the_service_check() {
        let mut r = TraceReducer::new();
        r.feed(&pool_lease(0, 0.095, 0.0));
        let report = r.finish();
        assert_eq!(report.pool.live, 1);
        let mut m = MetricsSnapshot::default();
        m.gauges.insert("service.fleet_cost_usd".into(), 0.0);
        m.gauges.insert("service.fleet_vms".into(), 0.0);
        m.gauges.insert("service.fleet_btus".into(), 0.0);
        let failures = check(&report, &m);
        assert!(
            failures.iter().any(|f| f.contains("never reclaimed")),
            "{failures:?}"
        );
    }

    #[test]
    fn histogram_summaries_render_percentiles() {
        let reg = crate::metrics::MetricsRegistry::new();
        let h = reg.histogram("kernel.probe_latency");
        h.record(900);
        h.record(1100);
        let text = histogram_summaries(&reg.snapshot());
        assert_eq!(
            text,
            "  kernel.probe_latency: count 2 mean 1000 p50 ≤1023 p90 ≤2047 p99 ≤2047\n"
        );
    }

    #[test]
    fn huge_ids_cost_one_entry_not_an_id_sized_table() {
        // Regression: the reducer sized its per-segment tables by the
        // largest id, so a lease of vm 4294967295 asked for 800 GB and
        // aborted.
        let mut r = TraceReducer::new();
        r.feed(&lease(u32::MAX, 0.0));
        r.feed(&probe(u32::MAX, u32::MAX, 0.0, 10.0));
        r.feed(&TraceEvent::TaskStart {
            task: u32::MAX,
            vm: u32::MAX,
            time: 0.0,
        });
        let report = r.finish();
        assert_eq!(report.segments.len(), 1);
        let s = &report.segments[0];
        assert_eq!(s.vms.len(), 1);
        assert_eq!(s.vms[0].vm, u32::MAX);
        assert_eq!(s.vms[0].plan_busy_s, 10.0);
    }

    #[test]
    fn a_pool_lease_at_the_top_id_does_not_overflow() {
        // Regression: `vm + 1` overflowed here (a panic in debug
        // builds, a wrap to 0 in release ones).
        let mut r = TraceReducer::new();
        r.feed(&pool_lease(u32::MAX, 0.095, 0.0));
        r.feed(&pool_lease(0, 0.095, 1.0));
        let report = r.finish();
        assert_eq!(report.pool.leases, 2);
        assert_eq!(
            report.pool.violations,
            [
                "pool lease vm4294967295 is not the next dense id 0",
                "pool lease vm0 is not the next dense id 4294967296",
            ]
        );
    }

    #[test]
    fn billed_btu_totals_saturate_instead_of_overflowing() {
        let mut r = TraceReducer::new();
        for vm in 0..2 {
            r.feed(&pool_lease(vm, 1.0, 0.0));
            r.feed(&pool_reclaim(vm, u64::MAX, 1.0, 3600.0));
        }
        let report = r.finish();
        assert_eq!(report.pool.billed_btus, u64::MAX);
    }

    #[test]
    fn btu_policy_rounds_like_the_paper() {
        assert_eq!(btus_for_span(0.0), 1);
        assert_eq!(btus_for_span(3600.0), 1, "epsilon absorbs the exact hour");
        assert_eq!(btus_for_span(3600.0 + 1e-3), 2);
        assert_eq!(btus_for_span(2.5 * 3600.0), 3);
        for hostile in [-1.0, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(btus_for_span(hostile), 1, "span {hostile}");
        }
        assert_eq!(btus_for_span(f64::INFINITY), u64::MAX);
    }

    #[test]
    fn text_and_json_render_without_panicking() {
        let mut r = TraceReducer::new();
        for e in simple_segment() {
            r.feed(&e);
        }
        let report = r.finish();
        let text = report.to_text();
        assert!(text.contains("trace report"), "{text}");
        assert!(text.contains("violations: none"), "{text}");
        let json = report.to_json();
        let v = crate::json::parse(&json).expect("report JSON parses");
        assert_eq!(v.get("segments").and_then(|n| n.as_u64()), Some(1));
    }
}
