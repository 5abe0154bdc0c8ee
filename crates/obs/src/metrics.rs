//! A lock-free metrics registry: counters, gauges and histograms
//! backed by atomics.
//!
//! # Determinism
//!
//! Counters and histograms accumulate **integers only** (`u64` counts
//! and integer-valued samples such as nanoseconds). Integer addition
//! is commutative and exact, so a parallel sweep incrementing shared
//! counters from any number of worker threads produces bit-identical
//! totals — the property the `threads 1 vs 8` regression test in
//! `cws-experiments` locks in. Gauges hold `f64` bits and are
//! *set*, not accumulated; they are meant for one-writer per-run
//! values (final makespan, idle fraction), where last-write-wins is
//! the intended semantics.
//!
//! # Hot-path cost
//!
//! Registration takes a short-lived mutex; the returned handles are
//! `Arc`s whose update methods are single atomic RMW operations.
//! Callers on scheduling hot paths cache a handle once (or capture
//! [`crate::metrics_enabled`] into a local `bool`) so the disabled
//! case costs one predictable branch.

use crate::json::{self, json_f64, json_str, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Well-known metric names, so emitters and consumers cannot drift.
pub mod names {
    /// Probes constructed by `ScheduleBuilder::probe`.
    pub const KERNEL_PROBES: &str = "kernel.probes";
    /// Lazily-built per-(region, itype) ready-key reductions.
    pub const KERNEL_KEY_BUILDS: &str = "kernel.key_ready_builds";
    /// Insertion *placements* committed inside an idle gap (strictly
    /// before the VM's tail, its latest finish so far). Only the
    /// insertion policy can land in a gap — the paper's 19 pairings all
    /// build append-only schedules, so this counter is structurally 0
    /// for them (pinned by a regression test; see DESIGN.md §10).
    pub const KERNEL_GAP_HITS: &str = "kernel.gap_index_hits";
    /// Task placements committed by the kernel.
    pub const KERNEL_PLACEMENTS: &str = "kernel.placements";
    /// Schedules frozen by `ScheduleBuilder::build`.
    pub const KERNEL_SCHEDULES: &str = "kernel.schedules_built";
    /// Builders constructed borrowing an already-used shared
    /// `KernelTables` (every use of a table set after its first). On a
    /// sweep that builds one table set per `(dag, platform)` key this
    /// equals `schedules_built − distinct keys` — pinned by a
    /// regression test in `cws-experiments`.
    pub const KERNEL_TABLE_REUSE: &str = "kernel.table_reuse_hits";
    /// Warm pool slots claimed instead of fresh rentals.
    pub const POOL_HITS: &str = "pool.hits";
    /// Fresh (cold) rentals made by pooled scheduling.
    pub const POOL_COLD_RENTALS: &str = "pool.cold_rentals";
    /// Pool machines reclaimed (terminated) by the service layer.
    pub const POOL_RECLAIMS: &str = "pool.reclaims";
    /// Simulator events processed by `cws-sim` replays.
    pub const SIM_EVENTS: &str = "sim.events_processed";
    /// Final makespan of the most recent run, seconds.
    pub const RUN_MAKESPAN_S: &str = "run.makespan_s";
    /// Final total cost of the most recent run, USD.
    pub const RUN_COST_USD: &str = "run.cost_usd";
    /// Idle fraction (`idle / billed`) of the most recent run.
    pub const RUN_IDLE_FRACTION: &str = "run.idle_fraction";
    /// Paid-but-unused BTU seconds of the most recent run.
    pub const RUN_BTU_WASTE_S: &str = "run.btu_waste_s";
    /// Warm-claim fraction (`hits / (hits + cold)`) of the most recent
    /// service run.
    pub const RUN_POOL_HIT_RATE: &str = "run.pool_hit_rate";
    /// Histogram of `ScheduleBuilder::probe` wall-clock latencies in
    /// nanoseconds. The only wall-clock-derived metric in the registry:
    /// its counts are thread-count-independent, its sum is not.
    pub const KERNEL_PROBE_LATENCY: &str = "kernel.probe_latency";
    /// Histogram of service-layer queue waits (delay from a workflow's
    /// arrival to its first task start) in sim-clock milliseconds —
    /// deterministic, unlike [`KERNEL_PROBE_LATENCY`].
    pub const SERVICE_QUEUE_WAIT: &str = "service.queue_wait";
    /// Final fleet rental cost of a service run, USD — published by
    /// `cws-exp serve --metrics` and reconciled bit-exactly against the
    /// trace's pool-reclaim stream by `trace-report --check`.
    pub const SERVICE_FLEET_COST_USD: &str = "service.fleet_cost_usd";
    /// Machines rented (and billed) over a service run.
    pub const SERVICE_FLEET_VMS: &str = "service.fleet_vms";
    /// BTUs billed over a service run.
    pub const SERVICE_FLEET_BTUS: &str = "service.fleet_btus";
    /// Spot interruptions sampled by `cws-sim` spot replays.
    pub const SPOT_INTERRUPTIONS: &str = "spot.interruptions";
    /// Tasks re-executed from their checkpoint after a spot eviction.
    pub const SPOT_RECOVERED_TASKS: &str = "spot.recovered_tasks";
    /// Expected total cost (spot BTUs + on-demand recovery) of the most
    /// recent spot run, USD.
    pub const RUN_SPOT_COST_USD: &str = "run.spot_cost_usd";
    /// Fractional saving of the most recent spot run versus its
    /// on-demand twin (`1 − spot / on_demand`); negative when the
    /// hazard made spot more expensive.
    pub const RUN_SPOT_SAVINGS_FRAC: &str = "run.spot_savings_frac";
}

/// Monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Last-write-wins `f64` gauge (stored as bits in an atomic).
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(AtomicU64::new(0.0f64.to_bits()))
    }
}

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.set(0.0);
    }
}

/// Number of power-of-two histogram buckets (bucket `i` counts samples
/// whose value needs `i` significant bits, i.e. `v == 0 → 0`,
/// otherwise `64 - v.leading_zeros()`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Log₂-bucketed histogram of integer samples (e.g. durations in
/// nanoseconds). All state is `u64`, so concurrent recording is exact.
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // 65 atomic buckets are noise in debug output; count/sum place it.
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let bucket = (u64::BITS - v.leading_zeros()) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Immutable copy of the current state.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// Frozen histogram state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (bucket `i` holds values of `i`
    /// significant bits).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold another snapshot into this one (exact: integer sums).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Upper bound of the values bucket `i` can hold (`0` for bucket 0,
    /// else `2^i − 1`, saturating at `u64::MAX`).
    #[must_use]
    pub fn bucket_upper_bound(i: usize) -> u64 {
        match i {
            0 => 0,
            64.. => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// The `q`-quantile's bucket upper bound (`q` in `[0, 1]`): the
    /// smallest bucket bound below which at least `⌈q·count⌉` samples
    /// fall. Log₂ buckets make this exact to within a factor of two —
    /// the usual contract of a power-of-two latency histogram. Returns
    /// 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            // Saturating: a decoded snapshot's counts need not sum
            // within u64.
            seen = seen.saturating_add(c);
            if seen >= target {
                return Self::bucket_upper_bound(i);
            }
        }
        Self::bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Sparse `(significant-bits, count)` pairs of the non-empty
    /// buckets, in bucket order — the form the JSON encoding publishes.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }
}

/// A named collection of counters, gauges and histograms.
///
/// Most code uses the process-wide [`MetricsRegistry::global`]; the
/// parallel drivers may instead give each worker its own registry and
/// [merge](MetricsSnapshot::merge) the snapshots deterministically.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry.
    #[must_use]
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    /// The counter registered under `name` (created on first use).
    /// Cache the handle outside hot loops.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("counter table poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// The gauge registered under `name` (created on first use).
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("gauge table poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// The histogram registered under `name` (created on first use).
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histogram table poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Zero every registered metric (handles stay valid).
    pub fn reset(&self) {
        for c in self
            .counters
            .lock()
            .expect("counter table poisoned")
            .values()
        {
            c.reset();
        }
        for g in self.gauges.lock().expect("gauge table poisoned").values() {
            g.reset();
        }
        for h in self
            .histograms
            .lock()
            .expect("histogram table poisoned")
            .values()
        {
            h.reset();
        }
    }

    /// Freeze the registry into a snapshot (names sorted, values read
    /// with relaxed ordering).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .expect("counter table poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("gauge table poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("histogram table poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Frozen registry state: sorted name → value maps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Fold `other` into `self`: counters and histograms add exactly;
    /// gauges take `other`'s value when present (last-merged wins,
    /// mirroring their last-write-wins semantics).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, v) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(h) => h.merge(v),
                None => {
                    self.histograms.insert(k.clone(), v.clone());
                }
            }
        }
    }

    /// A counter's value (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value (`None` when absent).
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Encode as one JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{...}}`.
    /// Each histogram publishes its count, sum, mean, p50/p90/p99
    /// bucket bounds and the sparse non-empty buckets as
    /// `[significant_bits, count]` pairs — enough to reconstruct the
    /// full distribution (`cws-exp trace-report` renders these as
    /// percentile summaries).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", json_str(k));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_str(k), json_f64(*v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"sum\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\
                 \"buckets\":[",
                json_str(k),
                h.count,
                h.sum,
                json_f64(h.mean()),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
            );
            for (j, (bits, c)) in h.nonzero_buckets().into_iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{bits},{c}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Decode a [`MetricsSnapshot::to_json`] document, or a run
    /// manifest that carries one under `"metrics"` (what
    /// `cws-exp trace-report` reads from a trace's sibling).
    /// Histograms rebuild from their sparse `buckets` pairs; the
    /// derived `mean`/`p50`/`p90`/`p99` fields are ignored. A missing
    /// section reads as empty, and an entry of the wrong shape (a
    /// non-numeric value, a bucket pair that is not two integers, a
    /// bucket index past [`HISTOGRAM_BUCKETS`]) is skipped.
    ///
    /// # Errors
    /// Returns the parser's message on malformed JSON.
    pub fn from_json(doc: &str) -> Result<MetricsSnapshot, String> {
        let v = json::parse(doc)?;
        let metrics = v.get("metrics").unwrap_or(&v);
        let section = |name: &str| metrics.get(name).and_then(Value::as_obj).unwrap_or(&[]);
        let mut out = MetricsSnapshot::default();
        for (k, c) in section("counters") {
            if let Some(c) = c.as_u64() {
                out.counters.insert(k.clone(), c);
            }
        }
        for (k, g) in section("gauges") {
            if let Some(g) = g.as_f64() {
                out.gauges.insert(k.clone(), g);
            }
        }
        for (k, h) in section("histograms") {
            let mut snap = HistogramSnapshot {
                buckets: [0; HISTOGRAM_BUCKETS],
                count: h.get("count").and_then(Value::as_u64).unwrap_or(0),
                sum: h.get("sum").and_then(Value::as_u64).unwrap_or(0),
            };
            for pair in h.get("buckets").and_then(Value::as_arr).unwrap_or(&[]) {
                let Some([bits, c]) = pair.as_arr() else {
                    continue;
                };
                let (Some(bits), Some(c)) = (bits.as_u64(), c.as_u64()) else {
                    continue;
                };
                if bits < HISTOGRAM_BUCKETS as u64 {
                    snap.buckets[bits as usize] = c;
                }
            }
            out.histograms.insert(k.clone(), snap);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_exactly_across_threads() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("t.ops");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(reg.snapshot().counter("t.ops"), 80_000);
    }

    #[test]
    fn histogram_buckets_by_significant_bits() {
        let h = Histogram::default();
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(7); // bucket 3
        h.record(8); // bucket 4
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[3], 1);
        assert_eq!(s.buckets[4], 1);
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 16);
        assert!((s.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn snapshots_merge_exactly() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.counter("x").add(3);
        b.counter("x").add(4);
        b.counter("y").add(1);
        a.gauge("g").set(1.5);
        b.gauge("g").set(2.5);
        a.histogram("h").record(10);
        b.histogram("h").record(20);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("x"), 7);
        assert_eq!(merged.counter("y"), 1);
        assert_eq!(merged.gauge("g"), Some(2.5));
        assert_eq!(merged.histograms["h"].count, 2);
        assert_eq!(merged.histograms["h"].sum, 30);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles_valid() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("z");
        c.add(5);
        reg.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(reg.snapshot().counter("z"), 1);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let reg = MetricsRegistry::new();
        reg.counter("a.b").add(2);
        reg.gauge("c").set(0.5);
        reg.histogram("d").record(3);
        let json = reg.snapshot().to_json();
        assert_eq!(
            json,
            "{\"counters\":{\"a.b\":2},\"gauges\":{\"c\":0.5},\
             \"histograms\":{\"d\":{\"count\":1,\"sum\":3,\"mean\":3,\
             \"p50\":3,\"p90\":3,\"p99\":3,\"buckets\":[[2,1]]}}}"
        );
    }

    #[test]
    fn snapshot_json_round_trips_bare_and_in_a_manifest() {
        let reg = MetricsRegistry::new();
        reg.counter("kernel.probes").add(12);
        reg.gauge("run.cost_usd").set(0.475);
        reg.histogram("kernel.probe_latency").record(900);
        let snap = reg.snapshot();
        let json = snap.to_json();
        assert_eq!(MetricsSnapshot::from_json(&json), Ok(snap.clone()));
        let manifest = format!(r#"{{"tool":"cws-exp","metrics":{json}}}"#);
        assert_eq!(MetricsSnapshot::from_json(&manifest), Ok(snap));
    }

    #[test]
    fn malformed_entries_are_skipped_not_fatal() {
        // Regression: `cws-exp trace-report` indexed the empty bucket
        // pair as `p[0]` and panicked.
        let snap = MetricsSnapshot::from_json(
            r#"{"counters":{"c":-1,"d":2,"e":18446744073709551615},"gauges":{"g":"x","k":0.5},"histograms":{"h":
                {"count":1,"sum":1,"buckets":[[],[3],["x",1],[65,1],[4,5,6],[2,7]]}}}"#,
        )
        .expect("well-formed JSON");
        // `u64::MAX` parses as 2^64, past the range: skipped, not
        // saturated back to `u64::MAX`.
        assert_eq!(snap.counters, BTreeMap::from([("d".to_string(), 2)]));
        assert_eq!(snap.gauges, BTreeMap::from([("k".to_string(), 0.5)]));
        assert_eq!(snap.histograms["h"].nonzero_buckets(), vec![(2, 7)]);
        // Decoded counts that overflow u64 when summed still rank.
        let mut big = snap.histograms["h"].clone();
        big.buckets[1] = 1 << 63;
        big.buckets[2] = 1 << 63;
        big.count = u64::MAX;
        assert_eq!(big.quantile(0.99), 3);
    }

    #[test]
    fn quantiles_walk_the_log2_buckets() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.record(1); // bucket 1, bound 1
        }
        for _ in 0..9 {
            h.record(100); // bucket 7, bound 127
        }
        h.record(1_000_000); // bucket 20, bound 2^20 - 1
        let s = h.snapshot();
        assert_eq!(s.quantile(0.50), 1);
        assert_eq!(s.quantile(0.90), 1);
        assert_eq!(s.quantile(0.99), 127);
        assert_eq!(s.quantile(1.0), (1 << 20) - 1);
        assert_eq!(s.quantile(0.0), 1, "q=0 still needs one sample");
        assert_eq!(Histogram::default().snapshot().quantile(0.5), 0);
        assert_eq!(s.nonzero_buckets(), vec![(1, 90), (7, 9), (20, 1)]);
    }

    #[test]
    fn bucket_bounds_cover_the_u64_range() {
        assert_eq!(HistogramSnapshot::bucket_upper_bound(0), 0);
        assert_eq!(HistogramSnapshot::bucket_upper_bound(1), 1);
        assert_eq!(HistogramSnapshot::bucket_upper_bound(10), 1023);
        assert_eq!(HistogramSnapshot::bucket_upper_bound(64), u64::MAX);
    }
}
