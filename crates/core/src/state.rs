//! The incremental schedule-construction engine shared by every
//! allocation strategy.
//!
//! A [`ScheduleBuilder`] places tasks one at a time, maintaining the VM
//! pool, per-VM availability, BTU meters and data-transfer readiness. The
//! allocation strategies differ only in *which order* they visit tasks and
//! *which VM* they pick; all timing arithmetic funnels through here, so
//! analytic schedules, the validator and the discrete-event simulator
//! cannot drift apart.
//!
//! # Fast path
//!
//! Every probe (ready, start and insertion queries against a candidate
//! VM) used to recompute execution times and per-edge transfer times
//! from scratch, making each allocation pass O(T·V·preds) with heavily
//! redundant work. The builder now precomputes at construction:
//!
//! * a task × instance-type **execution-time table** (`exec`), and
//! * the two independent factors of every transfer time — path
//!   bandwidth per (from-type, to-type) pair (`bw`) and path latency
//!   per (from-region, to-region) pair (`lat`) — so a transfer time
//!   costs one division and one add of table entries, with no
//!   per-platform-call region/type dispatch;
//!
//! and maintains the running **busiest-VM argmax** (`busiest`) at every
//! placement, so the StartPar/AllPar policies' `busiest_vm` query is
//! O(1). Each VM keeps one timeline, its chronological [`Vm::tasks`]
//! list: the insertion policy walks it, in the fast and the reference
//! kernel alike, and no strategy the paper compares inserts.
//!
//! [`ScheduleBuilder::probe`] hoists the per-task part of `ready_time`
//! out of VM scans: it buckets the placed predecessors by host VM once,
//! then answers per-candidate ready/start/finish/insertion queries in
//! O(1) via a lazily-built top-2 reduction per (region, itype) key. It
//! is the one per-candidate query: a strategy probes a task once and
//! asks the [`TaskProbe`] about every candidate VM it weighs.
//!
//! # Raw-speed round 2
//!
//! On top of the cached tables, the builder keeps its hot state in an
//! arena/struct-of-arrays layout: dense per-VM `vm_avail`/`vm_key`
//! lanes mirror `vms`, and every probe borrows a pooled
//! `ProbeScratch` workspace (hosts, flattened edges, arrival scratch,
//! epoch-stamped per-VM local-ready), so steady-state probing performs
//! **zero heap allocation**. Sweeps amortise table construction across
//! schedules by building one [`KernelTables`] per `(dag, platform)` key
//! and handing it to [`ScheduleBuilder::with_tables`] (counted by
//! `kernel.table_reuse_hits`). A builder offered no tables computes
//! execution times on demand: `execution_time` is one multiply, the
//! very value a table entry holds, so the paper's 20-task workloads pay
//! for no exec table at all.
//!
//! # Kernel round 3
//!
//! The AllPar and AllPar1LnS pick
//! ([`ScheduleBuilder::earliest_start_vm_in_level`]) does not always
//! compute a start for every kept VM. A VM of (region, type) key k reads
//! `top_k`, the largest transfer-adjusted arrival into k, as its
//! cross-host arrival — unless it is the host contributing it
//! (`KeyReady::top_vm`), which reads the runner-up. So every VM of key k
//! but that top starts at or after `max(top_k, 0)`, and since `top_vm` is
//! always a predecessor host, the only VMs that can start below their own
//! key's bound are kept hosts that top their own key. The picker folds
//! those in first. When the best of them starts strictly below
//! `max(top_k, 0)` for every key k with a rented VM (`key_rented`), no
//! other VM can tie or win, and it is the answer. Otherwise the other
//! kept VMs are folded under the same (start, busy desc, id) order — a
//! total order, since ids are unique, so folding the tops first cannot
//! change the winner. A pipeline stage whose single parent VM is free
//! when the parent ends thus costs O(preds + keys); joins whose hosts tie
//! at `top_k`, and tasks whose host is already taken in the level, go on
//! to the walk of round 5.
//!
//! # Kernel round 5
//!
//! Past the round-3 bound, the pick walks a [`LevelIndex`] instead of
//! scanning every kept VM. Once per level, the first time a pick gets
//! past the bound, the index sorts every key's unused VMs into *pack
//! order* — busy time descending, then id ascending, the picker's own
//! tie-break after the start time. Inside the level only the VMs the
//! level uses change, and those leave the candidate set, so the order
//! stays valid; a per-key cursor skips the used prefix. The pick walks
//! each key k that holds a kept, unused VM in pack order, folds each kept
//! VM's exact start (the one [`TaskProbe::start_on`] computes,
//! `cross.max(0).max(local).max(avail)`), and leaves the key at the first
//! one whose start is at most `B_k = max(top_k, 0)` under `total_cmp`.
//! That is exact: every VM of k but `top_vm(k)` reads `top_k` as its
//! cross arrival, so it starts at or after `B_k` and, if it ties, comes
//! later in pack order and loses the (start, busy desc, id) comparison;
//! `top_vm(k)` is a kept host, and the bound has already folded it if it
//! starts below `B_k`. A key whose walk finds no such VM is walked in
//! full. A key's ready reduction is built once a kept VM is found in it —
//! exactly when a scan over every kept VM builds it — so schedules,
//! traces and the `kernel.*` counters are those of that scan. On layered
//! DAGs, whose joins tie at `top_k`, the front of each key is free at its
//! bound, and a pick costs O(preds + keys) instead of O(preds + V).
//!
//! The fast path performs the *same floating-point operations* as the
//! naive code: `f64::max` is exact, so regrouping the ready-time
//! max-reduction per host VM is bit-identical, and the cached transfer
//! factors are added in the original `size/bw + latency` order. The
//! `naive` module keeps the original implementations (compiled only
//! for tests and under the `naive` feature) and the `fastpath_tests`
//! property suite proves schedule-level equality on random DAGs across
//! every strategy pairing.

use crate::pooled::WarmVm;
use crate::schedule::{Schedule, TaskPlacement};
use crate::vm::{Vm, VmId};
use cws_dag::{TaskId, Workflow};
use cws_obs as obs;
use cws_platform::billing::fits_in_current_btu;
use cws_platform::{InstanceType, Platform, Region};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const EPS: f64 = 1e-9;
const N_TYPES: usize = InstanceType::ALL.len();
const N_REGIONS: usize = Region::ALL.len();
const N_KEYS: usize = N_REGIONS * N_TYPES;
const N_PAIRS: usize = N_TYPES * N_TYPES;

/// Index of an (instance-type, instance-type) pair in a transfer row.
#[inline]
fn pair_idx(from: InstanceType, to: InstanceType) -> usize {
    (from as usize) * N_TYPES + (to as usize)
}

/// Index of a (region, instance-type) candidate key.
#[inline]
fn key_idx(region: Region, itype: InstanceType) -> usize {
    (region as usize) * N_TYPES + (itype as usize)
}

/// One task's execution time on every instance type, in
/// [`InstanceType::ALL`] order: a [`KernelTables`] row, entry for entry
/// what a builder without tables computes on demand.
pub(crate) fn exec_row(base_time: f64) -> [f64; N_TYPES] {
    InstanceType::ALL.map(|it| it.execution_time(base_time))
}

/// The two factors of every transfer time on `platform`: path latency
/// per (from-region, to-region) pair and path bandwidth per
/// [`pair_idx`] type pair.
///
/// # Panics
/// Panics if an edge of `wf` carries a negative transfer size. The
/// platform's `transfer_time` checks each size as it goes; the tables
/// are divided into directly, so the sizes are checked here, once.
fn transfer_tables(
    wf: &Workflow,
    platform: &Platform,
) -> ([[f64; N_REGIONS]; N_REGIONS], [f64; N_PAIRS]) {
    for e in wf.edges() {
        assert!(
            e.data_mb >= 0.0,
            "transfer size must be non-negative, got {}",
            e.data_mb
        );
    }
    let net = &platform.network;
    let lat = Region::ALL.map(|a| Region::ALL.map(|b| net.path_latency_s(a, b)));
    let mut bw = [0.0; N_PAIRS];
    for &ft in &InstanceType::ALL {
        for &tt in &InstanceType::ALL {
            bw[pair_idx(ft, tt)] = net.path_bandwidth_mbps(ft, tt);
        }
    }
    (lat, bw)
}

/// Immutable, shareable kernel tables for one `(workflow, platform)`
/// pair: the task × instance-type execution-time table plus the two
/// factors of every transfer time (path bandwidth per type pair, path
/// latency per region pair).
///
/// A sweep builds 57 schedules per workload (19 pairings × 3 repeats)
/// but only ever needs **one** table set per `(dag, platform)` key —
/// build it once with [`KernelTables::build`] and hand it to every
/// [`ScheduleBuilder::with_tables`]. Each use after the first bumps the
/// `kernel.table_reuse_hits` counter. The tables are `Sync` (interior
/// state is one relaxed atomic), so parallel sweep workers can borrow
/// one set concurrently.
///
/// Entries are exactly what a builder would compute for itself
/// (`execution_time`, `path_bandwidth_mbps`, `path_latency_s`), so
/// shared-table schedules are bit-identical to those of a builder that
/// is offered none.
#[derive(Debug)]
pub struct KernelTables {
    /// `exec[task][itype]` execution-time table.
    exec: Vec<[f64; N_TYPES]>,
    /// Path-latency table: `lat[from_region][to_region]`.
    lat: [[f64; N_REGIONS]; N_REGIONS],
    /// Path-bandwidth table: `bw[pair_idx(from, to)]` in MB/s.
    bw: [f64; N_PAIRS],
    /// Builders constructed over these tables (relaxed; only the
    /// zero/non-zero transition matters, for reuse counting).
    uses: AtomicU64,
}

impl KernelTables {
    /// Build the tables for `wf` on `platform`.
    ///
    /// # Panics
    /// Panics if any edge carries a negative transfer size (the same
    /// validation a builder offered no tables performs up front).
    #[must_use]
    pub fn build(wf: &Workflow, platform: &Platform) -> Self {
        let (lat, bw) = transfer_tables(wf, platform);
        let exec = wf.ids().map(|t| exec_row(wf.task(t).base_time)).collect();
        KernelTables {
            exec,
            lat,
            bw,
            uses: AtomicU64::new(0),
        }
    }

    /// The execution-time rows (`[task][itype]`), for strategy upgrade
    /// loops (CPA-Eager, GAIN) that want to borrow instead of rebuild.
    #[must_use]
    pub fn exec_rows(&self) -> &[[f64; N_TYPES]] {
        &self.exec
    }

    /// How many builders borrowed these tables so far.
    #[must_use]
    pub fn uses(&self) -> u64 {
        self.uses.load(Ordering::Relaxed)
    }
}

/// Reusable probe workspace, pooled on the builder so consecutive
/// probes perform **zero** heap allocation once the vectors have grown
/// to the schedule's high-water mark. Contents are meaningless between
/// probes; [`ScheduleBuilder::probe`] re-initialises what it uses.
#[derive(Debug, Default)]
struct ProbeScratch {
    /// Distinct predecessor hosts, in first-encounter order.
    hosts: Vec<HostPreds>,
    /// Flattened predecessor edges.
    edges: Vec<ProbeEdge>,
    /// Per-host arrival scratch for `key_ready_idx` (first `hosts.len()`
    /// entries live).
    arrivals: Vec<f64>,
    /// `local_ready[vm]`: max predecessor finish hosted on that VM,
    /// valid only where `local_epoch[vm] == epoch` — the epoch stamp
    /// replaces the O(V) `vec![NEG_INFINITY; vms.len()]` refill the
    /// old probe paid per call.
    local_ready: Vec<f64>,
    /// Epoch stamp per VM slot (see `local_ready`).
    local_epoch: Vec<u64>,
    /// `host_slot[vm]`: this VM's index into `hosts`, valid only where
    /// `host_epoch[vm] == epoch` — turns the per-predecessor "seen this
    /// host yet?" test into O(1) instead of a scan over `hosts`, which
    /// dominated probe setup for tasks whose predecessors span many VMs
    /// (the AllPar norm on wide levels).
    host_slot: Vec<u32>,
    /// Epoch stamp per VM slot (see `host_slot`).
    host_epoch: Vec<u64>,
    /// Current probe epoch; bumped once per probe.
    epoch: u64,
}

/// One-slot pool for [`ProbeScratch`]: the probe takes the workspace at
/// construction and its `Drop` returns it. A `Cell` keeps the take/put
/// free of borrow bookkeeping on the hot path.
struct ScratchCell(Cell<Option<ProbeScratch>>);

impl ScratchCell {
    fn new() -> Self {
        ScratchCell(Cell::new(None))
    }

    fn take(&self) -> ProbeScratch {
        self.0.take().unwrap_or_default()
    }

    fn put(&self, scratch: ProbeScratch) {
        self.0.set(Some(scratch));
    }
}

impl std::fmt::Debug for ScratchCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ScratchCell(..)")
    }
}

impl Clone for ScratchCell {
    /// Clones start with an empty pool — scratch contents are
    /// meaningless between probes and regrow on first use.
    fn clone(&self) -> Self {
        ScratchCell::new()
    }
}

/// Pre-fetched handles to the kernel's observability counters (the
/// `kernel.*` and `pool.*` names of [`cws_obs::metrics::names`]).
/// Resolved from the global registry once per builder — only when
/// metrics were enabled at construction — so the hot path pays one
/// relaxed atomic add per event instead of a registry lookup.
#[derive(Debug, Clone)]
struct KernelCounters {
    probes: Arc<obs::Counter>,
    key_builds: Arc<obs::Counter>,
    gap_hits: Arc<obs::Counter>,
    placements: Arc<obs::Counter>,
    schedules: Arc<obs::Counter>,
    pool_hits: Arc<obs::Counter>,
    table_reuse: Arc<obs::Counter>,
    /// Wall-clock probe latency in nanoseconds. The one metric whose
    /// *sum* is machine-dependent; its count stays deterministic (one
    /// sample per probe), which is what the thread-matrix regression
    /// compares.
    probe_latency: Arc<obs::Histogram>,
}

impl KernelCounters {
    fn fetch() -> Self {
        use obs::metrics::names;
        let reg = obs::MetricsRegistry::global();
        KernelCounters {
            probes: reg.counter(names::KERNEL_PROBES),
            key_builds: reg.counter(names::KERNEL_KEY_BUILDS),
            gap_hits: reg.counter(names::KERNEL_GAP_HITS),
            placements: reg.counter(names::KERNEL_PLACEMENTS),
            schedules: reg.counter(names::KERNEL_SCHEDULES),
            pool_hits: reg.counter(names::POOL_HITS),
            table_reuse: reg.counter(names::KERNEL_TABLE_REUSE),
            probe_latency: reg.histogram(names::KERNEL_PROBE_LATENCY),
        }
    }
}

/// Incremental schedule builder.
#[derive(Debug, Clone)]
pub struct ScheduleBuilder<'a> {
    wf: &'a Workflow,
    platform: &'a Platform,
    vms: Vec<Vm>,
    placements: Vec<Option<TaskPlacement>>,
    /// Warm VMs offered by an online service layer (see
    /// [`crate::pooled`]). Kept separate from `vms` so the paper's
    /// provisioning policies only ever see machines this workflow has
    /// actually claimed — pre-seeding `vms` would bias `busiest_vm`
    /// with history the policies were not designed to observe.
    warm_slots: Vec<WarmVm>,
    warm_claimed: Vec<bool>,
    /// For each entry of `vms`, the warm-slot index it was claimed from
    /// (`None` = fresh rental). Maintained in lock-step with `vms`.
    origins: Vec<Option<usize>>,
    /// Shared tables the execution times are read from; `None` computes
    /// them on demand. Always `None` for the naive reference, which must
    /// not benefit from tables a sweep lends.
    tables: Option<&'a KernelTables>,
    /// Path-latency table: `lat[from_region][to_region]`.
    lat: [[f64; N_REGIONS]; N_REGIONS],
    /// Path-bandwidth table: `bw[pair_idx(from, to)]` in MB/s. A
    /// transfer then costs `data_mb / bw[pair] + lat[fr][tr]` — the same
    /// division and add the platform's `transfer_time` performs.
    bw: [f64; N_PAIRS],
    /// Struct-of-arrays mirror of `vms`: per-VM availability (`meter`
    /// tail), refreshed on every placement so probe scans touch one
    /// dense `f64` lane instead of striding through whole `Vm` structs.
    vm_avail: Vec<f64>,
    /// Struct-of-arrays mirror of `vms`: each VM's `(region, itype)`
    /// candidate key as a [`key_idx`] code, read by every probe.
    vm_key: Vec<u16>,
    /// `key_rented[k]`: some VM of [`key_idx`] code `k` has been rented
    /// — the keys whose bound [`Self::earliest_start_vm_in_level`] checks.
    key_rented: [bool; N_KEYS],
    /// Pooled probe workspace (see [`ProbeScratch`]).
    scratch: ScratchCell,
    /// Running `(busy_seconds, id)` argmax over `vms` (ties towards the
    /// smaller id). Valid because busy time never decreases.
    busiest: Option<(f64, VmId)>,
    /// Route probes through the [`naive`] reference kernel (captured
    /// from the thread-local switch at construction).
    #[cfg(any(test, feature = "naive"))]
    kernel_naive: bool,
    /// Trace switch captured at construction — same pattern as
    /// `kernel_naive`, so a disabled trace costs one branch on a local.
    trace_on: bool,
    /// Kernel counters, present only while metrics are enabled.
    counters: Option<KernelCounters>,
}

impl<'a> ScheduleBuilder<'a> {
    /// Start an empty schedule for `wf` on `platform`.
    #[must_use]
    pub fn new(wf: &'a Workflow, platform: &'a Platform) -> Self {
        Self::with_warm_pool(wf, platform, &[])
    }

    /// Start an empty schedule that may claim VMs from `warm` instead of
    /// renting fresh ones (see [`crate::pooled`] for the claiming rules).
    #[must_use]
    pub fn with_warm_pool(wf: &'a Workflow, platform: &'a Platform, warm: &[WarmVm]) -> Self {
        Self::construct(wf, platform, warm, None)
    }

    /// Start an empty schedule borrowing pre-built [`KernelTables`] when
    /// a sweep has them, instead of computing bandwidth and latency
    /// tables afresh — the cross-schedule amortisation a sweep uses to
    /// build 57 schedules per workload from one table set. With `None`
    /// this is [`Self::new`]; the schedule is bit-identical either way.
    ///
    /// # Panics
    /// Panics if `tables` was built for a workflow of a different size.
    #[must_use]
    pub fn with_tables(
        wf: &'a Workflow,
        platform: &'a Platform,
        tables: Option<&'a KernelTables>,
    ) -> Self {
        Self::construct(wf, platform, &[], tables)
    }

    fn construct(
        wf: &'a Workflow,
        platform: &'a Platform,
        warm: &[WarmVm],
        tables: Option<&'a KernelTables>,
    ) -> Self {
        #[cfg(any(test, feature = "naive"))]
        let kernel_naive = naive::reference_kernel_enabled();
        #[cfg(not(any(test, feature = "naive")))]
        let kernel_naive = false;
        let counters = obs::metrics_enabled().then(KernelCounters::fetch);
        // The reference kernel ignores offered tables entirely (no use is
        // recorded), so its pass keeps its original cost profile.
        let tables = tables.filter(|_| !kernel_naive);
        let (lat, bw) = match tables {
            Some(t) => {
                assert_eq!(
                    t.exec.len(),
                    wf.len(),
                    "kernel tables were built for a different workflow"
                );
                if t.uses.fetch_add(1, Ordering::Relaxed) > 0 {
                    if let Some(c) = &counters {
                        c.table_reuse.inc();
                    }
                }
                (t.lat, t.bw)
            }
            None => transfer_tables(wf, platform),
        };
        ScheduleBuilder {
            wf,
            platform,
            vms: Vec::new(),
            placements: vec![None; wf.len()],
            warm_slots: warm.to_vec(),
            warm_claimed: vec![false; warm.len()],
            origins: Vec::new(),
            tables,
            lat,
            bw,
            vm_avail: Vec::new(),
            vm_key: Vec::new(),
            key_rented: [false; N_KEYS],
            scratch: ScratchCell::new(),
            busiest: None,
            #[cfg(any(test, feature = "naive"))]
            kernel_naive,
            trace_on: obs::trace_enabled(),
            counters,
        }
    }

    /// The workflow being scheduled.
    #[must_use]
    pub fn workflow(&self) -> &'a Workflow {
        self.wf
    }

    /// The platform being scheduled onto.
    #[must_use]
    pub fn platform(&self) -> &'a Platform {
        self.platform
    }

    /// The VMs rented so far.
    #[must_use]
    pub fn vms(&self) -> &[Vm] {
        &self.vms
    }

    /// One VM.
    #[must_use]
    pub fn vm(&self, id: VmId) -> &Vm {
        &self.vms[id.index()]
    }

    /// The ids of the VMs rented so far, in [`Self::vms`] order.
    pub fn vm_ids(&self) -> impl Iterator<Item = VmId> {
        (0..self.vms.len() as u32).map(VmId)
    }

    /// Placement of a task if it has been scheduled.
    #[must_use]
    pub fn placement(&self, task: TaskId) -> Option<TaskPlacement> {
        self.placements[task.index()]
    }

    /// Fast-path execution-time lookup: the shared table's entry, or the
    /// same one-multiply `execution_time` computed on demand, so both
    /// sources are bit-identical.
    #[inline]
    fn exec_entry(&self, task: TaskId, itype: InstanceType) -> f64 {
        match self.tables {
            Some(t) => t.exec[task.index()][itype as usize],
            None => itype.execution_time(self.wf.task(task).base_time),
        }
    }

    /// Execution time of `task` on an instance of type `itype`.
    #[must_use]
    pub fn exec_time(&self, task: TaskId, itype: InstanceType) -> f64 {
        #[cfg(any(test, feature = "naive"))]
        if self.kernel_naive {
            return naive::exec_time(self, task, itype);
        }
        self.exec_entry(task, itype)
    }

    /// Earliest time the inputs of `task` are available on a VM of type
    /// `itype` in `region`, accounting for cross-VM transfers.
    /// `on_vm` identifies the candidate host so intra-VM edges cost zero.
    ///
    /// # Panics
    /// Panics if a predecessor of `task` has not been placed yet —
    /// strategies must place tasks in a topological order.
    fn ready_time(
        &self,
        task: TaskId,
        on_vm: Option<VmId>,
        itype: InstanceType,
        region: Region,
    ) -> f64 {
        #[cfg(any(test, feature = "naive"))]
        if self.kernel_naive {
            return naive::ready_time(self, task, on_vm, itype, region);
        }
        let mut ready: f64 = 0.0;
        for e in self.wf.predecessors(task) {
            let p = self.placements[e.from.index()]
                .unwrap_or_else(|| panic!("predecessor {} of {task} not placed", e.from));
            let transfer = if Some(p.vm) == on_vm {
                0.0
            } else {
                let from = &self.vms[p.vm.index()];
                e.data_mb / self.bw[pair_idx(from.itype, itype)]
                    + self.lat[from.region as usize][region as usize]
            };
            ready = ready.max(p.finish + transfer);
        }
        ready
    }

    /// The start time `task` would get on existing VM `vm`.
    fn start_time_on(&self, task: TaskId, vm: VmId) -> f64 {
        let v = &self.vms[vm.index()];
        self.ready_time(task, Some(vm), v.itype, v.region)
            .max(v.available_at())
    }

    /// Whether placing `task` on `vm` keeps the VM inside its
    /// already-paid BTUs (the "NotExceed" reuse test).
    #[must_use]
    pub fn fits_on(&self, task: TaskId, vm: VmId) -> bool {
        let v = &self.vms[vm.index()];
        v.fits_without_new_btu(self.exec_time(task, v.itype))
    }

    /// A reusable probe for `task`: answers ready/start/finish/insertion
    /// queries against any candidate VM in O(1) after an O(preds) setup,
    /// by bucketing the placed predecessors per host VM and reducing
    /// their transfer-adjusted finish times per (region, itype) key.
    ///
    /// # Panics
    /// Panics if a predecessor of `task` has not been placed yet.
    ///
    /// # Examples
    /// ```
    /// use cws_core::ScheduleBuilder;
    /// use cws_dag::WorkflowBuilder;
    /// use cws_platform::{InstanceType, Platform};
    ///
    /// let mut b = WorkflowBuilder::new("pair");
    /// let a = b.task("a", 100.0);
    /// let c = b.task("c", 50.0);
    /// b.edge(a, c);
    /// let wf = b.build().unwrap();
    /// let platform = Platform::ec2_paper();
    ///
    /// let mut sb = ScheduleBuilder::new(&wf, &platform);
    /// let vm = sb.place_on_new(a, InstanceType::Small);
    /// let finish_a = sb.placement(a).unwrap().finish;
    ///
    /// let mut probe = sb.probe(c);
    /// // On the predecessor's own VM no transfer is paid: `c` is ready
    /// // the instant `a` finishes.
    /// assert_eq!(probe.ready_on(vm), finish_a);
    /// // A fresh VM in the same region pays the (possibly zero) network
    /// // delay, so it can never be ready earlier.
    /// let fresh = probe.ready_fresh(InstanceType::Small, platform.default_region);
    /// assert!(fresh >= finish_a);
    /// ```
    #[must_use]
    pub fn probe(&self, task: TaskId) -> TaskProbe<'_, 'a> {
        // Observability only: the sampled wall-clock never feeds back
        // into simulated time, so replays stay pure functions of
        // (workload, platform, seed).
        let timed = self.counters.as_ref().map(|c| {
            c.probes.inc();
            std::time::Instant::now() // cws-lint: allow(wall-clock-in-sim)
        });
        let mut scratch = self.scratch.take();
        scratch.hosts.clear();
        scratch.edges.clear();
        if !self.is_naive() {
            // Epoch stamp instead of refilling `local_ready` with
            // NEG_INFINITY per probe: a slot is live only when its
            // stamp matches the current epoch, and a stale slot reads
            // as NEG_INFINITY — `NEG_INFINITY.max(x) == x` exactly, so
            // direct-set on first touch is bit-identical to the refill.
            scratch.epoch += 1;
            if scratch.local_epoch.len() < self.vms.len() {
                scratch.local_epoch.resize(self.vms.len(), 0);
                scratch
                    .local_ready
                    .resize(self.vms.len(), f64::NEG_INFINITY);
                scratch.host_epoch.resize(self.vms.len(), 0);
                scratch.host_slot.resize(self.vms.len(), 0);
            }
            let preds = self.wf.predecessors(task);
            scratch.edges.reserve(preds.len());
            for e in preds {
                let p = self.placements[e.from.index()]
                    .unwrap_or_else(|| panic!("predecessor {} of {task} not placed", e.from));
                let i = p.vm.index();
                let slot = if scratch.host_epoch[i] == scratch.epoch {
                    scratch.host_slot[i] as usize
                } else {
                    let hv = &self.vms[i];
                    scratch.hosts.push(HostPreds {
                        vm: p.vm,
                        region: hv.region,
                        itype: hv.itype,
                    });
                    scratch.host_epoch[i] = scratch.epoch;
                    scratch.host_slot[i] = (scratch.hosts.len() - 1) as u32;
                    scratch.hosts.len() - 1
                };
                if scratch.local_epoch[i] == scratch.epoch {
                    scratch.local_ready[i] = scratch.local_ready[i].max(p.finish);
                } else {
                    scratch.local_epoch[i] = scratch.epoch;
                    scratch.local_ready[i] = p.finish;
                }
                scratch.edges.push(ProbeEdge {
                    host: slot as u32,
                    data_mb: e.data_mb,
                    finish: p.finish,
                });
            }
            if scratch.arrivals.len() < scratch.hosts.len() {
                scratch
                    .arrivals
                    .resize(scratch.hosts.len(), f64::NEG_INFINITY);
            }
        }
        if let (Some(c), Some(t0)) = (&self.counters, timed) {
            c.probe_latency.record(t0.elapsed().as_nanos() as u64);
        }
        TaskProbe {
            sb: self,
            task,
            scratch,
            keys: [None; N_KEYS],
        }
    }

    /// Rent a fresh VM in the platform's default region and place `task`
    /// on it. The rental opens at the decision time (the task's data-ready
    /// instant) and the task starts once the configured boot delay has
    /// elapsed — a mid-schedule rental is never pre-booted for free.
    pub fn place_on_new(&mut self, task: TaskId, itype: InstanceType) -> VmId {
        self.place_on_new_in(task, itype, self.platform.default_region)
    }

    /// Rent a fresh VM in an explicit region and place `task` on it.
    pub fn place_on_new_in(&mut self, task: TaskId, itype: InstanceType, region: Region) -> VmId {
        let ready = self.ready_time(task, None, itype, region);
        let vm = Vm::new(itype, region, ready);
        self.open_vm(task, vm, ready + self.platform.boot_time_s, None)
    }

    /// For each rented VM (same order as [`Self::vms`]), the warm-slot
    /// index it was claimed from — `None` for fresh rentals.
    #[must_use]
    pub fn vm_origins(&self) -> &[Option<usize>] {
        &self.origins
    }

    /// The best still-unclaimed warm slot for `task`, or `None` when no
    /// slot beats renting fresh.
    ///
    /// A slot is eligible when it has the requested type and `task`
    /// could start on it no later than on a fresh rental (whose first
    /// task waits out [`Platform::boot_time_s`] *after* its data is
    /// ready — so a longer boot delay makes warm reuse strictly more
    /// attractive). With `require_fit`
    /// (the NotExceed policies) the task must additionally fit in the
    /// slot's current partially-consumed BTU. Ties prefer the earlier
    /// start, then the slot deeper into its BTU (pack paid time), then
    /// the lower slot index.
    #[must_use]
    pub fn best_warm_slot(
        &self,
        task: TaskId,
        itype: InstanceType,
        require_fit: bool,
    ) -> Option<usize> {
        let duration = self.exec_time(task, itype);
        let mut probe = self.probe(task);
        self.warm_slots
            .iter()
            .enumerate()
            .filter(|&(i, slot)| !self.warm_claimed[i] && slot.itype == itype)
            .filter_map(|(i, slot)| {
                let ready = probe.ready_fresh(itype, slot.region);
                let start = ready.max(slot.available_rel);
                let fresh_start = ready + self.platform.boot_time_s;
                let beats_fresh = start <= fresh_start + EPS;
                let fits = !require_fit || fits_in_current_btu(slot.btu_elapsed, duration);
                (beats_fresh && fits).then_some((i, slot, start))
            })
            .min_by(|(ia, sa, ta), (ib, sb, tb)| {
                ta.total_cmp(tb)
                    .then(sb.btu_elapsed.total_cmp(&sa.btu_elapsed))
                    .then(ia.cmp(ib))
            })
            .map(|(i, _, _)| i)
    }

    /// Claim warm slot `slot` for `task`: the slot becomes a rented VM
    /// whose meter carries the slot's already-consumed BTU seconds, so
    /// later `NotExceed` fit tests keep seeing the machine's true
    /// position in its billing unit.
    ///
    /// # Panics
    /// Panics if the slot was already claimed.
    pub fn claim_warm(&mut self, task: TaskId, slot: usize) -> VmId {
        assert!(!self.warm_claimed[slot], "warm slot {slot} claimed twice");
        self.warm_claimed[slot] = true;
        let WarmVm {
            itype,
            region,
            available_rel,
            btu_elapsed,
        } = self.warm_slots[slot];
        let ready = self.ready_time(task, None, itype, region);
        let start = ready.max(available_rel);
        let mut vm = Vm::new(itype, region, start);
        // Carried busy time: `fits_on` and `busiest_vm` observe the
        // machine's whole current-BTU history, which is exactly what an
        // online provisioner can see. Schedule-level cost metrics stop
        // being meaningful for pooled schedules — the service layer
        // bills pool VMs by wall clock instead.
        vm.meter.busy = btu_elapsed;
        self.open_vm(task, vm, start, Some(slot))
    }

    /// Commit `task` at `start` as the first task of `vm`, a fresh
    /// rental (`origin` `None`) or the claim of warm slot `origin`, and
    /// append the VM to the fleet.
    fn open_vm(&mut self, task: TaskId, mut vm: Vm, start: f64, origin: Option<usize>) -> VmId {
        let id = VmId(self.vms.len() as u32);
        let finish = start + self.exec_time(task, vm.itype);
        vm.push_task(task, start, finish);
        let ki = key_idx(vm.region, vm.itype);
        self.vm_avail.push(vm.available_at());
        self.vm_key.push(ki as u16);
        self.key_rented[ki] = true;
        self.vms.push(vm);
        self.origins.push(origin);
        self.refresh_busiest(id);
        self.set_placement(task, id, start, finish);
        let kind = match origin {
            Some(_) => {
                if let Some(c) = &self.counters {
                    c.pool_hits.inc();
                }
                obs::PlacementKind::WarmClaim
            }
            None => obs::PlacementKind::NewVm,
        };
        self.observe_lease(id);
        self.observe_placement(task, id, start, finish, kind);
        id
    }

    /// Place `task` on an existing VM, appending after its last task.
    pub fn place_on(&mut self, task: TaskId, vm: VmId) {
        let start = self.start_time_on(task, vm);
        let itype = self.vms[vm.index()].itype;
        let finish = start + self.exec_time(task, itype);
        self.vms[vm.index()].push_task(task, start, finish);
        self.vm_avail[vm.index()] = self.vms[vm.index()].available_at();
        self.refresh_busiest(vm);
        self.set_placement(task, vm, start, finish);
        self.observe_placement(task, vm, start, finish, obs::PlacementKind::Append);
    }

    /// The earliest start `task` could get on `vm` using *insertion*:
    /// the task may fill an idle gap between already-placed tasks, not
    /// just the tail. This is classic HEFT's insertion policy.
    fn insertion_start_on(&self, task: TaskId, vm: VmId) -> (f64, usize) {
        #[cfg(any(test, feature = "naive"))]
        if self.kernel_naive {
            return naive::insertion_start_on(self, task, vm);
        }
        let v = &self.vms[vm.index()];
        let ready = self.ready_time(task, Some(vm), v.itype, v.region);
        self.insertion_fit(vm, ready, self.exec_entry(task, v.itype))
    }

    /// The insertion policy's start on `vm` for a task of `duration`
    /// that is ready at `ready`, and the list position it takes there:
    /// the first idle window of the VM's chronological task list that
    /// holds it, else the tail. A window holds the task when it starts
    /// strictly before the window's closing task, so a zero-runtime task
    /// never goes ahead of a task that starts at its own instant (which
    /// may be its predecessor) and the replay runs the list as planned.
    /// At boot 0 the machine is usable from time 0 (the paper's
    /// pre-provisioned fleet), so the window before its first task
    /// counts; with a non-zero boot the machine is still booting then,
    /// and the walk starts at its first task. Every insertion query,
    /// fast or reference, ends here.
    fn insertion_fit(&self, vm: VmId, ready: f64, duration: f64) -> (f64, usize) {
        let tasks = &self.vms[vm.index()].tasks;
        let placed =
            |t: &TaskId| self.placements[t.index()].unwrap_or_else(|| panic!("{t} unplaced"));
        let mut cursor = if self.platform.boot_time_s == 0.0 {
            0.0
        } else {
            tasks.first().map_or(0.0, |t| placed(t).start)
        };
        for (pos, t) in tasks.iter().enumerate() {
            let p = placed(t);
            let start = cursor.max(ready);
            if start < p.start && start + duration <= p.start + EPS {
                return (start, pos);
            }
            cursor = cursor.max(p.finish);
        }
        (cursor.max(ready), tasks.len())
    }

    /// Place `task` on `vm` with the insertion policy: it lands in the
    /// earliest idle gap that fits (or at the tail).
    pub fn place_on_inserted(&mut self, task: TaskId, vm: VmId) {
        let (start, pos) = self.insertion_start_on(task, vm);
        let itype = self.vms[vm.index()].itype;
        let finish = start + self.exec_time(task, itype);
        // A start strictly before the busy tail means the task filled an
        // idle gap rather than appending — the event the
        // `kernel.gap_index_hits` counter measures.
        let gap_hit = start + EPS < self.vm_avail[vm.index()];
        let v = &mut self.vms[vm.index()];
        // Insertion may open the rental before the current first task
        // (billing follows busy time, so this costs nothing extra).
        if start < v.meter.start {
            v.meter.start = start;
        }
        v.meter.record(start, finish);
        v.tasks.insert(pos, task);
        self.vm_avail[vm.index()] = v.available_at();
        self.refresh_busiest(vm);
        self.set_placement(task, vm, start, finish);
        if let Some(c) = &self.counters {
            if gap_hit {
                c.gap_hits.inc();
            }
        }
        self.observe_placement(task, vm, start, finish, obs::PlacementKind::Insert);
    }

    /// Count and trace one placement decision (every placement method
    /// funnels through here after updating its indices).
    fn observe_placement(
        &self,
        task: TaskId,
        vm: VmId,
        start: f64,
        finish: f64,
        kind: obs::PlacementKind,
    ) {
        if let Some(c) = &self.counters {
            c.placements.inc();
        }
        if self.trace_on {
            obs::emit(|| obs::TraceEvent::ProbeDecision {
                task: task.index() as u32,
                vm: vm.0,
                start,
                finish,
                kind,
            });
        }
    }

    /// Trace the lease of a freshly rented or warm-claimed VM, carrying
    /// its per-BTU price so a trace consumer can recompute run cost.
    fn observe_lease(&self, vm: VmId) {
        if self.trace_on {
            let v = &self.vms[vm.index()];
            obs::emit(|| obs::TraceEvent::VmLease {
                vm: vm.0,
                itype: v.itype.name().to_string(),
                region: v.region.id().to_string(),
                price_per_btu: self.platform.price_in(v.region, v.itype),
                time: v.meter.start,
            });
        }
    }

    fn set_placement(&mut self, task: TaskId, vm: VmId, start: f64, finish: f64) {
        assert!(
            self.placements[task.index()].is_none(),
            "task {task} placed twice"
        );
        self.placements[task.index()] = Some(TaskPlacement { vm, start, finish });
    }

    /// Fold VM `vm`'s current busy time into the running argmax. Busy
    /// time only ever grows and placements touch one VM at a time, so
    /// the incremental update reproduces the full scan's result (max
    /// busy, ties towards the smaller id).
    fn refresh_busiest(&mut self, vm: VmId) {
        let busy = self.vms[vm.index()].busy_seconds();
        self.busiest = match self.busiest {
            Some((_, id)) if id == vm => Some((busy, id)),
            Some((best, id)) if busy > best || (busy == best && vm.0 < id.0) => Some((busy, vm)),
            None => Some((busy, vm)),
            keep => keep,
        };
    }

    /// Whether this builder routes probes through the naive reference
    /// kernel.
    #[inline]
    fn is_naive(&self) -> bool {
        #[cfg(any(test, feature = "naive"))]
        {
            self.kernel_naive
        }
        #[cfg(not(any(test, feature = "naive")))]
        {
            false
        }
    }

    /// The existing VM with the largest accumulated execution time —
    /// the paper's "VM with the largest execution time" used by the
    /// StartPar policies and by sequential tasks under the AllPar
    /// policies. Ties break towards the smaller VM id. `None` when no VM
    /// has been rented yet.
    #[must_use]
    pub fn busiest_vm(&self) -> Option<VmId> {
        #[cfg(any(test, feature = "naive"))]
        if self.kernel_naive {
            return naive::busiest_vm(self);
        }
        self.busiest.map(|(_, id)| id)
    }

    /// The AllPar and AllPar1LnS pick: among the VMs `level` has not
    /// used, of type `itype` when one is given and accepted by `keep`,
    /// the one on which `task` could start earliest — usually the VM
    /// hosting one of its predecessors, since that avoids both the
    /// transfer delay and any wait for a foreign VM to free up. Ties
    /// break towards the largest accumulated execution time (pack BTUs),
    /// then the smaller VM id.
    ///
    /// All of `task`'s predecessors must already be placed. The answer,
    /// and every ready reduction built on the way, are those of the
    /// naive scan over every kept VM; the index only lets the pick stop
    /// walking a key early (module doc, round 5).
    #[must_use]
    pub fn earliest_start_vm_in_level(
        &self,
        task: TaskId,
        level: &mut LevelIndex,
        itype: Option<InstanceType>,
        mut keep: impl FnMut(VmId) -> bool,
    ) -> Option<VmId> {
        #[cfg(any(test, feature = "naive"))]
        if self.kernel_naive {
            return naive::earliest_start_vm_where(self, task, |id| {
                level.admits(self, id, itype) && keep(id)
            });
        }
        // The comparator is the sequential `min_by`'s — earliest start,
        // then largest busy time, then smallest id. Ids are unique, so the
        // order is total and folding a VM twice, or in any order, never
        // changes the answer.
        let fold = |best: Option<(VmId, f64, f64)>, id: VmId, start: f64| {
            let busy = self.vms[id.index()].busy_seconds();
            match best {
                Some((bid, bs, bb))
                    if start
                        .total_cmp(&bs)
                        .then(bb.total_cmp(&busy))
                        .then(id.0.cmp(&bid.0))
                        != std::cmp::Ordering::Less =>
                {
                    Some((bid, bs, bb))
                }
                _ => Some((id, start, busy)),
            }
        };
        let mut probe = self.probe(task);
        // Only a kept host that tops its own key can start below the key
        // bounds `max(top_k, 0)` (module doc, round 3). One that misses
        // its own key's bound cannot win outright, so it is left to the
        // walk rather than costing the other keys' builds below.
        let mut best = None;
        for h in 0..probe.scratch.hosts.len() {
            let id = probe.scratch.hosts[h].vm;
            if !level.admits(self, id, itype) || !keep(id) {
                continue;
            }
            let key = probe.key_ready_idx(self.vm_key[id.index()] as usize);
            if key.top_vm == id {
                let start = probe.start_on(id);
                if start < key.top.max(0.0) {
                    best = fold(best, id, start);
                }
            }
        }
        // Strictly below every rented key's bound: no other VM ties or wins.
        let host_wins = best.is_some_and(|(_, start, _)| {
            (0..N_KEYS)
                .filter(|&ki| self.key_rented[ki])
                .all(|ki| start < probe.key_ready_idx(ki).top.max(0.0))
        });
        if host_wins {
            return best.map(|(id, _, _)| id);
        }
        // Each key's unused VMs in pack order, the tie-break's own order.
        // A VM of key k other than `top_vm(k)` starts at or after
        // `B_k = max(top_k, 0)`, and `top_vm(k)`, when it starts below
        // `B_k`, was folded by the host pass. So the first kept VM that
        // starts at or below `B_k` beats every VM of k after it, and the
        // walk leaves the key there; a key none reaches is walked in
        // full. A key is built only once a kept VM is found in it, as a
        // scan over every kept VM builds it.
        if !level.sorted {
            level.sort(self);
        }
        for group in &mut level.groups {
            let ki = usize::from(group.key);
            if itype.is_some_and(|t| t != InstanceType::ALL[ki % N_TYPES]) {
                continue;
            }
            let end = group.end as usize;
            let mut pos = group.cursor as usize;
            while pos < end && level.used[level.order[pos].index()] {
                pos += 1;
            }
            group.cursor = pos as u32;
            for &id in &level.order[pos..end] {
                if level.used[id.index()] || !keep(id) {
                    continue;
                }
                #[cfg(test)]
                {
                    level.starts_computed += 1;
                }
                let start = probe.fast_start_at(id.index());
                best = fold(best, id, start);
                let bound = probe.key_ready_idx(ki).top.max(0.0);
                if start.total_cmp(&bound).is_le() {
                    break;
                }
            }
        }
        best.map(|(id, _, _)| id)
    }

    /// Number of tasks still unplaced.
    #[must_use]
    pub fn unplaced_count(&self) -> usize {
        self.placements.iter().filter(|p| p.is_none()).count()
    }

    /// Freeze into a [`Schedule`].
    ///
    /// # Panics
    /// Panics if any task is still unplaced.
    #[must_use]
    pub fn build(self, strategy: impl Into<String>) -> Schedule {
        if let Some(c) = &self.counters {
            c.schedules.inc();
        }
        let placements: Vec<TaskPlacement> = self
            .placements
            .iter()
            .enumerate()
            .map(|(i, p)| p.unwrap_or_else(|| panic!("task t{i} never placed")))
            .collect();
        Schedule {
            strategy: strategy.into(),
            vms: self.vms,
            placements,
        }
    }
}

/// The fleet as one level of the AllPar policies sees it: the VMs
/// rented before the level began, which of them the level has used, and
/// the unused ones grouped by (region, type) key, each key in *pack
/// order* (busy time descending, then id ascending). A VM rented after
/// [`LevelIndex::begin`] counts as used: the level rented it for one of
/// its own tasks. Inside a level only the VMs it uses change, so the
/// order stays valid until the next `begin`; a per-key cursor skips the
/// used prefix. [`ScheduleBuilder::earliest_start_vm_in_level`] walks
/// it, and sorts it the first time a pick in the level gets past the
/// host-first bound, so a level whose picks its hosts win pays no sort.
/// One index serves a whole schedule and allocates nothing once the
/// fleet stops growing.
#[derive(Debug, Clone, Default)]
pub struct LevelIndex {
    /// `used[vm]` for the VMs rented before `begin`.
    used: Vec<bool>,
    /// Whether `order` and `groups` index the current level.
    sorted: bool,
    /// The VMs unused when the level was sorted, grouped by key code
    /// (ascending), each group in pack order.
    order: Vec<VmId>,
    /// One entry per key that holds a VM in `order`.
    groups: Vec<KeyGroup>,
    /// Starts the walk has computed, for the test that pins where it
    /// stops.
    #[cfg(test)]
    starts_computed: usize,
}

/// One key's run of [`LevelIndex::order`].
#[derive(Debug, Clone, Copy)]
struct KeyGroup {
    /// The key code.
    key: u16,
    /// Every VM of the run before this position in `order` is used.
    cursor: u32,
    /// End of the run in `order`.
    end: u32,
}

impl LevelIndex {
    /// An empty index; call [`Self::begin`] at each level's start.
    #[must_use]
    pub fn new() -> Self {
        LevelIndex::default()
    }

    /// Start a level over the VMs `sb` has rented, none of them used.
    pub fn begin(&mut self, sb: &ScheduleBuilder<'_>) {
        self.used.clear();
        self.used.resize(sb.vms.len(), false);
        self.sorted = false;
    }

    /// Record that the level placed a task on `vm`.
    pub fn claim(&mut self, vm: VmId) {
        if let Some(used) = self.used.get_mut(vm.index()) {
            *used = true;
        }
    }

    /// Whether a pick in this level may land on `vm`: unused (neither
    /// claimed nor rented after `begin`), and of type `itype` when one
    /// is given.
    fn admits(&self, sb: &ScheduleBuilder<'_>, vm: VmId, itype: Option<InstanceType>) -> bool {
        self.used.get(vm.index()) == Some(&false)
            && itype.is_none_or(|t| sb.vms[vm.index()].itype == t)
    }

    /// Group the unused VMs by key, each key in pack order. The busy
    /// time of an unused VM has not changed since `begin`, so sorting
    /// mid-level gives the order `begin` would have.
    fn sort(&mut self, sb: &ScheduleBuilder<'_>) {
        self.order.clear();
        self.order.extend(
            (0..self.used.len())
                .filter(|&i| !self.used[i])
                .map(|i| VmId(i as u32)),
        );
        self.order.sort_unstable_by(|a, b| {
            let busy = |id: &VmId| sb.vms[id.index()].busy_seconds();
            sb.vm_key[a.index()]
                .cmp(&sb.vm_key[b.index()])
                .then(busy(b).total_cmp(&busy(a)))
                .then(a.0.cmp(&b.0))
        });
        self.groups.clear();
        for (pos, id) in self.order.iter().enumerate() {
            let key = sb.vm_key[id.index()];
            match self.groups.last_mut() {
                Some(g) if g.key == key => g.end += 1,
                _ => self.groups.push(KeyGroup {
                    key,
                    cursor: pos as u32,
                    end: pos as u32 + 1,
                }),
            }
        }
        self.sorted = true;
    }
}

/// The placed predecessors of a probed task that share one host VM.
#[derive(Debug, Clone, Copy)]
struct HostPreds {
    /// The host.
    vm: VmId,
    /// Its region (immutable once rented), snapshotted to spare the
    /// per-edge VM lookup in [`TaskProbe::key_ready_idx`].
    region: Region,
    /// Its instance type, snapshotted for the same reason.
    itype: InstanceType,
}

/// One predecessor edge of a probed task, flattened so a probe performs
/// exactly three allocations however many hosts its predecessors span.
#[derive(Debug, Clone, Copy)]
struct ProbeEdge {
    /// Index into [`TaskProbe::hosts`].
    host: u32,
    /// Payload of the edge.
    data_mb: f64,
    /// Finish time of the placed predecessor.
    finish: f64,
}

/// Top-2 cross-host ready contributions for one (region, itype) key:
/// enough to answer "max over hosts except the candidate itself" in
/// O(1).
#[derive(Debug, Clone, Copy)]
struct KeyReady {
    /// Largest transfer-adjusted arrival over all hosts.
    top: f64,
    /// The host contributing `top`.
    top_vm: VmId,
    /// Largest arrival over the remaining hosts.
    second: f64,
}

/// Per-task probe answering candidate-VM queries in O(1); see
/// [`ScheduleBuilder::probe`]. Its workspace is taken from the
/// builder's scratch pool at construction and returned on drop, so a
/// strategy's probe loop allocates nothing after the first probe.
#[derive(Debug)]
pub struct TaskProbe<'b, 'a> {
    sb: &'b ScheduleBuilder<'a>,
    task: TaskId,
    scratch: ProbeScratch,
    keys: [Option<KeyReady>; N_KEYS],
}

impl Drop for TaskProbe<'_, '_> {
    fn drop(&mut self) {
        self.sb.scratch.put(std::mem::take(&mut self.scratch));
    }
}

impl TaskProbe<'_, '_> {
    /// The (lazily computed) cross-host reduction for the candidate key
    /// of [`key_idx`] code `ki`, the code a VM's start reads straight
    /// off `vm_key`.
    fn key_ready_idx(&mut self, ki: usize) -> KeyReady {
        if let Some(k) = self.keys[ki] {
            return k;
        }
        let region = Region::ALL[ki / N_TYPES];
        let itype = InstanceType::ALL[ki % N_TYPES];
        let sb = self.sb;
        if let Some(c) = &sb.counters {
            c.key_builds.inc();
        }
        let ProbeScratch {
            hosts,
            edges,
            arrivals,
            ..
        } = &mut self.scratch;
        let n_hosts = hosts.len();
        for a in &mut arrivals[..n_hosts] {
            *a = f64::NEG_INFINITY;
        }
        for e in edges.iter() {
            let h = &hosts[e.host as usize];
            // Same operation order as the naive path: the transfer
            // (bandwidth share + latency) is summed first, then added
            // to the predecessor finish. `f64::max` is exact, so the
            // per-host max is order-independent.
            let transfer = e.data_mb / sb.bw[pair_idx(h.itype, itype)]
                + sb.lat[h.region as usize][region as usize];
            let a = &mut arrivals[e.host as usize];
            *a = a.max(e.finish + transfer);
        }
        let mut top = f64::NEG_INFINITY;
        let mut top_vm = VmId(u32::MAX);
        let mut second = f64::NEG_INFINITY;
        for (h, &arrival) in hosts.iter().zip(arrivals.iter()) {
            if arrival > top {
                second = top;
                top = arrival;
                top_vm = h.vm;
            } else if arrival > second {
                second = arrival;
            }
        }
        let k = KeyReady {
            top,
            top_vm,
            second,
        };
        self.keys[ki] = Some(k);
        k
    }

    /// Epoch-checked local-ready read: NEG_INFINITY when no predecessor
    /// of the probed task is hosted on VM slot `i`.
    #[inline]
    fn local_ready_at(&self, i: usize) -> f64 {
        if self.scratch.local_epoch[i] == self.scratch.epoch {
            self.scratch.local_ready[i]
        } else {
            f64::NEG_INFINITY
        }
    }

    /// Fast-path ready time on VM slot `i`: the cross-host arrival of
    /// its key (the runner-up when the VM itself tops the key), floored
    /// at 0, then the local predecessors. NEG_INFINITY (no local
    /// predecessor) is the identity of the max, matching the "host not
    /// found" case of a scan.
    #[inline]
    fn fast_ready_at(&mut self, i: usize) -> f64 {
        let key = self.key_ready_idx(self.sb.vm_key[i] as usize);
        let cross = if key.top_vm.index() == i {
            key.second
        } else {
            key.top
        };
        cross.max(0.0).max(self.local_ready_at(i))
    }

    /// Fast-path start on VM slot `i` (append policy): [`Self::start_on`]
    /// and the level pick compute every start with these operations.
    #[inline]
    fn fast_start_at(&mut self, i: usize) -> f64 {
        self.fast_ready_at(i).max(self.sb.vm_avail[i])
    }

    /// Ready time of the task on candidate VM `vm` (intra-VM edges cost
    /// zero): the one [`ScheduleBuilder::place_on`] starts it from.
    pub fn ready_on(&mut self, vm: VmId) -> f64 {
        #[cfg(any(test, feature = "naive"))]
        if self.sb.kernel_naive {
            let v = &self.sb.vms[vm.index()];
            return naive::ready_time(self.sb, self.task, Some(vm), v.itype, v.region);
        }
        self.fast_ready_at(vm.index())
    }

    /// Ready time on a *new* VM of `itype` in `region` (every transfer
    /// is paid): the decision time [`ScheduleBuilder::place_on_new_in`]
    /// opens the rental at.
    pub fn ready_fresh(&mut self, itype: InstanceType, region: Region) -> f64 {
        #[cfg(any(test, feature = "naive"))]
        if self.sb.kernel_naive {
            return naive::ready_time(self.sb, self.task, None, itype, region);
        }
        self.key_ready_idx(key_idx(region, itype)).top.max(0.0)
    }

    /// Start time the task would get on `vm` (append policy).
    pub fn start_on(&mut self, vm: VmId) -> f64 {
        #[cfg(any(test, feature = "naive"))]
        if self.sb.kernel_naive {
            let available = self.sb.vms[vm.index()].available_at();
            return self.ready_on(vm).max(available);
        }
        self.fast_start_at(vm.index())
    }

    /// Finish time the task would get on `vm` (append policy).
    pub fn finish_on(&mut self, vm: VmId) -> f64 {
        let itype = self.sb.vms[vm.index()].itype;
        self.start_on(vm) + self.sb.exec_time(self.task, itype)
    }

    /// Earliest start on `vm` under the insertion policy.
    pub fn insertion_start_on(&mut self, vm: VmId) -> f64 {
        #[cfg(any(test, feature = "naive"))]
        if self.sb.kernel_naive {
            return naive::insertion_start_on(self.sb, self.task, vm).0;
        }
        let ready = self.ready_on(vm);
        let duration = self.sb.exec_entry(self.task, self.sb.vms[vm.index()].itype);
        self.sb.insertion_fit(vm, ready, duration).0
    }
}

/// The original (pre-fast-path) probe implementations, kept as the
/// reference kernel: the `fastpath_tests` property suite proves the fast
/// path bit-identical to these, and `cws-bench` (via the `naive`
/// feature) measures the speedup against them in the same process.
///
/// [`naive::set_reference_kernel`] switches a thread to the naive kernel;
/// builders capture the switch at construction time.
#[cfg(any(test, feature = "naive"))]
pub mod naive {
    use super::{ScheduleBuilder, TaskId, VmId};
    use cws_platform::{InstanceType, Region};
    use std::cell::Cell;

    thread_local! {
        static REFERENCE_KERNEL: Cell<bool> = const { Cell::new(false) };
    }

    /// Route all probes of builders constructed *after* this call (on
    /// this thread) through the naive reference kernel.
    pub fn set_reference_kernel(on: bool) {
        REFERENCE_KERNEL.with(|c| c.set(on));
    }

    /// Whether the reference kernel is enabled on this thread.
    #[must_use]
    pub fn reference_kernel_enabled() -> bool {
        REFERENCE_KERNEL.with(|c| c.get())
    }

    pub(super) fn exec_time(sb: &ScheduleBuilder<'_>, task: TaskId, itype: InstanceType) -> f64 {
        itype.execution_time(sb.wf.task(task).base_time)
    }

    pub(super) fn ready_time(
        sb: &ScheduleBuilder<'_>,
        task: TaskId,
        on_vm: Option<VmId>,
        itype: InstanceType,
        region: Region,
    ) -> f64 {
        let mut ready: f64 = 0.0;
        for e in sb.wf.predecessors(task) {
            let p = sb.placements[e.from.index()]
                .unwrap_or_else(|| panic!("predecessor {} of {task} not placed", e.from));
            let from_vm = &sb.vms[p.vm.index()];
            let transfer = if Some(p.vm) == on_vm {
                0.0
            } else {
                sb.platform.transfer_time_between(
                    e.data_mb,
                    (from_vm.region, from_vm.itype),
                    (region, itype),
                )
            };
            ready = ready.max(p.finish + transfer);
        }
        ready
    }

    pub(super) fn start_time_on(sb: &ScheduleBuilder<'_>, task: TaskId, vm: VmId) -> f64 {
        let v = &sb.vms[vm.index()];
        ready_time(sb, task, Some(vm), v.itype, v.region).max(v.available_at())
    }

    pub(super) fn insertion_start_on(
        sb: &ScheduleBuilder<'_>,
        task: TaskId,
        vm: VmId,
    ) -> (f64, usize) {
        let v = &sb.vms[vm.index()];
        let ready = ready_time(sb, task, Some(vm), v.itype, v.region);
        sb.insertion_fit(vm, ready, exec_time(sb, task, v.itype))
    }

    pub(super) fn busiest_vm(sb: &ScheduleBuilder<'_>) -> Option<VmId> {
        let busy = |id: &VmId| sb.vms[id.index()].busy_seconds();
        sb.vm_ids()
            .max_by(|a, b| busy(a).total_cmp(&busy(b)).then(b.0.cmp(&a.0)))
    }

    pub(crate) fn earliest_start_vm_where(
        sb: &ScheduleBuilder<'_>,
        task: TaskId,
        mut keep: impl FnMut(VmId) -> bool,
    ) -> Option<VmId> {
        let busy = |id: VmId| sb.vms[id.index()].busy_seconds();
        sb.vm_ids()
            .filter(|&id| keep(id))
            .map(|id| (id, start_time_on(sb, task, id)))
            .min_by(|&(a, sa), &(b, sb_)| {
                sa.total_cmp(&sb_)
                    .then(busy(b).total_cmp(&busy(a)))
                    .then(a.0.cmp(&b.0))
            })
            .map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_dag::WorkflowBuilder;

    fn chain2() -> Workflow {
        let mut b = WorkflowBuilder::new("chain2");
        let a = b.task("a", 100.0);
        let c = b.task("c", 200.0);
        b.edge(a, c);
        b.build().unwrap()
    }

    #[test]
    fn place_chain_on_one_vm() {
        let wf = chain2();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        let vm = sb.place_on_new(TaskId(0), InstanceType::Small);
        sb.place_on(TaskId(1), vm);
        let s = sb.build("test");
        s.validate(&wf, &p).unwrap();
        assert_eq!(s.makespan(), 300.0);
        assert_eq!(s.vm_count(), 1);
    }

    #[test]
    fn place_chain_on_two_vms_pays_transfer() {
        let mut b = WorkflowBuilder::new("xfer");
        let a = b.task("a", 100.0);
        let c = b.task("c", 200.0);
        b.data_edge(a, c, 1250.0); // 10 s on 1 Gb/s
        let wf = b.build().unwrap();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        sb.place_on_new(TaskId(0), InstanceType::Small);
        sb.place_on_new(TaskId(1), InstanceType::Small);
        let s = sb.build("test");
        s.validate(&wf, &p).unwrap();
        let start1 = s.placement(TaskId(1)).start;
        assert!((start1 - (100.0 + 10.0 + p.network.intra_region_latency_s)).abs() < 1e-9);
    }

    #[test]
    fn faster_instance_shortens_task() {
        let wf = chain2();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        let vm = sb.place_on_new(TaskId(0), InstanceType::XLarge);
        sb.place_on(TaskId(1), vm);
        let s = sb.build("test");
        s.validate(&wf, &p).unwrap();
        assert!((s.makespan() - 300.0 / 2.7).abs() < 1e-9);
    }

    #[test]
    fn busiest_vm_picks_largest_execution() {
        let mut b = WorkflowBuilder::new("par");
        let a = b.task("a", 100.0);
        let c = b.task("c", 500.0);
        let _ = a;
        let _ = c;
        let wf = b.build().unwrap();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        sb.place_on_new(TaskId(0), InstanceType::Small);
        sb.place_on_new(TaskId(1), InstanceType::Small);
        assert_eq!(sb.busiest_vm(), Some(VmId(1)));
    }

    #[test]
    fn busiest_tie_breaks_to_smaller_id() {
        let mut b = WorkflowBuilder::new("tie");
        b.task("a", 100.0);
        b.task("c", 100.0);
        let wf = b.build().unwrap();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        sb.place_on_new(TaskId(0), InstanceType::Small);
        sb.place_on_new(TaskId(1), InstanceType::Small);
        assert_eq!(sb.busiest_vm(), Some(VmId(0)));
    }

    #[test]
    fn fits_on_tracks_btu_consumption() {
        let mut b = WorkflowBuilder::new("fit");
        b.task("big", 3000.0);
        b.task("small", 500.0);
        b.task("tiny", 200.0);
        let wf = b.build().unwrap();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        let vm = sb.place_on_new(TaskId(0), InstanceType::Small);
        assert!(sb.fits_on(TaskId(1), vm)); // 3000 + 500 <= 3600
        assert!(sb.fits_on(TaskId(2), vm)); // 3000 + 200 <= 3600
        sb.place_on(TaskId(1), vm); // now 3500 used
        assert!(!sb.fits_on(TaskId(2), vm)); // 3500 + 200 > 3600
    }

    #[test]
    fn boot_time_delays_first_task() {
        let wf = chain2();
        let p = Platform::ec2_paper().with_boot_time(120.0);
        let mut sb = ScheduleBuilder::new(&wf, &p);
        let vm = sb.place_on_new(TaskId(0), InstanceType::Small);
        sb.place_on(TaskId(1), vm);
        let s = sb.build("test");
        assert_eq!(s.placement(TaskId(0)).start, 120.0);
    }

    #[test]
    #[should_panic(expected = "placed twice")]
    fn double_placement_panics() {
        let wf = chain2();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        let vm = sb.place_on_new(TaskId(0), InstanceType::Small);
        sb.place_on(TaskId(0), vm);
    }

    #[test]
    #[should_panic(expected = "never placed")]
    fn incomplete_build_panics() {
        let wf = chain2();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        sb.place_on_new(TaskId(0), InstanceType::Small);
        let _ = sb.build("test");
    }

    #[test]
    #[should_panic(expected = "not placed")]
    fn ready_time_requires_predecessors_placed() {
        let wf = chain2();
        let p = Platform::ec2_paper();
        let sb = ScheduleBuilder::new(&wf, &p);
        let _ = sb.ready_time(TaskId(1), None, InstanceType::Small, Region::UsEastVirginia);
    }

    #[test]
    fn unplaced_count_decreases() {
        let wf = chain2();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        assert_eq!(sb.unplaced_count(), 2);
        sb.place_on_new(TaskId(0), InstanceType::Small);
        assert_eq!(sb.unplaced_count(), 1);
    }

    /// A diamond whose joins and transfers exercise every probe: the
    /// fast-path answers must match the retained naive implementations
    /// exactly, VM by VM.
    fn diamond() -> Workflow {
        let mut b = WorkflowBuilder::new("diamond");
        let a = b.task("a", 400.0);
        let x = b.task("x", 900.0);
        let y = b.task("y", 700.0);
        let z = b.task("z", 300.0);
        b.data_edge(a, x, 2500.0);
        b.data_edge(a, y, 125.0);
        b.data_edge(x, z, 625.0);
        b.data_edge(y, z, 1250.0);
        b.build().unwrap()
    }

    /// The AllPar pick at the start of a level, on a fresh index.
    fn first_pick_in_level(sb: &ScheduleBuilder<'_>, task: TaskId) -> Option<VmId> {
        let mut level = LevelIndex::new();
        level.begin(sb);
        sb.earliest_start_vm_in_level(task, &mut level, None, |_| true)
    }

    #[test]
    fn fast_probes_match_naive_reference() {
        let wf = diamond();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        sb.place_on_new(TaskId(0), InstanceType::Small);
        sb.place_on_new_in(TaskId(1), InstanceType::Large, Region::EuDublin);
        sb.place_on_new(TaskId(2), InstanceType::Medium);
        let task = TaskId(3);
        let mut probe = sb.probe(task);
        for v in 0..3 {
            let vm = VmId(v);
            let vt = sb.vm(vm).itype;
            let vr = sb.vm(vm).region;
            assert_eq!(
                sb.ready_time(task, Some(vm), vt, vr),
                naive::ready_time(&sb, task, Some(vm), vt, vr),
                "ready on {vm}"
            );
            let start = naive::start_time_on(&sb, task, vm);
            assert_eq!(sb.start_time_on(task, vm), start, "start on {vm}");
            assert_eq!(probe.start_on(vm), start, "probed start on {vm}");
            assert_eq!(
                probe.finish_on(vm),
                start + naive::exec_time(&sb, task, vt),
                "probed finish on {vm}"
            );
            assert_eq!(
                sb.insertion_start_on(task, vm),
                naive::insertion_start_on(&sb, task, vm),
                "insertion on {vm}"
            );
        }
        for it in InstanceType::ALL {
            for r in Region::ALL {
                assert_eq!(
                    sb.ready_time(task, None, it, r),
                    naive::ready_time(&sb, task, None, it, r),
                    "fresh ready for {it:?} in {r:?}"
                );
            }
        }
        drop(probe);
        assert_eq!(sb.busiest_vm(), naive::busiest_vm(&sb));
        assert_eq!(
            first_pick_in_level(&sb, task),
            naive::earliest_start_vm_where(&sb, task, |_| true)
        );
    }

    #[test]
    fn probe_matches_direct_queries() {
        let wf = diamond();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        sb.place_on_new(TaskId(0), InstanceType::Small);
        sb.place_on_new(TaskId(1), InstanceType::Small);
        sb.place_on_new(TaskId(2), InstanceType::XLarge);
        let task = TaskId(3);
        let mut probe = sb.probe(task);
        for v in 0..3 {
            let vm = VmId(v);
            let (vt, vr) = (sb.vm(vm).itype, sb.vm(vm).region);
            assert_eq!(probe.ready_on(vm), sb.ready_time(task, Some(vm), vt, vr));
            let start = sb.start_time_on(task, vm);
            assert_eq!(probe.start_on(vm), start);
            assert_eq!(probe.finish_on(vm), start + sb.exec_time(task, vt));
            assert_eq!(
                probe.insertion_start_on(vm),
                sb.insertion_start_on(task, vm).0
            );
        }
    }

    #[test]
    fn gap_index_tracks_insertions() {
        // Build one VM with a gap, fill it with the insertion policy and
        // verify subsequent insertion probes match the naive rescan.
        let mut b = WorkflowBuilder::new("gaps");
        let a = b.task("a", 100.0);
        let c = b.task("c", 200.0);
        let d = b.task("d", 50.0);
        let e = b.task("e", 40.0);
        b.data_edge(a, c, 12500.0); // 100 s transfer if cross-VM
        let _ = (d, e);
        let wf = b.build().unwrap();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        let v0 = sb.place_on_new(TaskId(0), InstanceType::Small); // [0, 100]
        sb.place_on_new(TaskId(1), InstanceType::Small);
        // c lands on its own VM after the transfer; v0 idles from 100.
        sb.place_on(TaskId(1 + 2), VmId(0)); // d appends at 100 on v0
        let _ = v0;
        // e fits nowhere special; probe both VMs against naive.
        for vm in [VmId(0), VmId(1)] {
            assert_eq!(
                sb.insertion_start_on(TaskId(3), vm),
                naive::insertion_start_on(&sb, TaskId(3), vm)
            );
        }

        // At a 120 s boot a VM has no usable idle before its first task:
        // a runs over [120, 220] on v0, so e, ready at 0, may not fill
        // [0, 120) and goes to the tail, on both kernels alike.
        let p = Platform::ec2_paper().with_boot_time(120.0);
        let run = || {
            let mut sb = ScheduleBuilder::new(&wf, &p);
            let v0 = sb.place_on_new(TaskId(0), InstanceType::Small);
            let v1 = sb.place_on_new(TaskId(1), InstanceType::Small);
            let c = sb.placement(TaskId(1)).unwrap();
            let mut probe = sb.probe(TaskId(3));
            let starts = [v0, v1].map(|vm| probe.insertion_start_on(vm));
            drop(probe);
            assert_eq!(starts, [220.0, c.finish]);
            sb.place_on_inserted(TaskId(3), v0);
            sb.placement(TaskId(3))
        };
        let fast = run();
        assert_eq!(fast.map(|e| e.start), Some(220.0));
        naive::set_reference_kernel(true);
        let reference = run();
        naive::set_reference_kernel(false);
        assert_eq!(fast, reference);
    }

    /// A join whose eight hosts finish together: every VM of the key
    /// reads the same arrival, so all tie at the key's bound, no host
    /// wins outright, and the walk leaves the key at its first VM in pack
    /// order — the one the naive scan's tie-break picks.
    #[test]
    fn level_walk_stops_at_the_first_vm_on_its_bound() {
        let mut b = WorkflowBuilder::new("join");
        let roots: Vec<TaskId> = (0..8).map(|i| b.task(format!("r{i}"), 100.0)).collect();
        let join = b.task("join", 50.0);
        for &r in &roots {
            b.data_edge(r, join, 125.0);
        }
        let wf = b.build().unwrap();
        let p = Platform::ec2_paper();
        let mut sb = ScheduleBuilder::new(&wf, &p);
        for &r in &roots {
            sb.place_on_new(r, InstanceType::Small);
        }
        let mut level = LevelIndex::new();
        level.begin(&sb);
        let pick = sb.earliest_start_vm_in_level(join, &mut level, None, |_| true);
        assert_eq!(pick, naive::earliest_start_vm_where(&sb, join, |_| true));
        assert_eq!(pick, Some(VmId(0)));
        assert_eq!(level.starts_computed, 1);
        // Once the level has used it, the next VM in pack order is the pick.
        level.claim(VmId(0));
        let pick = sb.earliest_start_vm_in_level(join, &mut level, None, |_| true);
        assert_eq!(pick, Some(VmId(1)));
        assert_eq!(level.starts_computed, 2);
    }

    #[test]
    fn reference_kernel_switch_produces_identical_schedules() {
        let wf = diamond();
        let p = Platform::ec2_paper();
        let run = || {
            let mut sb = ScheduleBuilder::new(&wf, &p);
            sb.place_on_new(TaskId(0), InstanceType::Small);
            let vm = first_pick_in_level(&sb, TaskId(1)).expect("one VM");
            sb.place_on(TaskId(1), vm);
            sb.place_on_new(TaskId(2), InstanceType::Medium);
            let vm = sb.busiest_vm().expect("vms exist");
            sb.place_on_inserted(TaskId(3), vm);
            sb.build("probe")
        };
        let fast = run();
        naive::set_reference_kernel(true);
        let reference = run();
        naive::set_reference_kernel(false);
        assert_eq!(fast, reference);
    }
}
