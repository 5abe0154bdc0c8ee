//! Observability regressions: the trace stream must reconcile with the
//! reported schedule metrics, metric counter totals must be identical
//! at any thread count, the kernel's gap-hit counter must fire when
//! the insertion policy actually fills a gap (and stay 0 across the
//! paper's append-only pairings — DESIGN.md §10), and the streaming
//! `trace-report` reducer must round-trip a traced replay back into
//! `ScheduleMetrics` bit-for-bit.
//!
//! The trace sink and the metrics switch are process-global, so every
//! test here serializes on one lock and leaves both disabled on exit.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use cws_core::{ScheduleBuilder, ScheduleMetrics, Strategy};
use cws_dag::WorkflowBuilder;
use cws_experiments::run::{prepare, run_matrix, ExperimentConfig};
use cws_obs as obs;
use cws_obs::metrics::names;
use cws_obs::{RingSink, TraceEvent};
use cws_platform::{InstanceType, Platform};
use cws_workloads::{montage_24, paper_workflows, Scenario};

/// Serializes tests touching the global sink / metrics switch.
static OBS_GUARD: Mutex<()> = Mutex::new(());

fn obs_lock() -> MutexGuard<'static, ()> {
    OBS_GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// Schedule + replay Montage(24) with tracing on and check that the
/// event stream *is* the metrics: makespan, cost, idle time and BTU
/// count recomputed from the trace must equal `ScheduleMetrics`, and
/// the kernel's planned times must match the replay's observed times.
#[test]
fn traced_montage_reconciles_with_metrics() {
    let _g = obs_lock();
    obs::set_metrics_enabled(false);
    let ring = Arc::new(RingSink::new(100_000));
    obs::install_sink(ring.clone());

    let platform = Platform::ec2_paper();
    let wf = Scenario::Pareto { seed: 42 }.apply(&montage_24());
    let strategy = Strategy::parse("AllParExceed-m").expect("paper label");
    let schedule = strategy.schedule(&wf, &platform);
    let _report = cws_sim::simulate(&wf, &platform, &schedule);
    obs::clear_sink();

    let metrics = ScheduleMetrics::of(&schedule, &wf, &platform);
    let events = ring.events();
    assert_eq!(
        ring.recorded() as usize,
        events.len(),
        "ring evicted events; grow its capacity"
    );

    // Kernel plan vs replay observation, event by event.
    let mut planned: BTreeMap<u32, (f64, f64)> = BTreeMap::new();
    let mut started: BTreeMap<u32, f64> = BTreeMap::new();
    let mut finished: BTreeMap<u32, f64> = BTreeMap::new();
    let mut lease_price: BTreeMap<u32, f64> = BTreeMap::new();
    let mut boundaries: BTreeMap<u32, u64> = BTreeMap::new();
    let mut reclaims: BTreeMap<u32, (u64, f64, f64)> = BTreeMap::new();
    for e in &events {
        match e {
            TraceEvent::ProbeDecision {
                task,
                start,
                finish,
                ..
            } => {
                planned.insert(*task, (*start, *finish));
            }
            TraceEvent::TaskStart { task, time, .. } => {
                started.insert(*task, *time);
            }
            TraceEvent::TaskFinish { task, time, .. } => {
                finished.insert(*task, *time);
            }
            TraceEvent::VmLease {
                vm, price_per_btu, ..
            } => {
                lease_price.insert(*vm, *price_per_btu);
            }
            TraceEvent::BtuBoundary { vm, .. } => {
                *boundaries.entry(*vm).or_insert(0) += 1;
            }
            TraceEvent::VmReclaim {
                vm,
                billed_btus,
                busy_s,
                cost_usd,
                ..
            } => {
                reclaims.insert(*vm, (*billed_btus, *busy_s, *cost_usd));
            }
            _ => {}
        }
    }

    assert_eq!(planned.len(), wf.len(), "one placement per task");
    assert_eq!(started.len(), wf.len(), "every task started in replay");
    assert_eq!(finished.len(), wf.len(), "every task finished in replay");
    for (task, (start, finish)) in &planned {
        assert!(
            (started[task] - start).abs() < 1e-6,
            "task {task}: planned start {start} vs replayed {}",
            started[task]
        );
        assert!(
            (finished[task] - finish).abs() < 1e-6,
            "task {task}: planned finish {finish} vs replayed {}",
            finished[task]
        );
    }

    // Makespan = latest task-finish timestamp.
    let max_finish = finished.values().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    assert!(
        (max_finish - metrics.makespan).abs() < 1e-6,
        "trace makespan {max_finish} vs metrics {}",
        metrics.makespan
    );

    // Every leased VM is reclaimed exactly once, priced per its lease.
    assert_eq!(lease_price.len(), reclaims.len(), "lease/reclaim pairing");
    let mut cost = 0.0;
    let mut idle = 0.0;
    let mut btus = 0u64;
    for (vm, (billed, busy, cost_usd)) in &reclaims {
        let price = lease_price[vm];
        assert!(
            (cost_usd - *billed as f64 * price).abs() < 1e-9,
            "vm {vm}: reclaim cost {cost_usd} vs {billed} BTUs at {price}"
        );
        assert_eq!(
            boundaries.get(vm).copied().unwrap_or(0),
            billed - 1,
            "vm {vm}: one btu-boundary crossing per extra billed BTU"
        );
        cost += cost_usd;
        idle += *billed as f64 * 3600.0 - busy;
        btus += billed;
    }
    assert!(
        (cost - metrics.cost).abs() < 1e-6,
        "trace cost {cost} vs metrics {}",
        metrics.cost
    );
    assert!(
        (idle - metrics.idle_seconds).abs() < 1e-6,
        "trace idle {idle} vs metrics {}",
        metrics.idle_seconds
    );
    assert_eq!(btus, metrics.btus, "trace BTUs vs metrics");
}

/// The full paper matrix with metrics enabled: the rendered results
/// *and* the merged counter totals must be identical for 1 and 8
/// worker threads (counters are integer atomics — commutative, exact).
#[test]
fn matrix_metric_totals_are_identical_across_thread_counts() {
    let _g = obs_lock();
    obs::clear_sink();
    let cfg = ExperimentConfig {
        validate_with_sim: false,
        ..ExperimentConfig::default()
    };
    let scenario = Scenario::Pareto { seed: cfg.seed };
    let prepared: Vec<_> = paper_workflows()
        .iter()
        .map(|wf| prepare(&cfg, cfg.materialize(wf, scenario)))
        .collect();
    let strategies = Strategy::paper_set();
    let registry = obs::MetricsRegistry::global();

    obs::set_metrics_enabled(true);
    registry.reset();
    let one = run_matrix(&cfg, &prepared, &strategies, 1);
    let snap_one = registry.snapshot();
    registry.reset();
    let eight = run_matrix(&cfg, &prepared, &strategies, 8);
    let snap_eight = registry.snapshot();
    obs::set_metrics_enabled(false);

    assert_eq!(format!("{one:?}"), format!("{eight:?}"));
    // Counters must agree exactly; gauges are last-write-wins and may
    // legitimately hold a different cell's final value per interleaving.
    assert_eq!(snap_one.counters, snap_eight.counters);
    assert!(
        snap_one.counter(names::KERNEL_PLACEMENTS) > 0,
        "the matrix must actually exercise the kernel counters"
    );
    assert_eq!(
        snap_one.counter(names::KERNEL_SCHEDULES),
        snap_eight.counter(names::KERNEL_SCHEDULES)
    );
}

/// Pin the cross-schedule table-reuse accounting on a Fig. 4-style
/// sweep: [`prepare`] builds one `KernelTables` set per
/// `(workflow, platform)` key and its baseline schedule is the first
/// use, so every later borrow — all 19 matrix cells per workload — is
/// a reuse hit. The invariant the counter documents:
/// `kernel.table_reuse_hits == kernel.schedules_built − distinct keys`.
#[test]
fn table_reuse_hits_equal_schedules_minus_distinct_keys() {
    let _g = obs_lock();
    obs::clear_sink();
    let registry = obs::MetricsRegistry::global();
    obs::set_metrics_enabled(true);
    registry.reset();

    let cfg = ExperimentConfig {
        validate_with_sim: false,
        ..ExperimentConfig::default()
    };
    let scenario = Scenario::Pareto { seed: cfg.seed };
    let prepared: Vec<_> = paper_workflows()
        .iter()
        .map(|wf| prepare(&cfg, cfg.materialize(wf, scenario)))
        .collect();
    let _ = run_matrix(&cfg, &prepared, &Strategy::paper_set(), 1);
    obs::set_metrics_enabled(false);

    let snap = registry.snapshot();
    let distinct_keys = prepared.len() as u64; // one table set per workload
    assert_eq!(
        snap.counter(names::KERNEL_TABLE_REUSE),
        snap.counter(names::KERNEL_SCHEDULES) - distinct_keys,
        "every schedule after a key's first must borrow its tables"
    );
    // Concretely: 4 workloads × (1 baseline + 19 cells) = 80 schedules,
    // of which the 4 baselines are first uses.
    assert_eq!(snap.counter(names::KERNEL_SCHEDULES), 80);
    assert_eq!(snap.counter(names::KERNEL_TABLE_REUSE), 76);
}

/// Filling a real idle gap through the insertion policy must increment
/// `kernel.gap_index_hits` (the 19 paper pairings never insert, so the
/// bench profile legitimately reports 0 — this pins the counter's
/// behaviour where insertion actually happens).
#[test]
fn insertion_into_an_idle_gap_counts_a_gap_hit() {
    let _g = obs_lock();
    obs::clear_sink();
    let registry = obs::MetricsRegistry::global();
    obs::set_metrics_enabled(true);
    registry.reset();

    // a:[0,100] on v0; b:[0,900] on v1; c waits for b's 100 s transfer
    // and appends on v0 at 1000 — leaving v0 idle over [100, 1000].
    let mut b = WorkflowBuilder::new("gapped");
    let a = b.task("a", 100.0);
    let bb = b.task("b", 900.0);
    let c = b.task("c", 100.0);
    let d = b.task("d", 50.0);
    b.data_edge(bb, c, 12500.0);
    let _ = (a, d);
    let wf = b.build().unwrap();
    let platform = Platform::ec2_paper();

    let mut sb = ScheduleBuilder::new(&wf, &platform);
    let v0 = sb.place_on_new(a, InstanceType::Small);
    sb.place_on_new(bb, InstanceType::Small);
    sb.place_on(c, v0);
    sb.place_on_inserted(d, v0); // lands at 100, inside the gap
    let schedule = sb.build("gap-hit");
    obs::set_metrics_enabled(false);

    assert!(
        schedule.placement(d).start < schedule.placement(c).start,
        "d must have been inserted before c, not appended"
    );
    let snap = registry.snapshot();
    assert_eq!(snap.counter(names::KERNEL_GAP_HITS), 1);
    assert_eq!(snap.counter(names::KERNEL_PLACEMENTS), 4);
    assert_eq!(snap.counter(names::KERNEL_SCHEDULES), 1);
}

/// Pin the dead pairing set (DESIGN.md §10): all 19 paper pairings
/// build append-only schedules, so `kernel.gap_index_hits` must be
/// exactly 0 across the whole set — any future change that makes a
/// paper strategy insert into an idle gap must update DESIGN.md and the
/// committed bench profile deliberately, not by accident. Also pins
/// the probe-latency histogram's determinism contract: exactly one
/// sample per probe.
#[test]
fn paper_pairings_never_hit_the_gap_index() {
    let _g = obs_lock();
    obs::clear_sink();
    let registry = obs::MetricsRegistry::global();
    obs::set_metrics_enabled(true);
    registry.reset();

    let platform = Platform::ec2_paper();
    let wf = Scenario::Pareto { seed: 42 }.apply(&montage_24());
    for s in Strategy::paper_set() {
        let _ = s.schedule(&wf, &platform);
    }
    obs::set_metrics_enabled(false);

    let snap = registry.snapshot();
    assert_eq!(
        snap.counter(names::KERNEL_GAP_HITS),
        0,
        "a paper pairing landed a placement in an idle gap — the \
         append-only dead-pairing set of DESIGN.md §10 changed"
    );
    assert!(snap.counter(names::KERNEL_PLACEMENTS) > 0);
    let h = snap
        .histograms
        .get(names::KERNEL_PROBE_LATENCY)
        .expect("probe-latency histogram is registered and snapshotted");
    assert_eq!(
        h.count,
        snap.counter(names::KERNEL_PROBES),
        "one latency sample per probe"
    );
}

/// Cross-crate consistency: the reducer's [`cws_obs::report::btus_for_span`]
/// mirror (cws-obs cannot depend on cws-platform) must agree with
/// `cws_platform::billing::btus_for_span` everywhere, including the
/// epsilon edge cases and the spans too long to count, which both
/// saturate.
#[test]
fn btu_policy_matches_platform_billing() {
    use cws_obs::report as mirror;
    use cws_platform::billing::{btus_for_span, BTU_EPSILON, BTU_SECONDS};
    assert_eq!(mirror::BTU_SECONDS, BTU_SECONDS);
    assert_eq!(mirror::BTU_EPSILON, BTU_EPSILON);
    let mut spans = vec![0.0, 1e-9, 1.0, 3599.0, 7200.5, 1e7];
    spans.extend([7e22, 1e300, f64::MAX, f64::INFINITY]);
    for k in 1..=5u32 {
        let edge = f64::from(k) * BTU_SECONDS;
        spans.extend([edge - 1e-3, edge - 1e-7, edge, edge + 1e-7, edge + 1e-3]);
    }
    for span in spans {
        assert_eq!(
            mirror::btus_for_span(span),
            btus_for_span(span),
            "the reducer's BTU count diverges from platform billing at span {span}"
        );
    }
}

/// Busy time landing exactly on a BTU multiple is the emitter's edge
/// case: billing's epsilon keeps a 3600.0 s span inside one BTU, so no
/// boundary crossing may be emitted for it (and a 7200.0 s span emits
/// exactly one). The regression this pins: the old emitter compared
/// `k·BTU <= busy` without the epsilon and emitted a spurious crossing
/// the reducer could never reconcile with `billed − 1`.
#[test]
fn exact_btu_spans_emit_no_spurious_boundary() {
    let _g = obs_lock();
    obs::set_metrics_enabled(false);
    let platform = Platform::ec2_paper();
    // Small's speed-up is exactly 1.0, so reference runtimes are busy
    // seconds: one task of exactly 1 BTU, one of exactly 2.
    let mut b = WorkflowBuilder::new("exact-btu");
    let one = b.task("one-btu", 3600.0);
    let two = b.task("two-btu", 7200.0);
    let wf = b.build().unwrap();

    let ring = Arc::new(RingSink::new(1_000));
    obs::install_sink(ring.clone());
    let mut sb = ScheduleBuilder::new(&wf, &platform);
    let v0 = sb.place_on_new(one, InstanceType::Small);
    let v1 = sb.place_on_new(two, InstanceType::Small);
    let schedule = sb.build("exact-btu");
    let _ = cws_sim::simulate(&wf, &platform, &schedule);
    obs::clear_sink();

    let mut boundaries: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    let mut billed: BTreeMap<u32, u64> = BTreeMap::new();
    for e in ring.events() {
        match e {
            TraceEvent::BtuBoundary { vm, btu, .. } => {
                boundaries.entry(vm).or_default().push(btu);
            }
            TraceEvent::VmReclaim {
                vm, billed_btus, ..
            } => {
                billed.insert(vm, billed_btus);
            }
            _ => {}
        }
    }
    assert_eq!(billed[&v0.0], 1, "3600.0 s bills one BTU");
    assert_eq!(billed[&v1.0], 2, "7200.0 s bills two BTUs");
    assert!(
        !boundaries.contains_key(&v0.0),
        "exactly-one-BTU busy must not emit a boundary crossing: {boundaries:?}"
    );
    assert_eq!(
        boundaries.get(&v1.0),
        Some(&vec![1]),
        "exactly-two-BTU busy emits the single crossing into BTU 2"
    );

    // And the reducer agrees end to end: billed == crossings + 1.
    let mut reducer = cws_obs::report::TraceReducer::new();
    for e in ring.events() {
        reducer.feed_line(&e.to_json());
    }
    let report = reducer.finish();
    assert!(report.violations().is_empty(), "{:?}", report.violations());
    assert_eq!(report.segments[0].billed_btus, 3);
}

/// The round-trip property behind `cws-exp trace-report --check`:
/// trace a schedule's build + replay, reduce the JSONL with the
/// streaming reducer, and the recomputed per-VM busy seconds, BTU
/// billing, cost and makespan must equal `ScheduleMetrics` — bit for
/// bit, not within a tolerance — across seeds {7, 42, 1337}. The
/// matrix results the gauges come from are themselves identical at 1
/// vs 8 worker threads, so the reconciliation is thread-count-proof.
#[test]
fn trace_report_round_trips_schedule_metrics_exactly() {
    let _g = obs_lock();
    obs::set_metrics_enabled(false);
    let platform = Platform::ec2_paper();
    let strategies = Strategy::paper_set();
    for seed in [7u64, 42, 1337] {
        let scenario = Scenario::Pareto { seed };
        let wf = scenario.apply(&montage_24());
        let strategy = Strategy::parse("AllParExceed-m").expect("paper label");

        let ring = Arc::new(RingSink::new(100_000));
        obs::install_sink(ring.clone());
        let schedule = strategy.schedule(&wf, &platform);
        let _ = cws_sim::simulate(&wf, &platform, &schedule);
        obs::clear_sink();
        let metrics = ScheduleMetrics::of(&schedule, &wf, &platform);

        // Reduce through the same JSONL path `trace-report` uses.
        let mut reducer = cws_obs::report::TraceReducer::new();
        for e in ring.events() {
            reducer.feed_line(&e.to_json());
        }
        let report = reducer.finish();
        assert!(report.parse_errors.is_empty(), "{:?}", report.parse_errors);
        assert_eq!(report.segments.len(), 1, "one schedule, one segment");
        let seg = &report.segments[0];
        assert!(
            seg.violations.is_empty(),
            "seed {seed}: {:?}",
            seg.violations
        );
        assert!(seg.replayed);

        assert_eq!(
            seg.plan_makespan_s.to_bits(),
            metrics.makespan.to_bits(),
            "seed {seed}: reduced makespan must be bit-exact"
        );
        assert_eq!(
            seg.plan_cost_usd.to_bits(),
            metrics.cost.to_bits(),
            "seed {seed}: reduced cost must be bit-exact"
        );
        assert_eq!(seg.billed_btus, metrics.btus, "seed {seed}");
        assert!(
            (seg.idle_s - metrics.idle_seconds).abs() < 1e-9,
            "seed {seed}: idle {} vs metrics {}",
            seg.idle_s,
            metrics.idle_seconds
        );
        for (i, vm) in schedule.vms.iter().enumerate() {
            let v = &seg.vms[i];
            assert_eq!(
                v.plan_busy_s.to_bits(),
                vm.meter.busy.to_bits(),
                "seed {seed}: vm{i} busy accumulation must replay exactly"
            );
            let (_, billed, _, _) = v.reclaim.expect("replayed VM was reclaimed");
            assert_eq!(billed, cws_platform::billing::btus_for_span(vm.meter.busy));
        }

        // Thread-count-proof: the matrix producing the manifest gauges
        // renders identically at 1 and 8 workers for this seed.
        let cfg = ExperimentConfig {
            seed,
            validate_with_sim: false,
            ..ExperimentConfig::default()
        };
        let prepared = [prepare(&cfg, cfg.materialize(&montage_24(), scenario))];
        let one = run_matrix(&cfg, &prepared, &strategies, 1);
        let eight = run_matrix(&cfg, &prepared, &strategies, 8);
        assert_eq!(format!("{one:?}"), format!("{eight:?}"), "seed {seed}");
    }
}
