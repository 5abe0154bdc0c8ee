//! `cws-bench` — fixed-workload perf baseline for the scheduling kernel.
//!
//! Runs the four paper workflows (Montage, CSTEM, MapReduce, Sequential)
//! plus 1000-task and 10000-task random layered DAGs and the
//! 10 103-task pipeline-shaped `epigenomics-50x50` through all 19
//! paper pairings, first on the fast kernel (shared exec/transfer
//! tables, pooled probe scratch and level index, see
//! `cws_core::state`) and then on the naive reference kernel
//! (`cws_core::state::naive`, compiled in via the `naive` feature), and
//! writes wall-clock seconds, schedules/sec and the fast-vs-naive
//! speedup to `BENCH_kernel.json`. The fast pass lends one
//! `KernelTables` set per workload to all of its schedules, exactly as
//! `cws-experiments`' matrix runner does.
//!
//! Both passes accumulate a makespan checksum that must match exactly —
//! the equivalence claim the property tests make is re-proven on every
//! bench run, on the real workloads being timed. The run **fails (exit
//! 1)** if any workload's fast-vs-naive speedup drops below 1.0×, so a
//! fast-path regression on any size class turns CI red instead of
//! shipping silently.
//!
//! Each row also carries `replay_s`: the time `cws_sim::verify` takes
//! to replay the row's fast schedules and check them against their
//! plans, which every sim-verified sweep pays on top of scheduling.
//!
//! After the timed passes (which run with observability disabled, so
//! the numbers stay comparable across revisions), one *untimed*
//! instrumented pass schedules and replays every workload with the
//! `cws-obs` counters on — probes, key-ready builds, gap hits,
//! placements, simulator events — and embeds the snapshot in
//! `BENCH_kernel.json`, with a `RunManifest` written as
//! `<out>.manifest.json` beside it.
//!
//! `--check` writes nothing. It compares that counter profile with the
//! `metrics.counters` of the report already at `--out` (by default the
//! committed `BENCH_kernel.json`) and **fails (exit 1)** on any counter
//! whose name or value differs. The pass runs each workload once
//! whatever the mode, so `--quick --check` checks the full run's
//! profile; a change that alters the scheduling work must regenerate
//! the report.
//!
//! ```text
//! cws-bench [--quick] [--check] [--out PATH]
//! cws-bench --service [--quick] [--out PATH]
//! ```
//!
//! `--service` benchmarks the service engine instead: the sharded
//! streaming `cws_serve::run_sharded_service` against the single-loop
//! reference engine `cws_service::run_service` it is tested against,
//! on the light scaling profile (one UniformBag(4) tenant, immediate
//! reclaim) at 10³, 10⁴ and 10⁵ submissions. It asserts byte-identical
//! full reports before writing tenants/sec per engine to
//! `BENCH_service.json` (with the same manifest-sibling convention).

use cws_core::state::naive;
use cws_core::{KernelTables, Schedule, Strategy};
use cws_dag::Workflow;
use cws_platform::Platform;
use cws_workloads::random::{layered_dag, LayeredShape};
use cws_workloads::{epigenomics, paper_workflows, DataSizeModel, EpigenomicsShape, Scenario};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::Instant;

struct WorkloadReport {
    name: String,
    tasks: usize,
    fast_s: f64,
    naive_s: f64,
    replay_s: f64,
    schedules: usize,
}

impl WorkloadReport {
    fn speedup(&self) -> f64 {
        self.naive_s / self.fast_s
    }
    fn to_json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"tasks\":{},\"schedules\":{},\"fast_s\":{},\"naive_s\":{},\
             \"replay_s\":{},\"fast_schedules_per_s\":{},\"naive_schedules_per_s\":{},\"speedup\":{}}}",
            self.name,
            self.tasks,
            self.schedules,
            self.fast_s,
            self.naive_s,
            self.replay_s,
            self.schedules as f64 / self.fast_s,
            self.schedules as f64 / self.naive_s,
            self.speedup()
        )
    }
}

/// Time `reps` full 19-pairing sweeps over `wf`, returning wall-clock
/// seconds and a makespan checksum for cross-kernel comparison.
///
/// The fast pass lends shared [`KernelTables`] to every schedule; the
/// timing therefore includes the (amortised) table build, as a real
/// sweep's does. The naive pass gets `None` — the reference kernel
/// ignores offered tables by design.
fn sweep(
    wf: &Workflow,
    platform: &Platform,
    strategies: &[Strategy],
    reps: usize,
    share_tables: bool,
) -> (f64, f64) {
    let mut checksum = 0.0;
    let start = Instant::now();
    let tables = share_tables.then(|| KernelTables::build(wf, platform));
    for _ in 0..reps {
        for s in strategies {
            checksum += s.schedule_with(wf, platform, tables.as_ref()).makespan();
        }
    }
    (start.elapsed().as_secs_f64(), checksum)
}

/// The fast kernel's schedule for every strategy, on shared tables.
fn plans(wf: &Workflow, platform: &Platform, strategies: &[Strategy]) -> Vec<Schedule> {
    let tables = KernelTables::build(wf, platform);
    strategies
        .iter()
        .map(|s| s.schedule_with(wf, platform, Some(&tables)))
        .collect()
}

/// Time `reps` rounds of `cws_sim::verify` over every plan in `plans`.
///
/// # Panics
/// Panics if a replay diverges from its plan.
fn replay(wf: &Workflow, platform: &Platform, plans: &[Schedule], reps: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        for plan in plans {
            cws_sim::verify(wf, platform, plan, 1e-6)
                .unwrap_or_else(|e| panic!("{}: replay diverged from its plan: {e}", wf.name()));
        }
    }
    start.elapsed().as_secs_f64()
}

fn usage() -> ! {
    eprintln!("usage: cws-bench [--service] [--quick] [--check] [--out PATH]");
    std::process::exit(2);
}

/// The counters of the report at `path`, or exit 1 if it cannot be read.
fn committed_counters(path: &PathBuf) -> BTreeMap<String, u64> {
    let read = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|doc| cws_obs::MetricsSnapshot::from_json(&doc));
    match read {
        Ok(snapshot) => snapshot.counters,
        Err(e) => {
            eprintln!(
                "FAIL cannot read the counter profile of {}: {e}",
                path.display()
            );
            std::process::exit(1);
        }
    }
}

/// Every counter whose name or value differs between the two profiles,
/// as `name: committed -> measured` lines (`-` for an absent counter).
fn counter_drift(
    committed: &BTreeMap<String, u64>,
    measured: &BTreeMap<String, u64>,
) -> Vec<String> {
    let show = |v: Option<&u64>| v.map_or_else(|| "-".to_string(), u64::to_string);
    committed
        .keys()
        .chain(measured.keys())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .filter(|name| committed.get(*name) != measured.get(*name))
        .map(|name| {
            format!(
                "{name}: {} -> {}",
                show(committed.get(name)),
                show(measured.get(name))
            )
        })
        .collect()
}

/// One scale point of the service-engine benchmark.
struct ServiceRow {
    target: usize,
    tenants: usize,
    legacy_s: f64,
    sharded_s: f64,
}

impl ServiceRow {
    fn to_json(&self) -> String {
        format!(
            "{{\"target_tenants\":{},\"tenants\":{},\"legacy_s\":{},\"sharded_s\":{},\
             \"legacy_tenants_per_s\":{},\"sharded_tenants_per_s\":{},\"speedup\":{}}}",
            self.target,
            self.tenants,
            self.legacy_s,
            self.sharded_s,
            self.tenants as f64 / self.legacy_s,
            self.tenants as f64 / self.sharded_s,
            self.legacy_s / self.sharded_s
        )
    }
}

/// `cws-bench --service`: sharded service-engine throughput against the
/// reference engine on the light scaling profile, with the
/// byte-identity contract re-proven at every scale before anything is
/// timed into the report.
fn service_bench(quick: bool, out: &PathBuf) {
    use cws_service::{ArrivalModel, ReclaimPolicy, ServiceConfig, TenantSpec, WorkloadKind};

    const RATE_PER_HOUR: f64 = 50_000.0;
    const SHARDS: usize = 4;
    const THREADS: usize = 4;

    let platform = Platform::ec2_paper();
    let scales: &[usize] = if quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };

    let mut rows = Vec::new();
    for &target in scales {
        let cfg = ServiceConfig {
            alloc: cws_core::StaticAlloc::HeftStartParExceed,
            itype: cws_platform::InstanceType::Small,
            reclaim: ReclaimPolicy::Immediate,
            boot_time_s: 0.0,
            tenants: vec![TenantSpec {
                name: "batch".to_string(),
                kind: WorkloadKind::UniformBag(4),
                rate_per_hour: RATE_PER_HOUR,
            }],
            model: ArrivalModel::Poisson {
                horizon_s: target as f64 / RATE_PER_HOUR * 3600.0,
            },
            seed: 42,
        };
        let start = Instant::now();
        let legacy = cws_service::run_service(&platform, &cfg);
        let legacy_s = start.elapsed().as_secs_f64();

        let scfg = cws_serve::ShardedConfig {
            service: cfg,
            shards: SHARDS,
            threads: THREADS,
            epoch: 64,
        };
        let start = Instant::now();
        let sharded = cws_serve::run_sharded_service(&platform, &scfg);
        let sharded_s = start.elapsed().as_secs_f64();

        assert_eq!(
            legacy.to_json(),
            sharded.to_json(),
            "engines diverged at {target} submissions"
        );
        let row = ServiceRow {
            target,
            tenants: legacy.fleet.workflows,
            legacy_s,
            sharded_s,
        };
        println!(
            "{:>7} tenants  legacy {:>8.3}s ({:>9.0}/s)  sharded {:>8.3}s ({:>9.0}/s)  {:>6.2}x",
            row.tenants,
            row.legacy_s,
            row.tenants as f64 / row.legacy_s,
            row.sharded_s,
            row.tenants as f64 / row.sharded_s,
            row.legacy_s / row.sharded_s
        );
        rows.push(row);
    }

    let json = format!(
        "{{\n  \"bench\": \"service\",\n  \"quick\": {},\n  \
         \"profile\": \"light: 1 tenant, UniformBag(4), immediate reclaim, {RATE_PER_HOUR} arrivals/hour\",\n  \
         \"sharded\": {{\"shards\":{SHARDS},\"threads\":{THREADS}}},\n  \"scales\": [\n    {}\n  ]\n}}\n",
        quick,
        rows.iter()
            .map(ServiceRow::to_json)
            .collect::<Vec<_>>()
            .join(",\n    "),
    );
    std::fs::write(out, json).unwrap_or_else(|e| panic!("write {}: {e}", out.display()));

    let mut manifest = cws_obs::RunManifest::new("cws-bench");
    manifest.command = std::env::args().skip(1).collect();
    manifest.seed = 42;
    manifest.threads = THREADS;
    manifest.set_platform_fingerprint(format!("{platform:?}").as_bytes());
    manifest.policies = vec!["StartParExceed-s".to_string()];
    manifest.workloads = vec!["ubot4".to_string()];
    manifest
        .write_sibling(out)
        .unwrap_or_else(|e| panic!("write manifest for {}: {e}", out.display()));
    println!("wrote {} (+ manifest)", out.display());
}

fn main() {
    let mut quick = false;
    let mut check = false;
    let mut service = false;
    let mut out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            "--service" => service = true,
            "--out" => out = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            _ => usage(),
        }
    }
    if service {
        if check {
            usage();
        }
        let out = out.unwrap_or_else(|| PathBuf::from("BENCH_service.json"));
        service_bench(quick, &out);
        return;
    }
    let out = out.unwrap_or_else(|| PathBuf::from("BENCH_kernel.json"));
    let committed = check.then(|| committed_counters(&out));
    let reps = if quick { 1 } else { 3 };

    let platform = Platform::ec2_paper();
    let strategies = Strategy::paper_set();
    let scenario = Scenario::Pareto { seed: 42 };

    // (workflow, reps): the 10k-task DAGs always run at 1 rep — each
    // naive sweep alone is tens of seconds, and one rep is plenty of
    // signal at that size — so full-mode runtime stays bounded. The
    // paper workflows sit at the other extreme: a 19-pairing sweep over
    // ~24 tasks takes well under a millisecond, where timer noise alone
    // can read as a phantom 0.9x "regression" against the ≥1.0x gate,
    // so they run 200x more reps to push each timed window past ~10ms.
    let mut workloads: Vec<(Workflow, usize)> = paper_workflows()
        .iter()
        .map(|wf| {
            let wf = scenario.apply(&DataSizeModel::CpuIntensive.apply(wf));
            let reps = if wf.len() < 100 { reps * 200 } else { reps };
            (wf, reps)
        })
        .collect();
    workloads.push((
        scenario.apply(&layered_dag(LayeredShape {
            levels: 10,
            min_width: 100,
            max_width: 100,
            edge_prob: 0.3,
            seed: 42,
        })),
        reps,
    ));
    workloads.push((
        scenario.apply(&layered_dag(LayeredShape {
            levels: 20,
            min_width: 500,
            max_width: 500,
            edge_prob: 0.05,
            seed: 42,
        })),
        1,
    ));
    // Pipeline-shaped: each stage's one parent host is where AllPar's
    // VM choice usually lands, unlike the layered DAGs' many-host joins.
    workloads.push((
        scenario.apply(&epigenomics(EpigenomicsShape {
            lanes: 50,
            chunks_per_lane: 50,
        })),
        1,
    ));

    let mut reports = Vec::new();
    for (wf, wf_reps) in &workloads {
        // All but the 10k-task DAGs take the min over three interleaved
        // sweep pairs: their windows are short enough that one
        // scheduler hiccup on either side can fake a ±10% swing, and
        // the minimum is the standard least-interference estimate. A
        // 10k-task naive sweep times tens of seconds, where a single
        // pair is stable (and three would triple the run).
        let attempts = if wf.len() < 5000 { 3 } else { 1 };
        let plans = plans(wf, &platform, &strategies);
        let mut fast_s = f64::INFINITY;
        let mut naive_s = f64::INFINITY;
        let mut replay_s = f64::INFINITY;
        for _ in 0..attempts {
            let (fast, fast_sum) = sweep(wf, &platform, &strategies, *wf_reps, true);
            naive::set_reference_kernel(true);
            let (naive, naive_sum) = sweep(wf, &platform, &strategies, *wf_reps, false);
            naive::set_reference_kernel(false);
            assert_eq!(
                fast_sum,
                naive_sum,
                "{}: fast kernel diverged from the naive reference",
                wf.name()
            );
            fast_s = fast_s.min(fast);
            naive_s = naive_s.min(naive);
            replay_s = replay_s.min(replay(wf, &platform, &plans, *wf_reps));
        }
        let r = WorkloadReport {
            name: wf.name().to_string(),
            tasks: wf.len(),
            fast_s,
            naive_s,
            replay_s,
            schedules: strategies.len() * wf_reps,
        };
        println!(
            "{:<24} {:>5} tasks  fast {:>8.3}s  naive {:>8.3}s  {:>6.2}x  ({:.0} schedules/s)  replay {:>7.3}s",
            r.name,
            r.tasks,
            r.fast_s,
            r.naive_s,
            r.speedup(),
            r.schedules as f64 / r.fast_s,
            r.replay_s
        );
        reports.push(r);
    }

    let fast_total: f64 = reports.iter().map(|r| r.fast_s).sum();
    let naive_total: f64 = reports.iter().map(|r| r.naive_s).sum();
    println!(
        "overall: fast {fast_total:.3}s, naive {naive_total:.3}s, speedup {:.2}x",
        naive_total / fast_total
    );

    // Per-workload floor: the fast kernel must never lose to the naive
    // reference, on any size class. A regression here (like the 0.88x
    // cstem of the first raw-speed round) fails the bench run — and the
    // CI job running it — rather than shipping silently.
    let slow: Vec<&WorkloadReport> = reports.iter().filter(|r| r.speedup() < 1.0).collect();
    if !slow.is_empty() {
        for r in &slow {
            eprintln!(
                "FAIL {}: fast kernel slower than naive ({:.4}x < 1.0x)",
                r.name,
                r.speedup()
            );
        }
        std::process::exit(1);
    }

    // Untimed instrumented pass: one sweep and replay of every workload
    // with the cws-obs counters on, so the report carries the work
    // profile (probe/key-build/placement counts, simulator events)
    // without perturbing the timings above.
    cws_obs::MetricsRegistry::global().reset();
    cws_obs::set_metrics_enabled(true);
    for (wf, _) in &workloads {
        replay(wf, &platform, &plans(wf, &platform, &strategies), 1);
    }
    cws_obs::set_metrics_enabled(false);
    let mut snapshot = cws_obs::MetricsRegistry::global().snapshot();
    // The committed BENCH_kernel.json is a deterministic counter
    // profile; probe-latency histograms are wall-clock samples that
    // would churn the artifact on every machine, so drop them before
    // embedding.
    snapshot.histograms.clear();

    if let Some(committed) = committed {
        let drift = counter_drift(&committed, &snapshot.counters);
        if !drift.is_empty() {
            for line in &drift {
                eprintln!("FAIL counter drift against {}: {line}", out.display());
            }
            std::process::exit(1);
        }
        println!(
            "counter profile matches {} ({} counters)",
            out.display(),
            committed.len()
        );
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"kernel\",\n  \"quick\": {},\n  \"reps\": {},\n  \"pairings\": {},\n  \
         \"workloads\": [\n    {}\n  ],\n  \"overall\": {{\"fast_s\":{},\"naive_s\":{},\"speedup\":{}}},\n  \
         \"metrics\": {}\n}}\n",
        quick,
        reps,
        strategies.len(),
        reports
            .iter()
            .map(WorkloadReport::to_json)
            .collect::<Vec<_>>()
            .join(",\n    "),
        fast_total,
        naive_total,
        naive_total / fast_total,
        snapshot.to_json()
    );
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("write {}: {e}", out.display()));

    let mut manifest = cws_obs::RunManifest::new("cws-bench");
    manifest.command = std::env::args().skip(1).collect();
    manifest.seed = 42;
    manifest.threads = 1;
    manifest.set_platform_fingerprint(format!("{platform:?}").as_bytes());
    manifest.policies = strategies.iter().map(Strategy::label).collect();
    manifest.workloads = workloads
        .iter()
        .map(|(w, _)| w.name().to_string())
        .collect();
    manifest.metrics = snapshot;
    manifest
        .write_sibling(&out)
        .unwrap_or_else(|e| panic!("write manifest for {}: {e}", out.display()));
    println!("wrote {} (+ manifest)", out.display());
}
