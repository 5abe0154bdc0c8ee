//! `cws-exp` — regenerate the paper's figures and tables from the
//! command line.
//!
//! The synopsis is the usage text `usage()` prints on a missing or
//! malformed argument; its command list is `ALL_COMMANDS`, the
//! artifact commands `cws-exp all` runs in order.
//!
//! Without `--out` the selected artifact prints to stdout in the chosen
//! format (default: ascii). With `--out DIR` every produced table is
//! also written to `DIR` as both `.csv` and `.dat`.
//!
//! Observability (see the `cws-obs` crate and `EXPERIMENTS.md`):
//! `--trace FILE` streams structured scheduler/simulator events to
//! `FILE` as JSONL; `--metrics` collects the global counter/gauge
//! registry and prints its snapshot to stderr at exit; `--manifest`
//! writes a `<artifact>.manifest.json` provenance file next to every
//! artifact produced under `--out` (and next to the trace file itself).
//!
//! `serve` runs the multi-tenant service engine (`cws-serve`)
//! directly: one batch run of a synthetic tenant profile,
//! or — with `--listen ADDR` — a long-lived daemon accepting JSON-lines
//! workflow submissions over a unix or TCP socket (see EXPERIMENTS.md
//! for the wire format). Batch runs respect `--trace`, `--metrics`,
//! `--manifest` and `--out`; recorded service traces reconcile under
//! `trace-report --check` against the `service.fleet_*` gauges.
//!
//! `trace-report FILE` folds a recorded trace back into per-VM billing
//! and utilisation summaries in one streaming pass (`--json` for
//! machine-readable output). With `--check` it also loads the trace's
//! `.manifest.json` sibling, recomputes cost and makespan from the
//! events, and exits non-zero unless they match the manifest's
//! `run.cost_usd` / `run.makespan_s` gauges exactly — record the trace
//! with `--threads 1 --metrics --manifest` for this to be meaningful.
//!
//! The interchange commands work with `cws-dag` JSON workflow documents
//! (normative spec: `docs/interchange.md`): `sweep --workflow FILE`
//! runs all 19 paper pairings over the document's DAG **as given** (its
//! `runtime_s` values are the measured runtimes — no scenario is
//! applied); `validate FILE` parses and validates a document, printing
//! a structural summary (exit 0) or the precise error path (exit 1);
//! `import FILE` converts a WfCommons/WorkflowHub trace to the
//! interchange format on stdout; `export NAME` renders a named
//! generator workflow (`montage-24`, `epigenomics-8x12`,
//! `cybershake-1000`, …) as an interchange document. `--workflow FILE`
//! is also accepted by `fig4`/`fig5` to run their panel over an
//! imported trace instead of the four paper workflows.

use cws_experiments::report::Table;
use cws_experiments::{
    ablation, boundaries, characterize, corent, data_intensive, energy, failures, fig3, fig4, fig5,
    fleet, frontier, robustness, sensitivity, service_sweep, spot, summary, table3, table4, table5,
    tables, trace_sweep, ExperimentConfig,
};
use cws_obs as obs;
use cws_serve::{
    run_sharded_service, run_sharded_summary, Daemon, ServeCore, ServeOptions, ShardedConfig,
};
use cws_service::{ArrivalModel, ReclaimPolicy, ServiceConfig, TenantSpec, WorkloadKind};
use cws_workloads::{montage_24, Scenario};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Every artifact file written this run, for `--manifest` siblings.
static ARTIFACTS: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());

fn note_artifact(path: PathBuf) {
    ARTIFACTS.lock().expect("artifact list poisoned").push(path);
}

/// Spot-market parameters of this run, if any command priced spot
/// instances — stamped into the manifest's `spot_market` field.
static SPOT_MARKET: Mutex<Option<String>> = Mutex::new(None);

fn note_spot_market(market: cws_platform::SpotMarket) {
    *SPOT_MARKET.lock().expect("spot market poisoned") = Some(format!(
        "fraction={},hazard={}",
        market.price_fraction, market.hourly_interruption_prob
    ));
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Ascii,
    Csv,
    Gnuplot,
}

struct Args {
    command: String,
    seed: u64,
    out: Option<PathBuf>,
    format: Format,
    threads: usize,
    json: bool,
    trace: Option<PathBuf>,
    metrics: bool,
    manifest: bool,
    /// Positional input file (`trace-report` only).
    input: Option<PathBuf>,
    /// `trace-report --check`: reconcile against the manifest sibling.
    check: bool,
    /// `serve`: warm-pool shard count.
    shards: usize,
    /// `serve`: report mode (`full` or `summary`).
    report: String,
    /// `serve`: Poisson horizon in hours for the batch profiles.
    hours: f64,
    /// `serve`: swap the paper tenant mix for a single light tenant
    /// (UniformBag(4), 50 000 arrivals/hour) — the memory-ceiling and
    /// throughput-scaling profile.
    light: bool,
    /// `serve`: daemon mode — accept JSON-lines submissions on this
    /// unix-socket path (contains `/`) or TCP address.
    listen: Option<String>,
    /// Interchange workflow document for `sweep` / `fig4` / `fig5`.
    workflow: Option<PathBuf>,
}

/// The artifact commands, in the order `cws-exp all` runs them.
const ALL_COMMANDS: [&str; 23] = [
    "prices",
    "catalog",
    "fig3",
    "fig4",
    "fig5",
    "table3",
    "table4",
    "table5",
    "corent",
    "frontier",
    "ablation",
    "boundaries",
    "grid",
    "workloads",
    "fleet",
    "sensitivity",
    "robustness",
    "failures",
    "spot",
    "energy",
    "data",
    "service",
    "summary",
];

fn usage() -> ! {
    eprintln!(
        "usage: cws-exp <{}|gantt|all> \
         [--seed N] [--out DIR] [--format ascii|csv|gnuplot] [--threads N] [--json] \
         [--trace FILE] [--metrics] [--manifest]\n       \
         cws-exp serve [--shards N] [--report full|summary] \
         [--hours H] [--light] [--listen ADDR] [common flags]\n       \
         cws-exp trace-report FILE [--json] [--check]\n       \
         cws-exp sweep --workflow FILE.json [--threads N] [common flags]\n       \
         cws-exp validate FILE.json\n       \
         cws-exp import WFCOMMONS.json [--out DIR]\n       \
         cws-exp export NAME [--out DIR]",
        ALL_COMMANDS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else { usage() };
    let mut parsed = Args {
        command,
        seed: 42,
        out: None,
        format: Format::Ascii,
        threads: 4,
        json: false,
        trace: None,
        metrics: false,
        manifest: false,
        input: None,
        check: false,
        shards: 1,
        report: "full".to_string(),
        hours: 2.0,
        light: false,
        listen: None,
        workflow: None,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => parsed.check = true,
            "--seed" => {
                parsed.seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                parsed.out = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())));
            }
            "--format" => {
                parsed.format = match args.next().as_deref() {
                    Some("ascii") => Format::Ascii,
                    Some("csv") => Format::Csv,
                    Some("gnuplot") => Format::Gnuplot,
                    _ => usage(),
                };
            }
            "--threads" => {
                parsed.threads = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--json" => parsed.json = true,
            "--shards" => {
                parsed.shards = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--report" => {
                parsed.report = match args.next().as_deref() {
                    Some(m @ ("full" | "summary")) => m.to_string(),
                    _ => usage(),
                };
            }
            "--hours" => {
                parsed.hours = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|h: &f64| h.is_finite() && *h > 0.0)
                    .unwrap_or_else(|| usage());
            }
            "--light" => parsed.light = true,
            "--listen" => {
                parsed.listen = Some(args.next().unwrap_or_else(|| usage()));
            }
            "--trace" => {
                parsed.trace = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())));
            }
            "--metrics" => parsed.metrics = true,
            "--manifest" => parsed.manifest = true,
            "--workflow" => {
                parsed.workflow = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())));
            }
            other
                if matches!(
                    parsed.command.as_str(),
                    "trace-report" | "validate" | "import" | "export"
                ) && !other.starts_with('-')
                    && parsed.input.is_none() =>
            {
                parsed.input = Some(PathBuf::from(other));
            }
            _ => usage(),
        }
    }
    parsed
}

/// `cws-exp trace-report FILE [--json] [--check]`: stream-reduce a
/// JSONL trace into per-VM billing/utilisation summaries; with
/// `--check`, reconcile the recomputed cost/makespan against the
/// trace's `.manifest.json` sibling. Returns the process exit code.
fn run_trace_report(args: &Args) -> i32 {
    use std::io::BufRead as _;
    let Some(path) = &args.input else {
        eprintln!("trace-report: missing trace FILE argument");
        return 2;
    };
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("trace-report: open {}: {e}", path.display());
            return 2;
        }
    };
    // One buffered pass; the reducer's memory is bounded by schedule
    // size (VMs + tasks), not trace length.
    let mut reducer = obs::report::TraceReducer::new();
    for line in std::io::BufReader::new(file).lines() {
        match line {
            Ok(l) => reducer.feed_line(&l),
            Err(e) => {
                eprintln!("trace-report: read {}: {e}", path.display());
                return 2;
            }
        }
    }
    let report = reducer.finish();

    let manifest_path = obs::RunManifest::sibling_path(path);
    let manifest = std::fs::read_to_string(&manifest_path)
        .ok()
        .and_then(|doc| obs::MetricsSnapshot::from_json(&doc).ok());

    if args.json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.to_text());
        if let Some(m) = &manifest {
            let hists = obs::report::histogram_summaries(m);
            if !hists.is_empty() {
                println!("published histograms ({}):", manifest_path.display());
                print!("{hists}");
            }
        }
    }

    if !args.check {
        return 0;
    }
    let Some(m) = &manifest else {
        eprintln!(
            "trace-report --check: no readable manifest at {} \
             (record the trace with --metrics --manifest)",
            manifest_path.display()
        );
        return 1;
    };
    let failures = obs::report::check(&report, m);
    if failures.is_empty() {
        eprintln!(
            "trace-report --check: OK — trace and manifest agree \
             ({} events, {} segments)",
            report.events,
            report.segments.len()
        );
        0
    } else {
        for f in &failures {
            eprintln!("trace-report --check: FAIL: {f}");
        }
        1
    }
}

/// `cws-exp validate FILE.json`: parse and validate an interchange
/// document. Prints a structural summary and exits 0 when valid; the
/// precise error path and exits 1 when invalid; exits 2 on usage/IO
/// problems. The CI `interchange` job gates on these exit codes.
fn run_validate(args: &Args) -> i32 {
    let Some(path) = &args.input else {
        eprintln!("validate: missing workflow FILE argument");
        return 2;
    };
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("validate: read {}: {e}", path.display());
            return 2;
        }
    };
    match cws_dag::interchange::validate(&src) {
        Ok(s) => {
            println!(
                "{}: valid cws-dag v{} — {} tasks, {} edges, depth {}, \
                 {:.1} s total work, {:.1} MB on edges",
                s.name, s.version, s.tasks, s.edges, s.depth, s.total_work_s, s.total_data_mb
            );
            0
        }
        Err(e) => {
            eprintln!("{}: invalid — {e}", path.display());
            1
        }
    }
}

/// `cws-exp import WFCOMMONS.json [--out DIR]`: convert a WfCommons /
/// WorkflowHub trace document into the `cws-dag` interchange format.
/// The document prints to stdout; with `--out DIR` it is also written
/// to `DIR/<workflow-name>.json`. Exit 0 on success, 1 on a rejected
/// trace, 2 on usage/IO problems.
fn run_import(args: &Args) -> i32 {
    let Some(path) = &args.input else {
        eprintln!("import: missing WfCommons FILE argument");
        return 2;
    };
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("import: read {}: {e}", path.display());
            return 2;
        }
    };
    let wf = match cws_workloads::import_wfcommons(&src) {
        Ok(wf) => wf,
        Err(e) => {
            eprintln!("import: {}: {e}", path.display());
            return 1;
        }
    };
    let json = wf.to_json();
    println!("{json}");
    eprintln!(
        "import: {} — {} tasks, {} edges, depth {}",
        wf.name(),
        wf.len(),
        wf.edge_count(),
        wf.depth()
    );
    if let Some(dir) = &args.out {
        let out = write_artifact(dir, &format!("{}.json", wf.name()), &format!("{json}\n"));
        eprintln!("import: wrote {}", out.display());
    }
    0
}

/// `cws-exp export NAME [--out DIR]`: render a generator workflow as an
/// interchange document (stdout; with `--out DIR` also
/// `DIR/<name>.json`). Names are the generator catalogue of
/// `cws_workloads::named_workflow` — `montage-24`, `cstem`,
/// `epigenomics-8x12`, `cybershake-1000`, `layered-10x100`, … Exit 0
/// on success, 1 for an unknown name, 2 on usage problems.
fn run_export(args: &Args) -> i32 {
    let Some(name) = args.input.as_ref().and_then(|p| p.to_str()) else {
        eprintln!("export: missing workflow NAME argument");
        return 2;
    };
    let Some(wf) = cws_workloads::named_workflow(name) else {
        eprintln!(
            "export: unknown workflow {name:?} (try montage-24, cstem, mapreduce-8x8x4, \
             sequential-N, montage-PxO, epigenomics-LxC, cybershake-N, ligo-GxB, layered-LxW)"
        );
        return 1;
    };
    let json = wf.to_json();
    println!("{json}");
    if let Some(dir) = &args.out {
        let out = write_artifact(dir, &format!("{}.json", wf.name()), &format!("{json}\n"));
        eprintln!("export: wrote {}", out.display());
    }
    0
}

/// Load the `--workflow FILE.json` interchange document for `sweep` /
/// `fig4` / `fig5`, exiting with the `validate` exit codes on failure.
fn load_workflow(args: &Args) -> cws_dag::Workflow {
    let Some(path) = &args.workflow else {
        eprintln!("{}: missing --workflow FILE.json", args.command);
        std::process::exit(2);
    };
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{}: read {}: {e}", args.command, path.display());
            std::process::exit(2);
        }
    };
    match cws_dag::Workflow::from_json(&src) {
        Ok(wf) => wf,
        Err(e) => {
            eprintln!("{}: {}: {e}", args.command, path.display());
            std::process::exit(1);
        }
    }
}

/// Tenant mix for `cws-exp serve` batch runs: the paper profile (three
/// tenants, 120 s boot, BTU-boundary reclaim) or the `--light` scaling
/// profile (one UniformBag(4) tenant at 50 000 arrivals/hour, zero
/// boot, immediate reclaim so the warm set stays empty and machine
/// lifetimes are bounded) used by the memory-ceiling script and the
/// service throughput benchmark.
fn serve_profile(args: &Args) -> ServiceConfig {
    let horizon_s = args.hours * 3600.0;
    let (boot_time_s, reclaim, tenants) = if args.light {
        (
            0.0,
            ReclaimPolicy::Immediate,
            vec![TenantSpec {
                name: "batch".to_string(),
                kind: WorkloadKind::UniformBag(4),
                rate_per_hour: 50_000.0,
            }],
        )
    } else {
        (
            120.0,
            ReclaimPolicy::AtBtuBoundary,
            vec![
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
        )
    };
    ServiceConfig {
        alloc: cws_core::StaticAlloc::HeftStartParExceed,
        itype: cws_platform::InstanceType::Small,
        reclaim,
        boot_time_s,
        tenants,
        model: ArrivalModel::Poisson { horizon_s },
        seed: args.seed,
    }
}

/// `cws-exp serve`: the service engine from the command line — either
/// one batch run of a synthetic profile (full or summary report) or a long-lived daemon (`--listen ADDR`) taking
/// JSON-lines submissions over a unix or TCP socket. Batch runs print
/// the report JSON to stdout, publish the `service.fleet_*` gauges
/// under `--metrics` (what `trace-report --check` reconciles a service
/// trace against) and end with a `peak_rss_kib=N` line on stderr.
fn run_serve(args: &Args, platform: &cws_platform::Platform) {
    if let Some(addr) = &args.listen {
        let daemon = Daemon::bind(addr).expect("bind listen address");
        let mut core = ServeCore::new(
            platform,
            ServeOptions {
                shards: args.shards,
                seed: args.seed,
                ..ServeOptions::default()
            },
        );
        daemon.run(&mut core).expect("serve daemon");
        println!("{}", core.report().to_json());
        return;
    }

    let scfg = ShardedConfig {
        service: serve_profile(args),
        shards: args.shards,
        threads: args.threads,
        epoch: 64,
    };
    let (fleet, json) = if args.report == "summary" {
        let r = run_sharded_summary(platform, &scfg);
        (r.fleet.clone(), r.to_json())
    } else {
        let r = run_sharded_service(platform, &scfg);
        (r.fleet.clone(), r.to_json())
    };

    // Fleet gauges are what make a service trace checkable:
    // `trace-report --check` recomputes all three from the PoolLease /
    // PoolReclaim stream and demands exact equality.
    if obs::metrics_enabled() {
        let reg = obs::MetricsRegistry::global();
        reg.gauge(obs::metrics::names::SERVICE_FLEET_COST_USD)
            .set(fleet.cost_usd);
        reg.gauge(obs::metrics::names::SERVICE_FLEET_VMS)
            .set(fleet.vms as f64);
        reg.gauge(obs::metrics::names::SERVICE_FLEET_BTUS)
            .set(fleet.billed_btus as f64);
    }

    println!("{json}");
    if let Some(dir) = &args.out {
        write_artifact(dir, "serve_report.json", &json);
    }
    // Peak RSS of the whole process (linux: VmHWM), for the
    // constant-memory ceiling check in tools/mem_ceiling.sh.
    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        if let Some(kib) = status.lines().find_map(|l| {
            l.strip_prefix("VmHWM:")?
                .split_whitespace()
                .next()?
                .parse::<u64>()
                .ok()
        }) {
            eprintln!("peak_rss_kib={kib}");
        }
    }
}

fn emit(table: &Table, name: &str, args: &Args) {
    match args.format {
        Format::Ascii => println!("{}", table.to_ascii()),
        Format::Csv => println!("{}", table.to_csv()),
        Format::Gnuplot => println!("{}", table.to_gnuplot()),
    }
    if let Some(dir) = &args.out {
        write_artifact(dir, &format!("{name}.csv"), &table.to_csv());
        write_artifact(dir, &format!("{name}.dat"), &table.to_gnuplot());
    }
}

/// Emit one `<prefix>_<workflow>` table per paper workflow.
fn emit_per_workflow(prefix: &str, args: &Args, table: impl Fn(&cws_dag::Workflow) -> Table) {
    for wf in cws_workloads::paper_workflows() {
        let name = format!("{prefix}_{}", wf.name().replace('-', "_"));
        emit(&table(&wf), &name, args);
    }
}

/// Write one artifact file into `dir` (created if missing) and note it
/// for `--manifest`. Returns the written path.
fn write_artifact(dir: &Path, file: &str, contents: &str) -> PathBuf {
    std::fs::create_dir_all(dir).expect("create output directory");
    let path = dir.join(file);
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    note_artifact(path.clone());
    path
}

fn main() {
    let args = parse_args();
    match args.command.as_str() {
        "trace-report" => std::process::exit(run_trace_report(&args)),
        "validate" => std::process::exit(run_validate(&args)),
        "import" => std::process::exit(run_import(&args)),
        "export" => std::process::exit(run_export(&args)),
        _ => {}
    }
    if let Some(path) = &args.trace {
        let sink = obs::JsonlSink::create(path).expect("create trace file");
        obs::install_sink(std::sync::Arc::new(sink));
    }
    if args.metrics {
        obs::MetricsRegistry::global().reset();
        obs::set_metrics_enabled(true);
    }
    let config = ExperimentConfig {
        seed: args.seed,
        ..ExperimentConfig::default()
    };
    // Drivers that replay their own plans, or only aggregate them, skip
    // the per-schedule simulator cross-check.
    let quiet = ExperimentConfig {
        validate_with_sim: false,
        ..config.clone()
    };

    let run_one = |cmd: &str, args: &Args| match cmd {
        "fig3" => {
            let t = fig3::fig3(config.seed, 10_000).to_table();
            emit(&t, "fig3_pareto_cdf", args);
        }
        "sweep" => {
            // All 19 paper pairings over one interchange document,
            // as given (no scenario; document runtimes are the truth).
            let wf = load_workflow(args);
            let sweep = trace_sweep::trace_sweep(&config, &wf, args.threads);
            let name = format!("sweep_{}", sweep.workflow.replace(['-', '.'], "_"));
            emit(&sweep.to_table(), &name, args);
        }
        "fig4" => {
            let panels = if args.workflow.is_some() {
                // One panel over the imported trace, as given: reuse
                // the trace-sweep matrix and project the fig4 axes.
                let sweep = trace_sweep::trace_sweep(&config, &load_workflow(args), args.threads);
                vec![fig4::Fig4Panel::new(&sweep.workflow, sweep.results)]
            } else {
                fig4::fig4_threaded(&config, args.threads)
            };
            for panel in panels {
                let name = format!("fig4_{}", panel.workflow.replace('-', "_"));
                emit(&panel.to_table(), &name, args);
                if let Some(dir) = &args.out {
                    let script = tables::fig4_gnuplot_script(&panel.workflow);
                    write_artifact(dir, &format!("{name}.gp"), &script);
                }
            }
        }
        "fig5" => {
            let panels = if args.workflow.is_some() {
                let sweep = trace_sweep::trace_sweep(&config, &load_workflow(args), args.threads);
                vec![fig5::Fig5Panel::new(&sweep.workflow, sweep.results)]
            } else {
                fig5::fig5_threaded(&config, args.threads)
            };
            for panel in panels {
                let name = format!("fig5_{}", panel.workflow.replace('-', "_"));
                emit(&panel.to_table(), &name, args);
            }
        }
        "table3" => {
            let cells = table3::table3_threaded(&config, args.threads);
            emit(&table3::table3_report(&cells), "table3", args);
        }
        "table4" => {
            let rows = table4::table4_threaded(&config, args.threads);
            emit(&table4::table4_report(&rows), "table4", args);
        }
        "table5" => {
            let rows = table5::table5_threaded(&config, args.threads);
            emit(&table5::table5_report(&rows), "table5", args);
        }
        "corent" => {
            let wf = montage_24();
            let entries = corent::corent(&config, &wf, Scenario::Pareto { seed: config.seed }, 0.3);
            emit(
                &corent::corent_report("montage-24", &entries),
                "corent_montage",
                args,
            );
        }
        "frontier" => {
            for panel in frontier::frontier(&quiet) {
                let name = format!("frontier_{}", panel.workflow.replace('-', "_"));
                emit(&panel.to_table(), &name, args);
            }
        }
        "grid" => {
            // The full 4x3x19 grid through the parallel grid runner.
            let workflows = cws_workloads::paper_workflows();
            let scenarios = quiet.scenarios();
            let strategies = cws_core::Strategy::paper_set();
            let cells = cws_experiments::sweep::run_grid(
                &quiet,
                &workflows,
                &scenarios,
                &strategies,
                args.threads,
            );
            let mut t = Table::new(
                "Full grid — every (workflow, scenario, strategy) cell",
                &[
                    "workflow",
                    "scenario",
                    "strategy",
                    "makespan_s",
                    "cost_usd",
                    "idle_s",
                    "vms",
                    "gain_pct",
                    "loss_pct",
                ],
            );
            for c in cells {
                t.row(vec![
                    c.workflow,
                    c.scenario,
                    c.result.label,
                    format!("{:.0}", c.result.metrics.makespan),
                    format!("{:.3}", c.result.metrics.cost),
                    format!("{:.0}", c.result.metrics.idle_seconds),
                    c.result.metrics.vm_count.to_string(),
                    format!("{:.1}", c.result.relative.gain_pct),
                    format!("{:.1}", c.result.relative.loss_pct),
                ]);
            }
            emit(&t, "full_grid", args);
        }
        "boundaries" => {
            let structure = boundaries::structure_sweep(&quiet, 6, &[1, 2, 4, 8, 16]);
            emit(
                &boundaries::boundaries_report(
                    "Boundaries — structure (layered width)",
                    &structure,
                ),
                "boundaries_structure",
                args,
            );
            let het = boundaries::heterogeneity_sweep(&quiet, &[1.1, 1.3, 2.0, 3.0, 5.0, 10.0]);
            emit(
                &boundaries::boundaries_report(
                    "Boundaries — runtime heterogeneity (Pareto alpha)",
                    &het,
                ),
                "boundaries_heterogeneity",
                args,
            );
        }
        "gantt" => {
            // ASCII Gantt of a handful of representative plans.
            let wf = Scenario::Pareto { seed: config.seed }
                .apply(&cws_workloads::DataSizeModel::CpuIntensive.apply(&montage_24()));
            for label in [
                "OneVMperTask-s",
                "StartParExceed-s",
                "AllParExceed-m",
                "AllPar1LnSDyn",
            ] {
                let s = cws_core::Strategy::parse(label)
                    .expect("known label")
                    .schedule(&wf, &config.platform);
                println!("{}", cws_core::gantt::render(&wf, &s, 100));
            }
        }
        "fleet" => emit_per_workflow("fleet", args, |wf| {
            fleet::fleet_report(wf.name(), &fleet::fleet(&quiet, wf))
        }),
        "workloads" => {
            let profiles = characterize::characterize_all();
            emit(
                &characterize::characterize_report(&profiles),
                "workload_profiles",
                args,
            );
        }
        "failures" => {
            emit_per_workflow("failures", args, |wf| {
                let rows = failures::failure_domains(&quiet, wf, 0.5);
                failures::failure_report(wf.name(), 0.5, &rows)
            });
            let market = cws_platform::SpotMarket::default();
            let wf = montage_24();
            let rows = failures::spot_economics(&quiet, &wf, market, 50);
            emit(
                &failures::spot_report("montage-24", market, &rows),
                "spot_montage",
                args,
            );
        }
        "spot" => {
            // The realized spot frontier: all 19 paper pairings plus
            // the checkpoint-aware SpotHEFT planner, replayed under
            // sampled evictions. `spot_frontier` replays each plan
            // itself, so the sim cross-check stays off here (a second
            // replay would double the trace's event stream).
            let market = cws_platform::SpotMarket::default();
            note_spot_market(market);
            let rows = spot::spot_frontier(&quiet, &montage_24(), market, args.threads);
            emit(
                &spot::spot_frontier_report("montage-24", market, &rows),
                "spot_vs_ondemand",
                args,
            );
        }
        "energy" => emit_per_workflow("energy", args, |wf| {
            let rows = energy::energy_accounting(&quiet, wf, cws_platform::EnergyModel::default());
            energy::energy_report(wf.name(), &rows)
        }),
        "data" => emit_per_workflow("data", args, |wf| {
            data_intensive::data_report(&data_intensive::data_intensive_panel(&quiet, wf))
        }),
        "summary" => {
            let md = summary::markdown_report(&quiet);
            println!("{md}");
            if let Some(dir) = &args.out {
                write_artifact(dir, "reproduction_report.md", &md);
            }
        }
        "service" => {
            // The online multi-tenant sweep (cws-service): Poisson
            // arrivals against a shared warm-VM pool. The JSON is
            // byte-identical for a fixed seed at any --threads value.
            let report = service_sweep::service_sweep(&config.platform, config.seed, args.threads);
            if args.json {
                println!("{}", report.to_json());
            } else {
                emit(
                    &service_sweep::service_report(&report),
                    "service_sweep",
                    args,
                );
            }
            if let Some(dir) = &args.out {
                write_artifact(dir, "service_sweep.json", &report.to_json());
            }
        }
        "serve" => run_serve(args, &config.platform),
        "catalog" => emit(&tables::table1(), "table1_catalog", args),
        "prices" => emit(&tables::table2(), "table2_prices", args),
        "ablation" => {
            let wf = montage_24();
            let scale = ablation::task_scale_ablation(
                &quiet,
                &wf,
                &["AllParExceed-s", "StartParExceed-s", "AllParExceed-m"],
                &[0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0],
            );
            emit(&ablation::scale_report(&scale), "ablation_scale", args);
            let budget = ablation::budget_ablation(&quiet, &wf, &[1.0, 1.5, 2.0, 3.0, 4.0, 8.0]);
            emit(&ablation::budget_report(&budget), "ablation_budget", args);
            let tol = ablation::tolerance_ablation(&quiet, &[0.0, 2.0, 5.0, 10.0, 20.0, 50.0]);
            emit(
                &ablation::tolerance_report(&tol),
                "ablation_tolerance",
                args,
            );
        }
        "sensitivity" => {
            let seeds: Vec<u64> = (0..20).map(|i| config.seed.wrapping_add(i)).collect();
            emit_per_workflow("sensitivity", args, |wf| {
                let rows = sensitivity::seed_sensitivity(&quiet, wf, &seeds);
                sensitivity::sensitivity_report(wf.name(), &rows)
            });
        }
        "robustness" => {
            let jitter = cws_sim::JitterModel::new(0.2, config.seed);
            emit_per_workflow("robustness", args, |wf| {
                let rows = robustness::strategy_robustness(&quiet, wf, jitter, 25);
                robustness::robustness_report(wf.name(), 0.2, &rows)
            });
        }
        _ => usage(),
    };

    if args.command == "all" {
        for cmd in ALL_COMMANDS {
            run_one(cmd, &args);
        }
    } else {
        run_one(&args.command, &args);
    }

    if let Some(path) = &args.trace {
        obs::flush();
        obs::clear_sink();
        // The trace is an artifact too: give it a manifest sibling so
        // `trace-report --check` can reconcile events against the
        // run's final gauges.
        note_artifact(path.clone());
    }
    let snapshot = args.metrics.then(|| {
        let s = obs::MetricsRegistry::global().snapshot();
        eprintln!("{}", s.to_json());
        s
    });
    if args.manifest {
        let mut base = obs::RunManifest::new("cws-exp");
        base.command = std::env::args().skip(1).collect();
        base.seed = args.seed;
        base.threads = args.threads;
        base.set_platform_fingerprint(format!("{:?}", config.platform).as_bytes());
        base.policies = cws_core::Strategy::paper_set()
            .iter()
            .map(cws_core::Strategy::label)
            .collect();
        base.spot_market = SPOT_MARKET.lock().expect("spot market poisoned").clone();
        if base.spot_market.is_some() {
            base.policies.extend(
                cws_platform::InstanceType::ALL
                    .iter()
                    .map(|it| format!("SpotHEFT-{}", it.suffix())),
            );
        }
        base.workloads = cws_workloads::paper_workflows()
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        if let Some(s) = snapshot {
            base.metrics = s;
        }
        let artifacts = ARTIFACTS.lock().expect("artifact list poisoned");
        for artifact in artifacts.iter() {
            let mut m = base.clone();
            m.write_sibling(artifact).expect("write run manifest");
        }
        if artifacts.is_empty() {
            eprintln!("cws-exp: --manifest had no artifacts to annotate (use --out DIR)");
        }
    }
}
