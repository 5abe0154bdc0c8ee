//! `paper`: the figures users regenerate with `cws-exp fig4`, `fig5`
//! and `spot` — four tiny paper DAGs, 19 pairings each, plus the
//! montage-24 spot frontier. Fixed per-schedule costs dominate here:
//! realization, kernel tables, validation, simulator replay, spot
//! replay, billing and rendering.

use crate::replica;
use crate::trace::{Layer, Tracer};
use crate::{Workload, THREADS};
use cws_core::alloc::spot_heft_with;
use cws_core::{KernelTables, ScheduleMetrics, Strategy};
use cws_experiments::fig4::{self, Fig4Panel, Fig4Point};
use cws_experiments::fig5::{self, Fig5Bar, Fig5Panel};
use cws_experiments::spot::{self, SpotFrontierRow};
use cws_experiments::{ExperimentConfig, StrategyResult};
use cws_platform::{InstanceType, SpotMarket};
use cws_sim::replay_spot;
use cws_workloads::{montage_24, paper_workflows, Scenario};

/// Units rotate over this many consecutive seeds (`seed`, `seed + 1`,
/// …): one Pareto draw of four small DAGs moves the unit's cost by a
/// few percent, and the rotation averages that out of every run. Odd,
/// so the traced run's alternating spans-on and spans-off units both
/// visit every seed.
const ROTATION: u64 = 17;

macro_rules! committed {
    ($($stem:literal),*) => {
        [$(($stem, include_str!(concat!("../../results/", $stem, ".csv")))),*]
    };
}

/// The committed fig4/fig5 artifacts; the `--seed 42` unit must
/// reproduce them byte for byte.
const COMMITTED: [(&str, &str); 8] = committed!(
    "fig4_montage_24",
    "fig4_cstem",
    "fig4_mapreduce_8x8x4",
    "fig4_sequential_20",
    "fig5_montage_24",
    "fig5_cstem",
    "fig5_mapreduce_8x8x4",
    "fig5_sequential_20"
);

/// Rendered artifacts, by the file stem `cws-exp --out` gives them.
type Artifacts = Vec<(String, String)>;

pub(crate) struct Paper {
    configs: Vec<ExperimentConfig>,
    /// One-thread output per rotation seed, which every unit must match.
    expected: Vec<Artifacts>,
    next: usize,
    /// Summed completion rate and count of the replica's spot replays.
    completion: (f64, usize),
}

impl Paper {
    pub(crate) fn setup(seed: u64) -> Result<Self, String> {
        let configs: Vec<ExperimentConfig> = (0..ROTATION)
            .map(|i| ExperimentConfig {
                seed: seed.wrapping_add(i),
                ..ExperimentConfig::default()
            })
            .collect();
        let expected: Vec<Artifacts> = configs.iter().map(|c| regenerate(c, 1)).collect();
        if seed == 42 {
            for (name, committed) in COMMITTED {
                let got = expected[0]
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, csv)| csv);
                if got.map(String::as_str) != Some(committed) {
                    return Err(format!(
                        "{name}: seed-42 output differs from results/{name}.csv"
                    ));
                }
            }
        }
        Ok(Paper {
            configs,
            expected,
            next: 0,
            completion: (0.0, 0),
        })
    }

    fn advance(&mut self) -> usize {
        let i = self.next % self.configs.len();
        self.next += 1;
        i
    }
}

/// The `cws-exp fig4`, `fig5` and `spot` entry points at `threads`.
fn regenerate(config: &ExperimentConfig, threads: usize) -> Artifacts {
    let f4 = fig4::fig4_threaded(config, threads);
    let f5 = fig5::fig5_threaded(config, threads);
    let market = SpotMarket::default();
    let rows = spot::spot_frontier(&spot_config(config), &montage_24(), market, threads);
    render(&f4, &f5, market, &rows)
}

/// `cws-exp spot` turns the simulator cross-check off: the frontier
/// replays every plan itself.
fn spot_config(config: &ExperimentConfig) -> ExperimentConfig {
    ExperimentConfig {
        validate_with_sim: false,
        ..config.clone()
    }
}

fn render(
    f4: &[Fig4Panel],
    f5: &[Fig5Panel],
    market: SpotMarket,
    rows: &[SpotFrontierRow],
) -> Artifacts {
    let stem = |fig: &str, wf: &str| format!("{fig}_{}", wf.replace('-', "_"));
    f4.iter()
        .map(|p| (stem("fig4", &p.workflow), p.to_table().to_csv()))
        .chain(
            f5.iter()
                .map(|p| (stem("fig5", &p.workflow), p.to_table().to_csv())),
        )
        .chain(std::iter::once((
            "spot_vs_ondemand".to_string(),
            spot::spot_frontier_report("montage-24", market, rows).to_csv(),
        )))
        .collect()
}

/// `fig4_threaded`/`fig5_threaded`'s matrix at one thread: realize the
/// four paper DAGs, prepare each, run every paper pairing.
fn matrix(
    t: &mut Tracer,
    config: &ExperimentConfig,
) -> Result<Vec<(String, Vec<StrategyResult>)>, String> {
    let scenario = Scenario::Pareto { seed: config.seed };
    let realized: Vec<_> = t.span(Layer::Realize, |_| {
        paper_workflows()
            .iter()
            .map(|wf| config.materialize(wf, scenario))
            .collect()
    });
    let mut rows = Vec::with_capacity(realized.len());
    for wf in realized {
        let p = replica::prepare(t, config, wf);
        let results = Strategy::paper_set()
            .into_iter()
            .map(|s| replica::cell(t, config, &p, s))
            .collect::<Result<Vec<_>, _>>()?;
        rows.push((p.wf.name().to_string(), results));
    }
    Ok(rows)
}

/// `spot_frontier` at one thread.
fn frontier(
    t: &mut Tracer,
    config: &ExperimentConfig,
    market: SpotMarket,
) -> Result<Vec<SpotFrontierRow>, String> {
    let config = spot_config(config);
    let platform = &config.platform;
    let wf = t.span(Layer::Realize, |_| {
        config.materialize(&montage_24(), Scenario::Pareto { seed: config.seed })
    });
    let tables = t.span(Layer::TablesBuild, |_| KernelTables::build(&wf, platform));
    let small_price = platform.price(InstanceType::Small);
    let mut rows = Vec::new();
    // The frontier's plan set: every paper pairing, then spot-HEFT
    // on each instance type.
    enum Plan {
        Paper(Strategy),
        SpotHeft(InstanceType),
    }
    let plans = Strategy::paper_set()
        .into_iter()
        .map(Plan::Paper)
        .chain(InstanceType::ALL.into_iter().map(Plan::SpotHeft));
    for plan in plans {
        let s = match plan {
            Plan::Paper(strategy) => replica::schedule(t, strategy, &wf, &config, &tables),
            Plan::SpotHeft(itype) => t.span(Layer::SpotHeft, |_| {
                spot_heft_with(&wf, platform, &market, itype, Some(&tables))
            }),
        };
        t.span(Layer::Validate, |_| s.validate(&wf, platform))
            .map_err(|e| format!("{} produced an invalid schedule: {e}", s.strategy))?;
        let (metrics, expected_spot_cost) = t.span(Layer::Billing, |_| {
            let m = ScheduleMetrics::of(&s, &wf, platform);
            let e: f64 = s
                .vms
                .iter()
                .map(|vm| market.expected_cost(vm.itype, small_price, vm.meter.busy))
                .sum();
            (m, e)
        });
        let r = t.span(Layer::SpotReplay, |_| {
            replay_spot(&wf, platform, &s, &market, InstanceType::Small, config.seed)
        });
        rows.push(SpotFrontierRow {
            label: s.strategy.clone(),
            vms: metrics.vm_count,
            on_demand_cost: metrics.cost,
            on_demand_makespan: metrics.makespan,
            expected_spot_cost,
            realized_cost: r.total_cost_usd(),
            realized_makespan: r.makespan,
            completion_rate: r.completion_rate(),
            evictions: r.interruptions.len(),
        });
    }
    Ok(rows)
}

impl Workload for Paper {
    fn work_per_unit(&self) -> f64 {
        // Four DAGs × (19 pairings + baseline) for each figure, plus the
        // 19 + 4 spot-frontier plans.
        (2 * 4 * 20 + 23) as f64
    }

    fn unit(&mut self) -> Result<(), String> {
        let i = self.advance();
        let got = regenerate(&self.configs[i], THREADS);
        check(&got, &self.expected[i], self.configs[i].seed)
    }

    fn replica(&mut self, t: &mut Tracer) -> Result<(), String> {
        let i = self.advance();
        let config = self.configs[i].clone();
        let market = SpotMarket::default();
        let completion = &mut self.completion;
        let got = t.unit(|t| -> Result<Artifacts, String> {
            let f4 = matrix(t, &config)?;
            let f5 = matrix(t, &config)?;
            let rows = frontier(t, &config, market)?;
            completion.0 += rows.iter().map(|r| r.completion_rate).sum::<f64>();
            completion.1 += rows.len();
            Ok(t.span(Layer::Render, |_| {
                let f4: Vec<Fig4Panel> = f4
                    .into_iter()
                    .map(|(workflow, results)| Fig4Panel {
                        workflow,
                        points: results
                            .into_iter()
                            .map(|r| Fig4Point {
                                label: r.label,
                                gain_pct: r.relative.gain_pct,
                                loss_pct: r.relative.loss_pct,
                                in_target_square: r.relative.in_target_square(),
                            })
                            .collect(),
                    })
                    .collect();
                let f5: Vec<Fig5Panel> = f5
                    .into_iter()
                    .map(|(workflow, results)| Fig5Panel {
                        workflow,
                        bars: results
                            .into_iter()
                            .map(|r| Fig5Bar {
                                label: r.label,
                                idle_seconds: r.metrics.idle_seconds,
                            })
                            .collect(),
                    })
                    .collect();
                render(&f4, &f5, market, &rows)
            }))
        })?;
        check(&got, &self.expected[i], config.seed)
    }

    fn spot_completion_rate(&self) -> f64 {
        let (sum, n) = self.completion;
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

fn check(got: &Artifacts, expected: &Artifacts, seed: u64) -> Result<(), String> {
    match got.iter().zip(expected).find(|(g, e)| g != e) {
        None if got.len() == expected.len() => Ok(()),
        None => Err(format!(
            "seed {seed}: {} artifacts, expected {}",
            got.len(),
            expected.len()
        )),
        Some((g, _)) => Err(format!(
            "seed {seed}: {} differs from the one-thread output",
            g.0
        )),
    }
}
