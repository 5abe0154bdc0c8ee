//! Execution-time scenarios and data-size models.
//!
//! Sect. IV-B defines three runtime scenarios:
//!
//! 1. **Pareto** — the analytical model based on Feitelson's results:
//!    runtimes ~ Pareto(α=2, scale=500).
//! 2. **Best case** — all tasks equal, and the whole workflow fits a
//!    single BTU on one VM: `n·e ≤ BTU`, so a sequential provisioning
//!    rents exactly 1 BTU and a parallel one rents `n` BTUs.
//! 3. **Worst case** — all tasks equal and each exceeds one BTU *even on
//!    the fastest instance*: `BTU < e/2.7`. Sequential provisioning rents
//!    `⌈n·e/BTU⌉` BTUs; parallel rents `n·⌈e/BTU⌉`.

use crate::pareto::Pareto;
use cws_dag::Workflow;
use cws_platform::BTU_SECONDS;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One of the paper's three execution-time scenarios.
///
/// # Examples
/// ```
/// use cws_workloads::{sequential, Scenario};
///
/// let wf = Scenario::BestCase.apply(&sequential(10));
/// // best case: all tasks equal and summing to exactly one BTU
/// assert_eq!(wf.task(cws_dag::TaskId(0)).base_time, 360.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scenario {
    /// Heterogeneous runtimes: Pareto(α=2, scale=500) seconds, seeded.
    Pareto {
        /// RNG seed; the same seed reproduces the same runtimes.
        seed: u64,
    },
    /// Equal tasks fitting a single BTU sequentially (`e = BTU/n`).
    BestCase,
    /// Equal tasks, each exceeding one BTU on any instance
    /// (`e = factor × BTU` with `factor > 2.7`; default 3.0).
    WorstCase,
}

impl Scenario {
    /// The worst-case runtime multiplier over one BTU. Must exceed the
    /// xlarge speed-up (2.7) so even the fastest instance cannot fit a
    /// task in one BTU.
    pub const WORST_CASE_FACTOR: f64 = 3.0;

    /// Name used in reports (`pareto`, `best-case`, `worst-case`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::Pareto { .. } => "pareto",
            Scenario::BestCase => "best-case",
            Scenario::WorstCase => "worst-case",
        }
    }

    /// Produce the vector of base execution times for `wf` under this
    /// scenario.
    #[must_use]
    pub fn base_times(&self, wf: &Workflow) -> Vec<f64> {
        let n = wf.len();
        match *self {
            Scenario::Pareto { seed } => {
                let mut rng = SmallRng::seed_from_u64(seed);
                Pareto::RUNTIMES.sample_n(&mut rng, n)
            }
            Scenario::BestCase => {
                let e = BTU_SECONDS / n as f64;
                vec![e; n]
            }
            Scenario::WorstCase => {
                let e = Self::WORST_CASE_FACTOR * BTU_SECONDS;
                vec![e; n]
            }
        }
    }

    /// Apply the scenario to a workflow, returning a copy with rewritten
    /// base times.
    #[must_use]
    pub fn apply(&self, wf: &Workflow) -> Workflow {
        wf.with_base_times(&self.base_times(wf))
    }

    /// The three scenarios in paper order, with a fixed seed for the
    /// Pareto case.
    #[must_use]
    pub fn paper_set(seed: u64) -> [Scenario; 3] {
        [
            Scenario::Pareto { seed },
            Scenario::BestCase,
            Scenario::WorstCase,
        ]
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How edge payloads (task data sizes) are assigned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DataSizeModel {
    /// No payloads: the CPU-intensive setting of the paper's evaluation.
    CpuIntensive,
    /// Payloads drawn from Pareto(α=1.3, scale=500) MB, seeded — the
    /// paper's "task sizes" distribution, for data-intensive studies.
    ParetoSizes {
        /// RNG seed.
        seed: u64,
    },
}

impl DataSizeModel {
    /// Apply the model: returns a copy of `wf` whose every edge payload is
    /// rewritten according to the model.
    #[must_use]
    pub fn apply(&self, wf: &Workflow) -> Workflow {
        match *self {
            DataSizeModel::CpuIntensive => {
                // Rebuild with zero payloads.
                rebuild_with_payloads(wf, |_| 0.0)
            }
            DataSizeModel::ParetoSizes { seed } => {
                let mut rng = SmallRng::seed_from_u64(seed);
                let sizes: Vec<f64> = Pareto::DATA_SIZES.sample_n(&mut rng, wf.edge_count());
                let mut it = sizes.into_iter();
                rebuild_with_payloads(wf, move |_| it.next().expect("one sample per edge"))
            }
        }
    }
}

fn rebuild_with_payloads(wf: &Workflow, mut payload: impl FnMut(usize) -> f64) -> Workflow {
    let mut b = cws_dag::WorkflowBuilder::new(wf.name());
    for t in wf.tasks() {
        let id = b.task(t.name.clone(), t.base_time);
        debug_assert_eq!(id, t.id);
    }
    for (i, e) in wf.edges().enumerate() {
        b.data_edge(e.from, e.to, payload(i));
    }
    b.build().expect("payload rewrite preserves validity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_dag::WorkflowBuilder;

    fn chain(n: usize) -> Workflow {
        let mut b = WorkflowBuilder::new("chain");
        let ids: Vec<_> = (0..n).map(|i| b.task(format!("t{i}"), 1.0)).collect();
        for w in ids.windows(2) {
            b.edge(w[0], w[1]);
        }
        b.build().unwrap()
    }

    #[test]
    fn best_case_fits_single_btu() {
        let wf = chain(10);
        let times = Scenario::BestCase.base_times(&wf);
        let total: f64 = times.iter().sum();
        assert!((total - BTU_SECONDS).abs() < 1e-9);
        assert!(times.iter().all(|&t| (t - 360.0).abs() < 1e-12));
    }

    #[test]
    fn worst_case_exceeds_btu_even_on_xlarge() {
        let wf = chain(5);
        let times = Scenario::WorstCase.base_times(&wf);
        for &t in &times {
            assert!(t / 2.7 > BTU_SECONDS, "task must exceed a BTU on xlarge");
        }
    }

    #[test]
    fn pareto_scenario_is_seeded_and_heterogeneous() {
        let wf = chain(50);
        let a = Scenario::Pareto { seed: 3 }.base_times(&wf);
        let b = Scenario::Pareto { seed: 3 }.base_times(&wf);
        let c = Scenario::Pareto { seed: 4 }.base_times(&wf);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&t| t >= 500.0));
        let min = a.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = a.iter().cloned().fold(0.0_f64, f64::max);
        assert!(max > min, "Pareto times must vary");
    }

    #[test]
    fn apply_preserves_structure() {
        let wf = chain(4);
        let w2 = Scenario::BestCase.apply(&wf);
        assert_eq!(w2.len(), 4);
        assert_eq!(w2.edge_count(), 3);
        assert_eq!(w2.task(cws_dag::TaskId(0)).base_time, 900.0);
    }

    #[test]
    fn scenario_names() {
        assert_eq!(Scenario::Pareto { seed: 0 }.name(), "pareto");
        assert_eq!(Scenario::BestCase.name(), "best-case");
        assert_eq!(Scenario::WorstCase.to_string(), "worst-case");
    }

    #[test]
    fn paper_set_ordering() {
        let set = Scenario::paper_set(42);
        assert_eq!(set[0].name(), "pareto");
        assert_eq!(set[1].name(), "best-case");
        assert_eq!(set[2].name(), "worst-case");
    }

    #[test]
    fn cpu_intensive_zeroes_payloads() {
        let mut b = WorkflowBuilder::new("data");
        let a = b.task("a", 1.0);
        let c = b.task("c", 1.0);
        b.data_edge(a, c, 512.0);
        let wf = DataSizeModel::CpuIntensive.apply(&b.build().unwrap());
        assert_eq!(wf.edge_data(a, c), Some(0.0));
    }

    #[test]
    fn pareto_sizes_fill_payloads() {
        let wf = chain(10);
        let w2 = DataSizeModel::ParetoSizes { seed: 9 }.apply(&wf);
        for e in w2.edges() {
            assert!(e.data_mb >= 500.0);
        }
        // deterministic
        let w3 = DataSizeModel::ParetoSizes { seed: 9 }.apply(&wf);
        assert_eq!(w2, w3);
    }

    #[test]
    fn worst_case_factor_exceeds_xlarge_speedup() {
        const { assert!(Scenario::WORST_CASE_FACTOR > 2.7) };
    }
}
