//! Adaptive strategy selection: the paper's Table V as an executable
//! policy.
//!
//! The paper's conclusion: "These results open the way for adaptive
//! scheduling where the SA can be adjusted based on workflow properties
//! and user goals." This module implements that: given a workflow's
//! [`StructureMetrics`] and a user [`Objective`], it returns the strategy
//! Table V recommends.
//!
//! Table V, transcribed:
//!
//! | Workflow class | Savings | Gain | Balance |
//! |---|---|---|---|
//! | Much parallelism (MapReduce) | AllPar1LnSDyn | AllParExceed-m (small & heterogeneous tasks) | AllPar1LnSDyn (heterogeneous tasks) |
//! | Much parallelism + many interdependencies (Montage) | AllPar1LnSDyn | StartPar\[Not\]Exceed-l / AllPar\[Not\]Exceed-m (short tasks) | StartParNotExceed-\[m\|s\] (heterogeneous resp. long tasks) |
//! | Some parallelism (CSTEM) | AllPar1LnSDyn | AllParNotExceed-m (heterogeneous tasks) | [Start\|All]ParNotExceed-[s\|m] (long resp. heterogeneous tasks) |
//! | Sequential | \*-s and AllPar1LnSDyn (small & heterogeneous tasks) | \*-l (heterogeneous tasks) | \*-l (short tasks) |

use crate::strategy::{StaticAlloc, Strategy};
use cws_dag::metrics::{StructureMetrics, WorkflowClass};
use cws_dag::Workflow;
use cws_platform::InstanceType;

/// The user goal driving strategy selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Minimise cost relative to the baseline (Table V's "Savings").
    Savings,
    /// Minimise makespan (Table V's "Gain").
    Gain,
    /// Balance gain against savings (Table V's "Balance").
    Balanced,
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Objective::Savings => "savings",
            Objective::Gain => "gain",
            Objective::Balanced => "balanced",
        };
        f.write_str(s)
    }
}

/// Runtime-profile thresholds used to refine Table V's "short / long /
/// heterogeneous tasks" qualifiers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeProfileThresholds {
    /// Coefficient of variation above which runtimes count as
    /// heterogeneous.
    pub heterogeneous_cv: f64,
    /// Mean runtime (seconds) below which tasks count as short.
    pub short_mean_s: f64,
}

impl Default for RuntimeProfileThresholds {
    fn default() -> Self {
        RuntimeProfileThresholds {
            heterogeneous_cv: 0.5,
            short_mean_s: 1000.0,
        }
    }
}

/// Select the Table V strategy for a workflow and an objective.
///
/// When Table V gives alternatives conditioned on the runtime profile,
/// the choice is refined using the workflow's runtime coefficient of
/// variation and mean (see [`RuntimeProfileThresholds`]).
///
/// # Examples
/// ```
/// use cws_core::adaptive::{select_strategy, Objective};
/// use cws_workloads::{mapreduce_default, Scenario};
///
/// let wf = Scenario::Pareto { seed: 1 }.apply(&mapreduce_default());
/// let pick = select_strategy(&wf, Objective::Gain);
/// assert_eq!(pick.label(), "AllParExceed-m");
/// ```
#[must_use]
pub fn select_strategy(wf: &Workflow, objective: Objective) -> Strategy {
    select_strategy_with(wf, objective, RuntimeProfileThresholds::default())
}

/// [`select_strategy`] with explicit thresholds.
#[must_use]
pub fn select_strategy_with(
    wf: &Workflow,
    objective: Objective,
    th: RuntimeProfileThresholds,
) -> Strategy {
    let m = StructureMetrics::compute(wf);
    let heterogeneous = m.runtime_cv >= th.heterogeneous_cv;
    let short = m.mean_runtime < th.short_mean_s;
    let class = m.classify();

    let stat = |alloc: StaticAlloc, itype: InstanceType| Strategy::Static { alloc, itype };

    match (class, objective) {
        // Savings column: AllPar1LnSDyn everywhere except pure chains
        // with uniform runtimes, where any small strategy does and the
        // cheapest is StartParExceed-s.
        (WorkflowClass::Sequential, Objective::Savings) => {
            if heterogeneous {
                Strategy::AllPar1LnSDyn
            } else {
                stat(StaticAlloc::HeftStartParExceed, InstanceType::Small)
            }
        }
        (_, Objective::Savings) => Strategy::AllPar1LnSDyn,

        // Gain column.
        (WorkflowClass::HighlyParallel, Objective::Gain) => {
            stat(StaticAlloc::AllParExceed, InstanceType::Medium)
        }
        (WorkflowClass::ParallelInterdependent, Objective::Gain) => {
            if short {
                stat(StaticAlloc::AllParExceed, InstanceType::Medium)
            } else {
                stat(StaticAlloc::HeftStartParExceed, InstanceType::Large)
            }
        }
        (WorkflowClass::SomeParallelism, Objective::Gain) => {
            stat(StaticAlloc::AllParNotExceed, InstanceType::Medium)
        }
        (WorkflowClass::Sequential, Objective::Gain) => {
            stat(StaticAlloc::HeftStartParExceed, InstanceType::Large)
        }

        // Balance column.
        (WorkflowClass::HighlyParallel, Objective::Balanced) => Strategy::AllPar1LnSDyn,
        (WorkflowClass::ParallelInterdependent, Objective::Balanced) => {
            let itype = if heterogeneous {
                InstanceType::Medium
            } else {
                InstanceType::Small
            };
            stat(StaticAlloc::HeftStartParNotExceed, itype)
        }
        (WorkflowClass::SomeParallelism, Objective::Balanced) => {
            if heterogeneous {
                stat(StaticAlloc::AllParNotExceed, InstanceType::Medium)
            } else {
                stat(StaticAlloc::HeftStartParNotExceed, InstanceType::Small)
            }
        }
        (WorkflowClass::Sequential, Objective::Balanced) => {
            stat(StaticAlloc::HeftStartParExceed, InstanceType::Large)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_dag::WorkflowBuilder;

    fn wide(n: usize) -> Workflow {
        let mut b = WorkflowBuilder::new("wide");
        let root = b.task("root", 100.0);
        for i in 0..n {
            let t = b.task(format!("p{i}"), 100.0);
            b.edge(root, t);
        }
        b.build().unwrap()
    }

    fn chain(n: usize) -> Workflow {
        let mut b = WorkflowBuilder::new("chain");
        let ids: Vec<_> = (0..n).map(|i| b.task(format!("t{i}"), 100.0)).collect();
        for w in ids.windows(2) {
            b.edge(w[0], w[1]);
        }
        b.build().unwrap()
    }

    #[test]
    fn savings_recommends_1lns_dyn_for_parallel_workflows() {
        assert_eq!(
            select_strategy(&wide(10), Objective::Savings),
            Strategy::AllPar1LnSDyn
        );
    }

    #[test]
    fn gain_on_mapreduce_like_recommends_allparexceed_medium() {
        let s = select_strategy(&wide(10), Objective::Gain);
        assert_eq!(s.label(), "AllParExceed-m");
    }

    #[test]
    fn sequential_gain_recommends_large() {
        let s = select_strategy(&chain(10), Objective::Gain);
        assert!(s.label().ends_with("-l"), "Table V: *-l, got {}", s.label());
    }

    #[test]
    fn sequential_uniform_savings_is_small_instance() {
        let s = select_strategy(&chain(10), Objective::Savings);
        assert!(s.label().ends_with("-s"), "Table V: *-s, got {}", s.label());
    }

    #[test]
    fn sequential_heterogeneous_savings_is_1lns_dyn() {
        let wf = chain(4).with_base_times(&[10.0, 10.0, 10.0, 5000.0]);
        assert_eq!(
            select_strategy(&wf, Objective::Savings),
            Strategy::AllPar1LnSDyn
        );
    }

    #[test]
    fn balanced_on_mapreduce_like_is_1lns_dyn() {
        assert_eq!(
            select_strategy(&wide(10), Objective::Balanced),
            Strategy::AllPar1LnSDyn
        );
    }

    #[test]
    fn every_selection_schedules_cleanly() {
        // the selector must only return runnable strategies
        let p = cws_platform::Platform::ec2_paper();
        for wf in [wide(8), chain(8)] {
            for obj in [Objective::Savings, Objective::Gain, Objective::Balanced] {
                let s = select_strategy(&wf, obj);
                let sched = s.schedule(&wf, &p);
                sched.validate(&wf, &p).unwrap();
            }
        }
    }

    #[test]
    fn objective_display() {
        assert_eq!(Objective::Savings.to_string(), "savings");
        assert_eq!(Objective::Balanced.to_string(), "balanced");
    }
}
