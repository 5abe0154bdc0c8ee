//! Runtime-jitter robustness analysis for static schedules.
//!
//! The paper schedules *statically* from runtime estimates. In practice
//! cloud runtimes jitter (multi-tenancy, I/O variance). This module asks
//! the follow-up question: **how fragile is each strategy's plan when
//! runtimes deviate from their estimates?** Each trial multiplies every
//! task duration by an independent factor drawn uniformly from
//! `[1 − rel, 1 + rel]` and replays the unchanged plan in the
//! discrete-event engine; the makespan inflation over the plan is the
//! fragility signal.

use crate::engine::Simulator;
use cws_core::Schedule;
use cws_dag::Workflow;
use cws_platform::Platform;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Multiplicative uniform jitter model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterModel {
    /// Relative half-width of the factor interval; 0.2 means each task
    /// runs anywhere between 80% and 120% of its estimate.
    pub relative: f64,
    /// RNG seed for the first trial; trial `i` uses `seed + i`.
    pub seed: u64,
}

impl JitterModel {
    /// Construct a model.
    ///
    /// # Panics
    /// Panics unless `relative` is within `[0, 1)`.
    #[must_use]
    pub fn new(relative: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&relative),
            "relative jitter must be in [0, 1), got {relative}"
        );
        JitterModel { relative, seed }
    }

    /// Per-task duration factors for trial `trial`.
    #[must_use]
    pub fn factors(&self, tasks: usize, trial: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(self.seed.wrapping_add(trial));
        (0..tasks)
            .map(|_| {
                if self.relative == 0.0 {
                    1.0
                } else {
                    rng.gen_range(1.0 - self.relative..=1.0 + self.relative)
                }
            })
            .collect()
    }
}

/// Aggregate robustness result over many jittered replays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessReport {
    /// Planned (jitter-free) makespan.
    pub planned_makespan: f64,
    /// Mean observed makespan across trials.
    pub mean_makespan: f64,
    /// Worst observed makespan.
    pub max_makespan: f64,
    /// Mean relative inflation: `mean/planned − 1`.
    pub mean_inflation: f64,
    /// Worst relative inflation: `max/planned − 1`.
    pub max_inflation: f64,
    /// Number of trials run.
    pub trials: usize,
}

/// Replay `schedule` under `trials` independent jitter draws and report
/// makespan inflation statistics.
///
/// # Panics
/// Panics if `trials == 0`.
#[must_use]
pub fn robustness(
    wf: &Workflow,
    platform: &Platform,
    schedule: &Schedule,
    model: JitterModel,
    trials: usize,
) -> RobustnessReport {
    assert!(trials >= 1, "need at least one trial");
    let planned = schedule.makespan();
    let sim = Simulator::new(wf, platform, schedule);
    let mut sum = 0.0;
    let mut max = 0.0_f64;
    for trial in 0..trials {
        let factors = model.factors(wf.len(), trial as u64);
        let report = sim.run_perturbed(|t, d| d * factors[t.index()]);
        sum += report.makespan;
        max = max.max(report.makespan);
    }
    let mean = sum / trials as f64;
    RobustnessReport {
        planned_makespan: planned,
        mean_makespan: mean,
        max_makespan: max,
        mean_inflation: mean / planned - 1.0,
        max_inflation: max / planned - 1.0,
        trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_core::Strategy;
    use cws_workloads::{montage_24, Scenario};

    fn setup() -> (Workflow, Platform, Schedule) {
        let p = Platform::ec2_paper();
        let wf = Scenario::Pareto { seed: 5 }.apply(&montage_24());
        let s = Strategy::BASELINE.schedule(&wf, &p);
        (wf, p, s)
    }

    #[test]
    fn zero_jitter_reproduces_the_plan() {
        let (wf, p, s) = setup();
        let r = robustness(&wf, &p, &s, JitterModel::new(0.0, 1), 3);
        assert!((r.mean_makespan - r.planned_makespan).abs() < 1e-6);
        assert!(r.mean_inflation.abs() < 1e-9);
    }

    #[test]
    fn jitter_moves_the_makespan() {
        let (wf, p, s) = setup();
        let r = robustness(&wf, &p, &s, JitterModel::new(0.3, 1), 20);
        assert!(r.max_makespan > r.planned_makespan * 0.9);
        assert!(r.max_makespan >= r.mean_makespan);
        assert!(r.max_inflation >= r.mean_inflation);
        assert_eq!(r.trials, 20);
    }

    #[test]
    fn factors_are_deterministic_and_bounded() {
        let m = JitterModel::new(0.25, 7);
        let a = m.factors(50, 0);
        let b = m.factors(50, 0);
        assert_eq!(a, b);
        assert_ne!(a, m.factors(50, 1));
        for f in a {
            assert!((0.75..=1.25).contains(&f));
        }
    }

    #[test]
    fn packed_schedules_absorb_jitter_no_worse_than_linear() {
        // A single-VM serial schedule inflates at most linearly in the
        // jitter bound (sums of independent factors concentrate).
        let p = Platform::ec2_paper();
        let wf = Scenario::Pareto { seed: 5 }.apply(&cws_workloads::sequential(20));
        let s = Strategy::parse("StartParExceed-s")
            .unwrap()
            .schedule(&wf, &p);
        let r = robustness(&wf, &p, &s, JitterModel::new(0.2, 3), 20);
        assert!(
            r.max_inflation <= 0.2 + 1e-9,
            "serial chains cannot inflate past the per-task bound: {}",
            r.max_inflation
        );
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        let (wf, p, s) = setup();
        let _ = robustness(&wf, &p, &s, JitterModel::new(0.1, 1), 0);
    }

    #[test]
    #[should_panic(expected = "relative jitter")]
    fn out_of_range_jitter_rejected() {
        let _ = JitterModel::new(1.5, 0);
    }
}
