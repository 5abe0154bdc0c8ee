//! Schedule metrics and the paper's relative gain/loss measures.

use crate::schedule::Schedule;
use cws_dag::Workflow;
use cws_platform::Platform;

/// Absolute metrics of one schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleMetrics {
    /// Makespan in seconds.
    pub makespan: f64,
    /// Total cost in USD (rental + inter-region transfers).
    pub cost: f64,
    /// Total idle seconds across VMs (Fig. 5's quantity).
    pub idle_seconds: f64,
    /// Rented VM count.
    pub vm_count: usize,
    /// Billed BTUs.
    pub btus: u64,
}

impl ScheduleMetrics {
    /// Measure a schedule against its workflow and platform.
    ///
    /// When [`cws_obs::metrics_enabled`], also publishes the paper's
    /// per-run gauges (`run.makespan_s`, `run.cost_usd`,
    /// `run.idle_fraction`, `run.btu_waste_s`) to the global registry.
    #[must_use]
    pub fn of(schedule: &Schedule, wf: &Workflow, platform: &Platform) -> Self {
        let m = ScheduleMetrics {
            makespan: schedule.makespan(),
            cost: schedule.total_cost(wf, platform),
            idle_seconds: schedule.idle_seconds(),
            vm_count: schedule.vm_count(),
            btus: schedule.total_btus(),
        };
        if cws_obs::metrics_enabled() {
            use cws_obs::metrics::names;
            let reg = cws_obs::MetricsRegistry::global();
            reg.gauge(names::RUN_MAKESPAN_S).set(m.makespan);
            reg.gauge(names::RUN_COST_USD).set(m.cost);
            let billed = m.btus as f64 * cws_platform::billing::BTU_SECONDS;
            if billed > 0.0 {
                reg.gauge(names::RUN_IDLE_FRACTION)
                    .set(m.idle_seconds / billed);
            }
            reg.gauge(names::RUN_BTU_WASTE_S).set(m.idle_seconds);
        }
        m
    }
}

/// Relative metrics against the paper's reference strategy
/// (`OneVMperTask` on small instances):
///
/// * `gain% = 100 · (makespan_base − makespan) / makespan_base` — positive
///   means faster than the baseline;
/// * `loss% = 100 · (cost − cost_base) / cost_base` — positive means more
///   expensive (the paper's "% $ loss" axis); `savings% = −loss%`.
///
/// Fig. 4 plots `gain%` on the x axis and `loss%` on the y axis; the
/// target square is `gain ≥ 0 ∧ loss ≤ 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelativeMetrics {
    /// Makespan gain percentage (positive = faster).
    pub gain_pct: f64,
    /// Monetary loss percentage (negative = savings).
    pub loss_pct: f64,
}

impl RelativeMetrics {
    /// Compare `m` against `base`.
    ///
    /// # Panics
    /// Panics if the baseline has zero makespan or cost.
    #[must_use]
    pub fn vs(m: &ScheduleMetrics, base: &ScheduleMetrics) -> Self {
        assert!(base.makespan > 0.0, "baseline makespan must be positive");
        assert!(base.cost > 0.0, "baseline cost must be positive");
        RelativeMetrics {
            gain_pct: 100.0 * (base.makespan - m.makespan) / base.makespan,
            loss_pct: 100.0 * (m.cost - base.cost) / base.cost,
        }
    }

    /// Savings percentage (`−loss%`).
    #[must_use]
    pub fn savings_pct(&self) -> f64 {
        -self.loss_pct
    }

    /// Tolerance (percentage points) for target-square membership:
    /// absorbs sub-second network-latency noise that static scheduling
    /// adds on top of an otherwise identical makespan.
    pub const SQUARE_EPSILON: f64 = 0.01;

    /// Whether the point lies in the paper's target square: no slower
    /// *and* no more expensive than the baseline (within
    /// [`Self::SQUARE_EPSILON`]).
    #[must_use]
    pub fn in_target_square(&self) -> bool {
        self.gain_pct >= -Self::SQUARE_EPSILON && self.loss_pct <= Self::SQUARE_EPSILON
    }

    /// The paper's Table III classification of a target-square point:
    /// savings-dominant (`0 ≤ gain% < savings%`), gain-dominant
    /// (`0 ≤ savings% < gain%`) or balanced (`gain% ≈ savings%`, within
    /// `tol` percentage points). Returns `None` outside the target
    /// square.
    #[must_use]
    pub fn classify(&self, tol: f64) -> Option<GainSavingsClass> {
        if !self.in_target_square() {
            return None;
        }
        let savings = self.savings_pct();
        if (self.gain_pct - savings).abs() <= tol {
            Some(GainSavingsClass::Balanced)
        } else if self.gain_pct < savings {
            Some(GainSavingsClass::SavingsDominant)
        } else {
            Some(GainSavingsClass::GainDominant)
        }
    }
}

/// Table III's three columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GainSavingsClass {
    /// `0 ≤ gain% < savings%`.
    SavingsDominant,
    /// `0 ≤ savings% < gain%`.
    GainDominant,
    /// `gain% ≈ savings%`.
    Balanced,
}

impl std::fmt::Display for GainSavingsClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            GainSavingsClass::SavingsDominant => "savings",
            GainSavingsClass::GainDominant => "gain",
            GainSavingsClass::Balanced => "balanced",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(makespan: f64, cost: f64) -> ScheduleMetrics {
        ScheduleMetrics {
            makespan,
            cost,
            idle_seconds: 0.0,
            vm_count: 1,
            btus: 1,
        }
    }

    #[test]
    fn gain_and_loss_percentages() {
        let base = m(1000.0, 1.0);
        let r = RelativeMetrics::vs(&m(600.0, 0.5), &base);
        assert!((r.gain_pct - 40.0).abs() < 1e-12);
        assert!((r.loss_pct + 50.0).abs() < 1e-12);
        assert!((r.savings_pct() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn baseline_vs_itself_is_origin() {
        let base = m(1000.0, 1.0);
        let r = RelativeMetrics::vs(&base, &base);
        assert_eq!(r.gain_pct, 0.0);
        assert_eq!(r.loss_pct, 0.0);
        assert!(r.in_target_square());
        assert_eq!(r.classify(5.0), Some(GainSavingsClass::Balanced));
    }

    #[test]
    fn target_square_membership() {
        let base = m(1000.0, 1.0);
        assert!(RelativeMetrics::vs(&m(900.0, 0.9), &base).in_target_square());
        assert!(!RelativeMetrics::vs(&m(1100.0, 0.9), &base).in_target_square());
        assert!(!RelativeMetrics::vs(&m(900.0, 1.1), &base).in_target_square());
    }

    #[test]
    fn classification_matches_table_iii_columns() {
        let base = m(1000.0, 1.0);
        // gain 10, savings 60 → savings-dominant
        assert_eq!(
            RelativeMetrics::vs(&m(900.0, 0.4), &base).classify(5.0),
            Some(GainSavingsClass::SavingsDominant)
        );
        // gain 60, savings 10 → gain-dominant
        assert_eq!(
            RelativeMetrics::vs(&m(400.0, 0.9), &base).classify(5.0),
            Some(GainSavingsClass::GainDominant)
        );
        // gain 30, savings 32 → balanced within 5 points
        assert_eq!(
            RelativeMetrics::vs(&m(700.0, 0.68), &base).classify(5.0),
            Some(GainSavingsClass::Balanced)
        );
        // outside the square → None
        assert_eq!(
            RelativeMetrics::vs(&m(1200.0, 0.5), &base).classify(5.0),
            None
        );
    }

    #[test]
    #[should_panic(expected = "baseline makespan")]
    fn zero_baseline_rejected() {
        let _ = RelativeMetrics::vs(&m(1.0, 1.0), &m(0.0, 1.0));
    }
}
