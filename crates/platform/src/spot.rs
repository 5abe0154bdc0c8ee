//! Spot-market pricing: discounted, interruptible instances.
//!
//! The paper closes its idle-time discussion with the co-rent/spot
//! analogy ("in a similar manner with what Amazon does with its spot
//! instances"). This module models the other side of that market: VMs
//! rented at a discount that may be reclaimed ("interrupted") with some
//! probability per hour. Combined with the failure-impact analysis in
//! the simulator crate, it prices the discount-vs-reliability trade-off.

use crate::billing::btus_for_span;
use crate::instance::InstanceType;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A spot market: a flat discount and a per-hour interruption hazard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpotMarket {
    /// Price as a fraction of the on-demand price (e.g. 0.3 = 70% off —
    /// typical EC2 spot discounts).
    pub price_fraction: f64,
    /// Probability that a spot VM is reclaimed within any given hour.
    pub hourly_interruption_prob: f64,
}

impl Default for SpotMarket {
    fn default() -> Self {
        SpotMarket {
            price_fraction: 0.3,
            hourly_interruption_prob: 0.05,
        }
    }
}

impl SpotMarket {
    /// Construct a market.
    ///
    /// # Panics
    /// Panics unless both parameters are within `(0, 1]` / `[0, 1)`.
    #[must_use]
    pub fn new(price_fraction: f64, hourly_interruption_prob: f64) -> Self {
        assert!(
            price_fraction > 0.0 && price_fraction <= 1.0,
            "price fraction must be in (0, 1], got {price_fraction}"
        );
        assert!(
            (0.0..1.0).contains(&hourly_interruption_prob),
            "interruption probability must be in [0, 1), got {hourly_interruption_prob}"
        );
        SpotMarket {
            price_fraction,
            hourly_interruption_prob,
        }
    }

    /// Spot price per BTU of `itype` given its on-demand price.
    #[must_use]
    pub fn price(&self, on_demand: f64) -> f64 {
        on_demand * self.price_fraction
    }

    /// Probability a spot VM survives `hours` hours uninterrupted
    /// (geometric survival).
    ///
    /// # Panics
    /// Panics if `hours` is negative or not finite — a NaN here would
    /// silently poison every downstream frontier figure.
    #[must_use]
    pub fn survival_probability(&self, hours: f64) -> f64 {
        assert!(
            hours.is_finite() && hours >= 0.0,
            "hours must be finite and non-negative, got {hours}"
        );
        (1.0 - self.hourly_interruption_prob).powf(hours)
    }

    /// Expected cost of completing `busy_seconds` of work on a spot VM
    /// of `itype`, **including retries**: each interruption loses the
    /// running hour's work and restarts it (a simple memoryless retry
    /// model). With survival probability `s` per hour, each wall-clock
    /// hour of useful work costs on average `1/s` attempted hours.
    ///
    /// Billable hours come from [`btus_for_span`], so the edge cases
    /// match the on-demand meter exactly: a zero span still rents one
    /// BTU, and a span landing on a BTU multiple (within the billing
    /// epsilon) does not round up to an extra hour.
    ///
    /// # Panics
    /// Panics if `busy_seconds` is negative or not finite.
    #[must_use]
    pub fn expected_cost(
        &self,
        itype: InstanceType,
        on_demand_small: f64,
        busy_seconds: f64,
    ) -> f64 {
        assert!(
            busy_seconds.is_finite() && busy_seconds >= 0.0,
            "busy seconds must be finite and non-negative, got {busy_seconds}"
        );
        let hours = btus_for_span(busy_seconds) as f64;
        let per_hour = self.price(on_demand_small * f64::from(itype.price_multiplier()));
        let survival = 1.0 - self.hourly_interruption_prob;
        per_hour * hours / survival
    }

    /// Expected price of **one** BTU of useful work on this market given
    /// the on-demand per-BTU price, retries included: `od × fraction /
    /// (1 − p)`. This is the per-BTU coefficient the spot-HEFT planner
    /// weighs against the on-demand price when scoring candidates.
    #[must_use]
    pub fn expected_btu_price(&self, on_demand: f64) -> f64 {
        self.price(on_demand) / (1.0 - self.hourly_interruption_prob)
    }

    /// Sample interruption times for a VM running `span_seconds`,
    /// returning the first interruption (seconds from rental start) if
    /// one occurs. Deterministic per seed.
    #[must_use]
    pub fn sample_interruption(&self, span_seconds: f64, seed: u64) -> Option<f64> {
        assert!(span_seconds >= 0.0, "span must be non-negative");
        let mut rng = SmallRng::seed_from_u64(seed);
        let hours = (span_seconds / 3600.0).ceil() as u64;
        for h in 0..hours {
            if rng.gen::<f64>() < self.hourly_interruption_prob {
                // interrupted somewhere within hour h
                let offset = rng.gen::<f64>() * 3600.0;
                return Some((h as f64 * 3600.0 + offset).min(span_seconds));
            }
        }
        None
    }

    /// The break-even hazard: the hourly interruption probability at
    /// which the expected spot cost (with retries) equals on-demand.
    /// Below it, spot is cheaper in expectation.
    #[must_use]
    pub fn break_even_hazard(&self) -> f64 {
        // per_hour_spot / survival = per_hour_on_demand
        // fraction / (1 − p) = 1  ⇒  p = 1 − fraction
        1.0 - self.price_fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_a_70pct_discount() {
        let m = SpotMarket::default();
        assert!((m.price(0.08) - 0.024).abs() < 1e-12);
    }

    #[test]
    fn survival_decays_geometrically() {
        let m = SpotMarket::new(0.3, 0.1);
        assert!((m.survival_probability(0.0) - 1.0).abs() < 1e-12);
        assert!((m.survival_probability(1.0) - 0.9).abs() < 1e-12);
        assert!((m.survival_probability(2.0) - 0.81).abs() < 1e-12);
    }

    #[test]
    fn expected_cost_beats_on_demand_at_low_hazard() {
        let m = SpotMarket::new(0.3, 0.05);
        let spot = m.expected_cost(InstanceType::Small, 0.08, 3600.0);
        assert!(spot < 0.08, "spot {spot} must undercut on-demand 0.08");
    }

    #[test]
    fn break_even_matches_closed_form() {
        let m = SpotMarket::new(0.3, 0.05);
        assert!((m.break_even_hazard() - 0.7).abs() < 1e-12);
        // at the break-even hazard, expected cost equals on-demand
        let at = SpotMarket::new(0.3, m.break_even_hazard() - 1e-12);
        let cost = at.expected_cost(InstanceType::Small, 0.08, 3600.0);
        assert!((cost - 0.08).abs() < 1e-6);
    }

    #[test]
    fn interruptions_are_seeded_and_within_span() {
        let m = SpotMarket::new(0.3, 0.5);
        let a = m.sample_interruption(7200.0, 9);
        let b = m.sample_interruption(7200.0, 9);
        assert_eq!(a, b);
        if let Some(t) = a {
            assert!((0.0..=7200.0).contains(&t));
        }
        // hazard 0 never interrupts
        let never = SpotMarket::new(0.3, 0.0);
        assert_eq!(never.sample_interruption(1e6, 1), None);
    }

    #[test]
    fn high_hazard_interrupts_long_rentals_almost_surely() {
        let m = SpotMarket::new(0.3, 0.9);
        let hits = (0..100)
            .filter(|&s| m.sample_interruption(36_000.0, s).is_some())
            .count();
        assert!(hits > 95);
    }

    #[test]
    #[should_panic(expected = "price fraction")]
    fn zero_price_rejected() {
        let _ = SpotMarket::new(0.0, 0.1);
    }

    #[test]
    fn zero_hazard_is_plain_discounted_pricing() {
        let m = SpotMarket::new(0.3, 0.0);
        assert!((m.survival_probability(0.0) - 1.0).abs() < 1e-12);
        assert!((m.survival_probability(1000.0) - 1.0).abs() < 1e-12);
        // no retries: expected cost is exactly hours × spot price
        let cost = m.expected_cost(InstanceType::Small, 0.08, 7200.0);
        assert!((cost - 2.0 * 0.3 * 0.08).abs() < 1e-12);
        assert!((m.expected_btu_price(0.08) - 0.024).abs() < 1e-12);
    }

    #[test]
    fn zero_span_still_rents_one_btu() {
        let m = SpotMarket::new(0.3, 0.05);
        let cost = m.expected_cost(InstanceType::Small, 0.08, 0.0);
        let one_btu = m.expected_cost(InstanceType::Small, 0.08, 1800.0);
        assert!(cost.is_finite() && cost > 0.0);
        assert!((cost - one_btu).abs() < 1e-12, "zero span bills one BTU");
    }

    #[test]
    fn exact_btu_multiple_does_not_round_up() {
        let m = SpotMarket::new(0.3, 0.05);
        // spans exactly on the BTU boundary bill that many BTUs, not +1 —
        // same epsilon rule as the on-demand meter.
        let one = m.expected_cost(InstanceType::Small, 0.08, 3600.0);
        let two = m.expected_cost(InstanceType::Small, 0.08, 7200.0);
        assert!((two - 2.0 * one).abs() < 1e-12);
        let just_over = m.expected_cost(InstanceType::Small, 0.08, 3600.0 + 1.0);
        assert!((just_over - two).abs() < 1e-12);
    }

    #[test]
    fn expected_cost_is_finite_across_the_valid_grid() {
        for &frac in &[1e-6, 0.3, 1.0] {
            for &hazard in &[0.0, 0.5, 1.0 - 1e-9] {
                let m = SpotMarket::new(frac, hazard);
                for &span in &[0.0, 1.0, 3600.0, 1e9] {
                    let c = m.expected_cost(InstanceType::XLarge, 0.08, span);
                    assert!(
                        c.is_finite() && c >= 0.0,
                        "frac={frac} p={hazard} span={span} -> {c}"
                    );
                    let s = m.survival_probability(span / 3600.0);
                    assert!(s.is_finite() && (0.0..=1.0).contains(&s));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "busy seconds")]
    fn negative_span_rejected() {
        let _ = SpotMarket::default().expected_cost(InstanceType::Small, 0.08, -1.0);
    }

    #[test]
    #[should_panic(expected = "hours")]
    fn nan_survival_hours_rejected() {
        let _ = SpotMarket::default().survival_probability(f64::NAN);
    }
}
