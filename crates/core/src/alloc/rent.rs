//! The one-VM-per-task rent that CPA-Eager and Gain test every upgrade
//! against, kept as a running total instead of re-summed per trial.
//!
//! Both upgrade loops accept a trial exactly when
//! [`one_vm_per_task_cost`](super::cpa::one_vm_per_task_cost) with the
//! trial type in one slot stays within `budget + 1e-9`. That sum folds
//! the per-task terms left to right in task order, so its float value
//! depends on every term. [`RentLedger`] keeps a running total, moved by
//! one subtraction and one addition per committed upgrade, plus a
//! written-down bound on how far that total can sit from the
//! left-to-right sum. A trial whose total clears the limit by more than
//! the bound, on either side, is decided in O(1); a trial inside the
//! bound runs the exact left-to-right sum. The derivation is in
//! DESIGN.md §10.

use crate::state::{exec_row, KernelTables};
use cws_dag::Workflow;
use cws_platform::{billing::btus_for_span, InstanceType, Platform};
use std::borrow::Cow;

pub(super) const N_TYPES: usize = InstanceType::ALL.len();

/// Per-(task, type) execution times, borrowed from shared
/// [`KernelTables`] when a sweep has them, and the matching BTU rent
/// terms. Every value is computed exactly as the direct
/// `execution_time` and `one_vm_per_task_cost` calls compute it.
pub(super) fn exec_and_rent_rows<'a>(
    wf: &Workflow,
    platform: &Platform,
    tables: Option<&'a KernelTables>,
) -> (Cow<'a, [[f64; N_TYPES]]>, Vec<[f64; N_TYPES]>) {
    let et: Cow<'a, [[f64; N_TYPES]]> = match tables {
        Some(t) => Cow::Borrowed(t.exec_rows()),
        None => Cow::Owned(wf.ids().map(|t| exec_row(wf.task(t).base_time)).collect()),
    };
    let term = et
        .iter()
        .map(|row| {
            let mut out = [0.0; N_TYPES];
            for (j, &it) in InstanceType::ALL.iter().enumerate() {
                out[j] = btus_for_span(row[j]) as f64 * platform.price(it);
            }
            out
        })
        .collect();
    (et, term)
}

/// The rent of the current type assignment, one term per task, with a
/// running total and a bound on that total's distance from the
/// left-to-right sum of the terms.
pub(super) struct RentLedger {
    /// The per-task rent terms, in task order.
    terms: Vec<f64>,
    /// The running total: the left-to-right sum at construction, then
    /// moved by `(total − old) + new` on every [`RentLedger::set`].
    total: f64,
    /// A bound on `|total − R|`, with `R` the real-number sum of `terms`.
    drift: f64,
    /// `n·ε`, which bounds γₙ₋₁, the relative error of a left-to-right
    /// sum of `n` non-negative terms.
    gamma: f64,
    /// `budget + 1e-9`, the float the reference compares against.
    limit: f64,
    /// Every term and the limit are finite and the terms non-negative,
    /// so the bound holds; otherwise every trial runs the exact sum.
    bounded: bool,
}

impl RentLedger {
    pub(super) fn new(terms: Vec<f64>, budget: f64) -> Self {
        let total = terms.iter().fold(0.0, |acc, &x| acc + x);
        let gamma = terms.len() as f64 * f64::EPSILON;
        let limit = budget + 1e-9;
        let bounded =
            limit.is_finite() && terms.iter().all(|&x| x.is_finite() && x >= 0.0) && gamma < 0.5;
        RentLedger {
            terms,
            total,
            // The total starts as the left-to-right sum itself:
            // |total − R| ≤ γ·R ≤ γ·total / (1 − γ) ≤ 2γ·total.
            drift: 2.0 * gamma * total,
            gamma,
            limit,
            bounded,
        }
    }

    /// The running total with slot `i` set to `term`, and the drift
    /// bound that total carries: the two roundings of `(total − old) +
    /// term` add at most `2ε·(|total| + old + term)`.
    fn moved(&self, i: usize, term: f64) -> (f64, f64) {
        let old = self.terms[i];
        let total = (self.total - old) + term;
        let drift = self.drift + 2.0 * f64::EPSILON * (self.total.abs() + old + term);
        (total, drift)
    }

    /// Whether the rent with slot `i` set to `term` stays within the
    /// budget: exactly `one_vm_per_task_cost(..) <= budget + 1e-9`.
    pub(super) fn fits(&self, i: usize, term: f64) -> bool {
        if self.bounded && term.is_finite() && term >= 0.0 {
            let (total, drift) = self.moved(i, term);
            // |total − left-to-right sum| ≤ drift + γ·R, and
            // R ≤ |total| + drift; doubled to cover this line's roundings.
            let err = 2.0 * (drift + self.gamma * (total.abs() + drift));
            // Rounding is monotone and `limit` is a float, so a rounded
            // `total ± err` on the far side of it puts the real one there.
            if total + err < self.limit {
                return true;
            }
            if total - err > self.limit {
                return false;
            }
        }
        self.exact_sum(i, term) <= self.limit
    }

    /// Commit `term` to slot `i`.
    pub(super) fn set(&mut self, i: usize, term: f64) {
        (self.total, self.drift) = self.moved(i, term);
        self.terms[i] = term;
        // A non-finite total never recovers: ∞ − ∞ is NaN.
        self.bounded &= term.is_finite() && term >= 0.0;
    }

    /// The left-to-right sum with slot `i` set to `term`, in the exact
    /// task order of `one_vm_per_task_cost`.
    fn exact_sum(&self, i: usize, term: f64) -> f64 {
        let mut cost = self.terms[..i].iter().fold(0.0, |acc, &x| acc + x);
        cost += term;
        for &x in &self.terms[i + 1..] {
            cost += x;
        }
        cost
    }
}

/// A budget whose limit `budget + 1e-9` is exactly `limit`, when one
/// exists within a few ulps of `limit − 1e-9`: the budget at which a rent
/// of exactly `limit` is the largest that fits.
#[cfg(test)]
pub(crate) fn budget_for_limit(limit: f64) -> f64 {
    let mut budget = limit - 1e-9;
    for _ in 0..8 {
        match (budget + 1e-9).total_cmp(&limit) {
            std::cmp::Ordering::Less => budget = budget.next_up(),
            std::cmp::Ordering::Greater => budget = budget.next_down(),
            std::cmp::Ordering::Equal => break,
        }
    }
    budget
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference's budget test: the left-to-right sum with slot `i`
    /// replaced, against `budget + 1e-9`.
    fn reference(terms: &[f64], i: usize, term: f64, budget: f64) -> bool {
        let mut cost = 0.0;
        for (j, &x) in terms.iter().enumerate() {
            cost += if j == i { term } else { x };
        }
        cost <= budget + 1e-9
    }

    /// A SplitMix64 step: the property's terms come from one drawn seed.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A term from a wide magnitude range, with repeated prices and
    /// zeros, and, when `wild`, the non-finite and negative values too.
    fn term(state: &mut u64, wild: bool) -> f64 {
        let r = next(state);
        let pick = |v: &[f64]| v[(r >> 8) as usize % v.len()];
        match r % if wild { 16 } else { 15 } {
            0..=7 => {
                let exp = (r >> 8) % 25;
                let mantissa = 1 + (r >> 16) % 999;
                mantissa as f64 * 0.08 * 10f64.powi(exp as i32 - 12)
            }
            8..=11 => pick(&[0.08, 0.16, 0.32, 0.64, 1.0 / 3.0]),
            12..=14 => 0.0,
            _ => pick(&[f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.08]),
        }
    }

    /// Budgets whose limits sit on `sum`, up to four ulps to either side
    /// of it, and at relative distances around the ledger's error bound.
    fn budgets_around(sum: f64) -> Vec<f64> {
        let (mut up, mut down) = (sum, sum);
        let mut out = vec![budget_for_limit(sum)];
        for _ in 0..4 {
            (up, down) = (up.next_up(), down.next_down());
            out.extend([budget_for_limit(up), budget_for_limit(down)]);
        }
        for rel in [1e-6, 1e-9, 1e-11, 1e-12, 1e-13, 1e-14, 1e-15] {
            out.extend([
                budget_for_limit(sum * (1.0 + rel)),
                budget_for_limit(sum * (1.0 - rel)),
            ]);
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// After a long run of committed updates, every trial's
        /// decision equals the exact left-to-right test, at budgets that
        /// put the trial's exact sum on the limit.
        #[test]
        fn ledger_decides_as_the_exact_sum(
            seed in 0u64..u64::MAX,
            n in 1usize..40,
            updates in 0usize..300,
            trials in 1usize..8,
        ) {
            let mut state = seed;
            let wild = seed % 4 == 0;
            let terms: Vec<f64> = (0..n).map(|_| term(&mut state, wild)).collect();
            let updates: Vec<(usize, f64)> = (0..updates)
                .map(|_| (next(&mut state) as usize % n, term(&mut state, wild)))
                .collect();
            let mut current = terms.clone();
            for &(i, t) in &updates {
                current[i] = t;
            }
            let ledger_at = |budget: f64| {
                let mut ledger = RentLedger::new(terms.clone(), budget);
                for &(i, t) in &updates {
                    ledger.set(i, t);
                }
                ledger
            };
            for _ in 0..trials {
                let (i, t) = (next(&mut state) as usize % n, term(&mut state, wild));
                let mut exact = current.clone();
                exact[i] = t;
                let sum = exact.iter().fold(0.0, |acc, &x| acc + x);
                let mut budgets = budgets_around(sum);
                budgets.extend(budgets_around(current.iter().fold(0.0, |a, &x| a + x)));
                budgets.extend([current[i], 0.0, f64::INFINITY, f64::NAN]);
                for budget in budgets {
                    prop_assert_eq!(
                        ledger_at(budget).fits(i, t),
                        reference(&current, i, t, budget),
                        "slot {} term {} budget {}", i, t, budget
                    );
                }
            }
        }
    }

    /// Ten thousand equal terms and ten thousand upgrades, as on an
    /// equal-runtime DAG, at limits on the final rent and one ulp under
    /// it: the last upgrade lands on the limit.
    #[test]
    fn upgrades_to_an_exact_limit_follow_the_exact_sum() {
        let n = 10_000;
        let last: f64 = vec![0.16; n].iter().fold(0.0, |a, &x| a + x);
        for limit in [last, last.next_down()] {
            let budget = budget_for_limit(limit);
            let mut current = vec![0.08; n];
            let mut ledger = RentLedger::new(current.clone(), budget);
            for i in 0..n {
                if i % 500 == 0 || i + 8 > n {
                    assert_eq!(ledger.fits(i, 0.16), reference(&current, i, 0.16, budget));
                    assert_eq!(ledger.fits(i, 0.32), reference(&current, i, 0.32, budget));
                }
                if i + 1 < n {
                    assert!(ledger.fits(i, 0.16));
                }
                ledger.set(i, 0.16);
                current[i] = 0.16;
            }
        }
    }
}
