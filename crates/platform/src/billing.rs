//! BTU (Billing Time Unit) arithmetic.
//!
//! Amazon-style on-demand billing rounds every rental up to an integral
//! number of BTUs. The paper fixes `1 BTU = 3600 s` and all "NotExceed"
//! provisioning decisions hinge on the *remaining* time of the BTU a VM is
//! currently inside.

/// One Billing Time Unit in seconds (Sect. IV-A: `one BTU = 3,600 s`).
pub const BTU_SECONDS: f64 = 3600.0;

/// Tolerance used when comparing times against BTU boundaries, to absorb
/// floating-point noise accumulated along schedule arithmetic.
pub const BTU_EPSILON: f64 = 1e-6;

/// Number of BTUs billed for a rental spanning `span` seconds.
///
/// Zero-length rentals are billed one BTU (a booted VM is paid for at
/// least one unit, matching EC2 semantics). Spans too long to count in a
/// `u64` saturate at `u64::MAX` BTUs.
///
/// # Examples
/// ```
/// use cws_platform::billing::btus_for_span;
///
/// assert_eq!(btus_for_span(1.0), 1);
/// assert_eq!(btus_for_span(3600.0), 1);
/// assert_eq!(btus_for_span(3601.0), 2);
/// ```
#[must_use]
pub fn btus_for_span(span: f64) -> u64 {
    assert!(span >= 0.0, "rental span must be non-negative, got {span}");
    if span <= BTU_EPSILON {
        return 1;
    }
    // `as u64` saturates, so only the `+ 1` can overflow.
    (((span - BTU_EPSILON) / BTU_SECONDS).floor() as u64).saturating_add(1)
}

/// Remaining seconds until the end of the BTU that `elapsed` seconds of
/// rental currently sit in.
///
/// At an exact BTU boundary the remaining time is **zero**: the current
/// rental has been fully consumed and fitting anything more requires
/// paying a fresh BTU. This convention makes the "NotExceed" policies
/// reproduce the paper's degenerate-case identities (see DESIGN.md §3).
#[must_use]
pub fn remaining_in_btu(elapsed: f64) -> f64 {
    assert!(
        elapsed >= 0.0,
        "elapsed must be non-negative, got {elapsed}"
    );
    let rem = elapsed % BTU_SECONDS;
    if rem <= BTU_EPSILON || (BTU_SECONDS - rem) <= BTU_EPSILON {
        0.0
    } else {
        BTU_SECONDS - rem
    }
}

/// Whether a task of `duration` seconds fits in the currently-paid BTUs of
/// a rental that has already consumed `elapsed` seconds.
#[must_use]
pub fn fits_in_current_btu(elapsed: f64, duration: f64) -> bool {
    duration <= remaining_in_btu(elapsed) + BTU_EPSILON
}

/// Accumulates the rental window of one VM and converts it to billed BTUs,
/// cost and idle time.
///
/// The meter tracks the first moment the VM is needed (`start`), the last
/// moment it is released (`end`) and the total busy seconds inside that
/// window. **Billing follows the paper's model: BTUs are counted over the
/// VM's consumed execution time** (`ceil(busy / BTU)`), not the wall-clock
/// window — the provisioner stops an idle VM at its BTU boundary and
/// resumes it for the next task, so waiting gaps between tasks are not
/// paid for. This is what makes the paper's "NotExceed" test — *"the task
/// execution time exceeds the remaining BTU"* — and its cost identities
/// (e.g. small-instance `AllPar[Not]Exceed` never costs more than
/// `OneVMperTask`) come out exactly.
///
/// The schedule-level metrics of the paper derive from the meter:
///
/// * billed seconds = `btus × BTU_SECONDS` with `btus = ⌈busy / BTU⌉`
/// * cost = `btus × price_per_btu`
/// * idle = `billed seconds − busy seconds` (the dark "I" rectangles of
///   the paper's Fig. 1: paid-for but unused BTU tails)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BtuMeter {
    /// Rental start time (seconds since schedule origin).
    pub start: f64,
    /// Rental end time; `>= start`.
    pub end: f64,
    /// Total seconds the VM spent executing tasks within `[start, end]`.
    pub busy: f64,
}

impl BtuMeter {
    /// A meter opening at `start` with nothing executed yet.
    #[must_use]
    pub fn open_at(start: f64) -> Self {
        BtuMeter {
            start,
            end: start,
            busy: 0.0,
        }
    }

    /// Record a task occupying the VM during `[task_start, task_end]`.
    ///
    /// # Panics
    /// Panics if the interval is inverted or begins before the rental
    /// start.
    pub fn record(&mut self, task_start: f64, task_end: f64) {
        assert!(
            task_end >= task_start,
            "task interval inverted: [{task_start}, {task_end}]"
        );
        assert!(
            task_start >= self.start - BTU_EPSILON,
            "task starts at {task_start} before rental start {}",
            self.start
        );
        self.busy += task_end - task_start;
        if task_end > self.end {
            self.end = task_end;
        }
    }

    /// Seconds between rental start and rental end.
    #[must_use]
    pub fn span(&self) -> f64 {
        self.end - self.start
    }

    /// Billed BTUs: consumed execution time rounded up
    /// (`⌈busy / BTU⌉`; a VM that never ran still pays one BTU).
    #[must_use]
    pub fn btus(&self) -> u64 {
        btus_for_span(self.busy)
    }

    /// Billed wall-clock seconds (`btus × 3600`).
    #[must_use]
    pub fn billed_seconds(&self) -> f64 {
        self.btus() as f64 * BTU_SECONDS
    }

    /// Idle seconds: paid-for time during which no task executed — the
    /// unused tail of the last billed BTU.
    #[must_use]
    pub fn idle_seconds(&self) -> f64 {
        (self.billed_seconds() - self.busy).max(0.0)
    }

    /// Rental cost given the per-BTU price: consumed busy time rounds
    /// up to whole BTUs before pricing, so a second past the boundary
    /// costs a full extra unit.
    ///
    /// # Examples
    /// ```
    /// use cws_platform::billing::BtuMeter;
    ///
    /// let mut meter = BtuMeter::open_at(0.0);
    /// meter.record(0.0, 4000.0); // 4000 busy seconds
    /// assert_eq!(meter.btus(), 2); // ⌈4000 / 3600⌉
    /// assert!((meter.cost(0.08) - 0.16).abs() < 1e-12); // 2 × $0.08
    /// assert!((meter.idle_seconds() - 3200.0).abs() < 1e-9); // paid, unused
    /// ```
    #[must_use]
    pub fn cost(&self, price_per_btu: f64) -> f64 {
        self.btus() as f64 * price_per_btu
    }

    /// Whether a task of `duration` seconds would still finish inside the
    /// already-paid BTUs — the paper's NotExceed test: does the execution
    /// time exceed the remaining BTU of the VM?
    #[must_use]
    pub fn fits_without_new_btu(&self, duration: f64) -> bool {
        fits_in_current_btu(self.busy, duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_span_bills_one_btu() {
        assert_eq!(btus_for_span(0.0), 1);
    }

    #[test]
    fn sub_btu_span_bills_one() {
        assert_eq!(btus_for_span(1.0), 1);
        assert_eq!(btus_for_span(3599.9), 1);
    }

    #[test]
    fn exact_btu_boundary_bills_exactly() {
        assert_eq!(btus_for_span(3600.0), 1);
        assert_eq!(btus_for_span(7200.0), 2);
        assert_eq!(btus_for_span(36000.0), 10);
    }

    #[test]
    fn just_over_boundary_bills_next() {
        assert_eq!(btus_for_span(3600.01), 2);
        assert_eq!(btus_for_span(7200.5), 3);
    }

    #[test]
    fn spans_past_u64_btus_saturate() {
        // (7e22 − ε) / 3600 rounds past u64::MAX; the `+ 1` used to
        // overflow (a debug panic, zero BTUs in release).
        assert_eq!(btus_for_span(7e22), u64::MAX);
        assert_eq!(btus_for_span(f64::MAX), u64::MAX);
        assert_eq!(btus_for_span(f64::INFINITY), u64::MAX);
    }

    #[test]
    fn float_noise_at_boundary_is_absorbed() {
        assert_eq!(btus_for_span(3600.0 + 1e-9), 1);
        assert_eq!(btus_for_span(3600.0 - 1e-9), 1);
    }

    #[test]
    fn remaining_at_origin_is_zero() {
        // Fresh rental (0 elapsed) means the BTU has not been opened; by
        // convention remaining is 0 so NotExceed rents a new VM — which is
        // what actually happens: the task opens the first BTU.
        assert_eq!(remaining_in_btu(0.0), 0.0);
    }

    #[test]
    fn remaining_mid_btu() {
        assert!((remaining_in_btu(1000.0) - 2600.0).abs() < 1e-9);
        assert!((remaining_in_btu(3600.0 + 100.0) - 3500.0).abs() < 1e-9);
    }

    #[test]
    fn remaining_at_boundary_is_zero() {
        assert_eq!(remaining_in_btu(3600.0), 0.0);
        assert_eq!(remaining_in_btu(7200.0), 0.0);
    }

    #[test]
    fn fit_check_respects_remaining() {
        assert!(fits_in_current_btu(1000.0, 2600.0));
        assert!(!fits_in_current_btu(1000.0, 2601.0));
        assert!(!fits_in_current_btu(3600.0, 1.0));
    }

    #[test]
    fn meter_accumulates_busy_and_extends_end() {
        let mut m = BtuMeter::open_at(100.0);
        m.record(100.0, 600.0);
        m.record(700.0, 1200.0);
        assert!((m.busy - 1000.0).abs() < 1e-9);
        assert!((m.span() - 1100.0).abs() < 1e-9);
        assert_eq!(m.btus(), 1);
        assert!((m.idle_seconds() - 2600.0).abs() < 1e-9);
    }

    #[test]
    fn meter_cost_scales_with_price() {
        let mut m = BtuMeter::open_at(0.0);
        m.record(0.0, 4000.0);
        assert_eq!(m.btus(), 2);
        assert!((m.cost(0.08) - 0.16).abs() < 1e-12);
    }

    #[test]
    fn meter_fit_check() {
        let mut m = BtuMeter::open_at(0.0);
        m.record(0.0, 1000.0);
        assert!(m.fits_without_new_btu(2600.0));
        assert!(!m.fits_without_new_btu(2700.0));
    }

    #[test]
    #[should_panic(expected = "task interval inverted")]
    fn meter_rejects_inverted_interval() {
        let mut m = BtuMeter::open_at(0.0);
        m.record(10.0, 5.0);
    }

    #[test]
    #[should_panic(expected = "before rental start")]
    fn meter_rejects_task_before_rental() {
        let mut m = BtuMeter::open_at(100.0);
        m.record(0.0, 5.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_span_panics() {
        let _ = btus_for_span(-1.0);
    }
}
