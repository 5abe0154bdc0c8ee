//! VM energy accounting.
//!
//! Sect. V: "in an energy aware context their negative impact will be
//! even more obvious since unused VMs consume energy for no intended
//! purpose" — referencing the energy-aware policies of Le et al. \[13\].
//! This model assigns busy and idle power draws per core and converts a
//! schedule's busy/billed split into energy consumed, so the idle time
//! of Fig. 5 can be restated in joules.

use crate::instance::InstanceType;

/// Per-core power model. Defaults follow the typical 2012 server
/// figures Le et al. use: ~100 W per busy core, with idle cores drawing
/// about half of that (servers are notoriously non-energy-proportional).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Power draw of one busy core, watts.
    pub busy_watts_per_core: f64,
    /// Power draw of one idle (rented but unused) core, watts.
    pub idle_watts_per_core: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            busy_watts_per_core: 100.0,
            idle_watts_per_core: 50.0,
        }
    }
}

impl EnergyModel {
    /// Construct a model.
    ///
    /// # Panics
    /// Panics if either draw is negative, or idle exceeds busy.
    #[must_use]
    pub fn new(busy_watts_per_core: f64, idle_watts_per_core: f64) -> Self {
        assert!(
            busy_watts_per_core >= 0.0 && idle_watts_per_core >= 0.0,
            "power draws must be non-negative"
        );
        assert!(
            idle_watts_per_core <= busy_watts_per_core,
            "idle draw cannot exceed busy draw"
        );
        EnergyModel {
            busy_watts_per_core,
            idle_watts_per_core,
        }
    }

    /// Energy in joules consumed by one VM of type `itype` that was busy
    /// `busy_seconds` out of `billed_seconds` of paid time.
    ///
    /// # Panics
    /// Panics if busy exceeds billed (with a small tolerance).
    #[must_use]
    pub fn vm_energy_j(&self, itype: InstanceType, busy_seconds: f64, billed_seconds: f64) -> f64 {
        assert!(
            busy_seconds <= billed_seconds + 1e-6,
            "busy {busy_seconds} exceeds billed {billed_seconds}"
        );
        let cores = f64::from(itype.cores());
        let idle = (billed_seconds - busy_seconds).max(0.0);
        cores * (busy_seconds * self.busy_watts_per_core + idle * self.idle_watts_per_core)
    }

    /// Convert joules to kWh (the billing unit of datacenter energy).
    #[must_use]
    pub fn to_kwh(joules: f64) -> f64 {
        joules / 3.6e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_half_idle() {
        let m = EnergyModel::default();
        assert_eq!(m.busy_watts_per_core, 100.0);
        assert_eq!(m.idle_watts_per_core, 50.0);
    }

    #[test]
    fn fully_busy_vm_draws_busy_power() {
        let m = EnergyModel::default();
        // small (1 core), busy the full hour: 100 W × 3600 s = 360 kJ
        let e = m.vm_energy_j(InstanceType::Small, 3600.0, 3600.0);
        assert!((e - 360_000.0).abs() < 1e-6);
        assert!((EnergyModel::to_kwh(e) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn idle_tail_costs_half() {
        let m = EnergyModel::default();
        // 1 core, 0 busy of one BTU: 50 W × 3600 = 180 kJ
        let e = m.vm_energy_j(InstanceType::Small, 0.0, 3600.0);
        assert!((e - 180_000.0).abs() < 1e-6);
    }

    #[test]
    fn bigger_instances_scale_by_cores() {
        let m = EnergyModel::default();
        let s = m.vm_energy_j(InstanceType::Small, 1800.0, 3600.0);
        let xl = m.vm_energy_j(InstanceType::XLarge, 1800.0, 3600.0);
        assert!((xl - 8.0 * s).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "exceeds billed")]
    fn busy_beyond_billed_rejected() {
        let m = EnergyModel::default();
        let _ = m.vm_energy_j(InstanceType::Small, 4000.0, 3600.0);
    }

    #[test]
    #[should_panic(expected = "idle draw cannot exceed busy")]
    fn inverted_model_rejected() {
        let _ = EnergyModel::new(50.0, 100.0);
    }
}
