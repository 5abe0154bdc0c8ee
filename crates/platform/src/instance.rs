//! On-demand instance types and their performance model.

/// The four EC2 on-demand instance types considered in the paper.
///
/// The paper assigns each type a number of cores (1, 2, 4, 8) and a
/// *speed-up* over the one-core reference machine of 1, 1.6, 2.1 and 2.7 —
/// figures reported for the statistical package Stata/MP. A task whose
/// reference runtime is `t` seconds executes in `t / speedup` seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InstanceType {
    /// 1 core, speed-up 1.0, 1 Gb/s link. The reference machine
    /// (roughly a 1.0–1.2 GHz 2007 Opteron per CPU unit).
    Small,
    /// 2 cores, speed-up 1.6, 1 Gb/s link.
    Medium,
    /// 4 cores, speed-up 2.1, 10 Gb/s link.
    Large,
    /// 8 cores, speed-up 2.7, 10 Gb/s link.
    XLarge,
}

impl InstanceType {
    /// All types, slowest first. The order is also the upgrade order used
    /// by the dynamic algorithms (CPA-Eager, Gain, AllPar1LnSDyn).
    pub const ALL: [InstanceType; 4] = [
        InstanceType::Small,
        InstanceType::Medium,
        InstanceType::Large,
        InstanceType::XLarge,
    ];

    /// Number of physical cores of the type.
    #[must_use]
    pub const fn cores(self) -> u32 {
        match self {
            InstanceType::Small => 1,
            InstanceType::Medium => 2,
            InstanceType::Large => 4,
            InstanceType::XLarge => 8,
        }
    }

    /// Speed-up over the `Small` one-core reference (Sect. IV-A).
    #[must_use]
    pub const fn speedup(self) -> f64 {
        match self {
            InstanceType::Small => 1.0,
            InstanceType::Medium => 1.6,
            InstanceType::Large => 2.1,
            InstanceType::XLarge => 2.7,
        }
    }

    /// Network bandwidth of the instance in gigabits per second: the paper
    /// gives small and medium instances 1 Gb links, large and xlarge 10 Gb.
    #[must_use]
    pub const fn bandwidth_gbps(self) -> f64 {
        match self {
            InstanceType::Small | InstanceType::Medium => 1.0,
            InstanceType::Large | InstanceType::XLarge => 10.0,
        }
    }

    /// Execution time of a task on this type given its reference runtime
    /// (seconds on a `Small` instance).
    #[must_use]
    pub fn execution_time(self, reference_seconds: f64) -> f64 {
        reference_seconds / self.speedup()
    }

    /// The next faster type, if any (`Small → Medium → Large → XLarge`).
    #[must_use]
    pub const fn next_faster(self) -> Option<InstanceType> {
        match self {
            InstanceType::Small => Some(InstanceType::Medium),
            InstanceType::Medium => Some(InstanceType::Large),
            InstanceType::Large => Some(InstanceType::XLarge),
            InstanceType::XLarge => None,
        }
    }

    /// The next slower type, if any (`XLarge → Large → Medium → Small`).
    #[must_use]
    pub const fn next_slower(self) -> Option<InstanceType> {
        match self {
            InstanceType::Small => None,
            InstanceType::Medium => Some(InstanceType::Small),
            InstanceType::Large => Some(InstanceType::Medium),
            InstanceType::XLarge => Some(InstanceType::Large),
        }
    }

    /// Speed-up gained per unit of price relative to `Small` assuming the
    /// EC2 linear-in-cores pricing (`price(t) = price(small) × cores(t)`…
    /// with medium priced at 2× small, large at 4×, xlarge at 8×).
    ///
    /// Small = 1.0, Medium = 0.8, Large = 0.525, XLarge = 0.3375 — the
    /// figure underlying the paper's observation that large instances
    /// "bring gain at the detriment of considerable cost". (The paper
    /// quotes 0.675 for large; with its own speed-ups and prices the value
    /// is 2.1/4 = 0.525. See EXPERIMENTS.md.)
    #[must_use]
    pub fn speed_per_price(self) -> f64 {
        self.speedup() / f64::from(self.price_multiplier())
    }

    /// Price multiplier over `Small` used by the Table II price list
    /// (medium 2×, large 4×, xlarge 8×).
    #[must_use]
    pub const fn price_multiplier(self) -> u32 {
        match self {
            InstanceType::Small => 1,
            InstanceType::Medium => 2,
            InstanceType::Large => 4,
            InstanceType::XLarge => 8,
        }
    }

    /// Short suffix used in the paper's figures (`-s`, `-m`, `-l`, `-xl`).
    #[must_use]
    pub const fn suffix(self) -> &'static str {
        match self {
            InstanceType::Small => "s",
            InstanceType::Medium => "m",
            InstanceType::Large => "l",
            InstanceType::XLarge => "xl",
        }
    }

    /// Lower-case API-style name (`small`, `medium`, `large`, `xlarge`).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            InstanceType::Small => "small",
            InstanceType::Medium => "medium",
            InstanceType::Large => "large",
            InstanceType::XLarge => "xlarge",
        }
    }

    /// Parse an instance type from either its full name or its figure
    /// suffix, case-insensitively.
    #[must_use]
    pub fn parse(s: &str) -> Option<InstanceType> {
        match s.to_ascii_lowercase().as_str() {
            "s" | "small" => Some(InstanceType::Small),
            "m" | "medium" => Some(InstanceType::Medium),
            "l" | "large" => Some(InstanceType::Large),
            "xl" | "xlarge" => Some(InstanceType::XLarge),
            _ => None,
        }
    }
}

impl std::fmt::Display for InstanceType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedups_match_paper() {
        assert_eq!(InstanceType::Small.speedup(), 1.0);
        assert_eq!(InstanceType::Medium.speedup(), 1.6);
        assert_eq!(InstanceType::Large.speedup(), 2.1);
        assert_eq!(InstanceType::XLarge.speedup(), 2.7);
    }

    #[test]
    fn cores_double_each_step() {
        let mut prev = 0;
        for t in InstanceType::ALL {
            assert!(t.cores() > prev);
            prev = t.cores();
        }
        assert_eq!(InstanceType::XLarge.cores(), 8);
    }

    #[test]
    fn execution_time_scales_inversely_with_speedup() {
        let base = 1000.0;
        assert_eq!(InstanceType::Small.execution_time(base), 1000.0);
        assert!((InstanceType::Medium.execution_time(base) - 625.0).abs() < 1e-9);
        assert!((InstanceType::XLarge.execution_time(base) - 1000.0 / 2.7).abs() < 1e-9);
    }

    #[test]
    fn upgrade_chain_is_total_and_acyclic() {
        let mut t = InstanceType::Small;
        let mut hops = 0;
        while let Some(next) = t.next_faster() {
            assert!(next.speedup() > t.speedup());
            t = next;
            hops += 1;
        }
        assert_eq!(hops, 3);
        assert_eq!(t, InstanceType::XLarge);
    }

    #[test]
    fn downgrade_is_inverse_of_upgrade() {
        for t in InstanceType::ALL {
            if let Some(f) = t.next_faster() {
                assert_eq!(f.next_slower(), Some(t));
            }
            if let Some(s) = t.next_slower() {
                assert_eq!(s.next_faster(), Some(t));
            }
        }
    }

    #[test]
    fn speed_per_price_decreases_with_size() {
        // The economic core of the paper's Sect. V discussion.
        assert_eq!(InstanceType::Small.speed_per_price(), 1.0);
        assert!((InstanceType::Medium.speed_per_price() - 0.8).abs() < 1e-12);
        assert!((InstanceType::Large.speed_per_price() - 0.525).abs() < 1e-12);
        let mut prev = f64::INFINITY;
        for t in InstanceType::ALL {
            assert!(t.speed_per_price() < prev);
            prev = t.speed_per_price();
        }
    }

    #[test]
    fn bandwidth_split_small_medium_vs_large() {
        assert_eq!(InstanceType::Small.bandwidth_gbps(), 1.0);
        assert_eq!(InstanceType::Medium.bandwidth_gbps(), 1.0);
        assert_eq!(InstanceType::Large.bandwidth_gbps(), 10.0);
        assert_eq!(InstanceType::XLarge.bandwidth_gbps(), 10.0);
    }

    #[test]
    fn parse_roundtrip() {
        for t in InstanceType::ALL {
            assert_eq!(InstanceType::parse(t.name()), Some(t));
            assert_eq!(InstanceType::parse(t.suffix()), Some(t));
            assert_eq!(InstanceType::parse(&t.name().to_uppercase()), Some(t));
        }
        assert_eq!(InstanceType::parse("huge"), None);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(InstanceType::Medium.to_string(), "medium");
    }
}
