//! The seven Amazon EC2 regions of the paper's Table II.

/// An Amazon EC2 region as of October 2012.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Region {
    /// US East (Northern Virginia).
    UsEastVirginia,
    /// US West (Oregon).
    UsWestOregon,
    /// US West (Northern California).
    UsWestCalifornia,
    /// EU (Dublin, Ireland).
    EuDublin,
    /// Asia Pacific (Singapore).
    AsiaSingapore,
    /// Asia Pacific (Tokyo). (Spelled "Tokio" in the paper.)
    AsiaTokyo,
    /// South America (São Paulo). (Spelled "Sao Paolo" in the paper.)
    SaSaoPaulo,
}

impl Region {
    /// All seven regions, in Table II order.
    pub const ALL: [Region; 7] = [
        Region::UsEastVirginia,
        Region::UsWestOregon,
        Region::UsWestCalifornia,
        Region::EuDublin,
        Region::AsiaSingapore,
        Region::AsiaTokyo,
        Region::SaSaoPaulo,
    ];

    /// Human-readable name matching the paper's table rows.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Region::UsEastVirginia => "US East Virginia",
            Region::UsWestOregon => "US West Oregon",
            Region::UsWestCalifornia => "US West California",
            Region::EuDublin => "EU Dublin",
            Region::AsiaSingapore => "Asia Singapore",
            Region::AsiaTokyo => "Asia Tokyo",
            Region::SaSaoPaulo => "SA Sao Paulo",
        }
    }

    /// Short machine identifier (`us-east`, `eu-dublin`, …).
    #[must_use]
    pub const fn id(self) -> &'static str {
        match self {
            Region::UsEastVirginia => "us-east",
            Region::UsWestOregon => "us-west-oregon",
            Region::UsWestCalifornia => "us-west-california",
            Region::EuDublin => "eu-dublin",
            Region::AsiaSingapore => "asia-singapore",
            Region::AsiaTokyo => "asia-tokyo",
            Region::SaSaoPaulo => "sa-sao-paulo",
        }
    }

    /// Parse from the short identifier.
    #[must_use]
    pub fn parse(s: &str) -> Option<Region> {
        Region::ALL.into_iter().find(|r| r.id() == s)
    }

    /// The cheapest region for on-demand instances (US East / US West
    /// Oregon are tied; Table II order puts US East first). This is the
    /// default region used by all single-region experiments.
    #[must_use]
    pub const fn default_region() -> Region {
        Region::UsEastVirginia
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_regions() {
        assert_eq!(Region::ALL.len(), 7);
    }

    #[test]
    fn ids_unique() {
        let mut ids: Vec<_> = Region::ALL.iter().map(|r| r.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 7);
    }

    #[test]
    fn parse_roundtrip() {
        for r in Region::ALL {
            assert_eq!(Region::parse(r.id()), Some(r));
        }
        assert_eq!(Region::parse("mars-olympus"), None);
    }

    #[test]
    fn default_region_is_us_east() {
        assert_eq!(Region::default_region(), Region::UsEastVirginia);
    }
}
