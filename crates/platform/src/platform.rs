//! The assembled platform: prices + network + billing in one value.

use crate::instance::InstanceType;
use crate::network::{NetworkModel, TransferSpec};
use crate::pricing::PriceCatalog;
use crate::region::Region;

/// A complete cloud platform model, bundling the price catalog, the
/// network model and the default region used when the caller does not care
/// about placement (the paper's CPU-intensive experiments are effectively
/// single-region).
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// On-demand and transfer prices (Table II).
    pub prices: PriceCatalog,
    /// Store-and-forward network parameters.
    pub network: NetworkModel,
    /// Region VMs are launched in unless specified otherwise.
    pub default_region: Region,
    /// Constant VM boot time in seconds. The paper ignores boot time
    /// (static scheduling with pre-booting) so the default is zero; set it
    /// to up to ~120 s to model the measured EC2 behaviour of \[22\].
    pub boot_time_s: f64,
}

impl Default for Platform {
    fn default() -> Self {
        Platform {
            prices: PriceCatalog::ec2_oct_2012(),
            network: NetworkModel::default(),
            default_region: Region::default_region(),
            boot_time_s: 0.0,
        }
    }
}

impl Platform {
    /// The paper's experimental platform: EC2 October 2012 prices, zero
    /// boot time, default region US East.
    ///
    /// # Examples
    /// ```
    /// use cws_platform::{InstanceType, Platform};
    ///
    /// let p = Platform::ec2_paper();
    /// assert_eq!(p.price(InstanceType::Small), 0.08);
    /// assert_eq!(p.price(InstanceType::XLarge), 0.64);
    /// ```
    #[must_use]
    pub fn ec2_paper() -> Self {
        Self::default()
    }

    /// Same platform but with a non-zero constant boot time.
    #[must_use]
    pub fn with_boot_time(mut self, seconds: f64) -> Self {
        assert!(seconds >= 0.0, "boot time must be non-negative");
        self.boot_time_s = seconds;
        self
    }

    /// Same platform with another default region.
    #[must_use]
    pub fn with_default_region(mut self, region: Region) -> Self {
        self.default_region = region;
        self
    }

    /// Price per BTU of `itype` in the default region.
    #[must_use]
    pub fn price(&self, itype: InstanceType) -> f64 {
        self.prices.price(self.default_region, itype)
    }

    /// Price per BTU of `itype` in an explicit region.
    #[must_use]
    pub fn price_in(&self, region: Region, itype: InstanceType) -> f64 {
        self.prices.price(region, itype)
    }

    /// Transfer time between two VMs in the default region.
    #[must_use]
    pub fn transfer_time(&self, size_mb: f64, from: InstanceType, to: InstanceType) -> f64 {
        self.network.transfer_time(&TransferSpec {
            size_mb,
            from_type: from,
            to_type: to,
            from_region: self.default_region,
            to_region: self.default_region,
        })
    }

    /// Transfer time between two VMs in explicit regions.
    #[must_use]
    pub fn transfer_time_between(
        &self,
        size_mb: f64,
        from: (Region, InstanceType),
        to: (Region, InstanceType),
    ) -> f64 {
        self.network.transfer_time(&TransferSpec {
            size_mb,
            from_type: from.1,
            to_type: to.1,
            from_region: from.0,
            to_region: to.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_platform_defaults() {
        let p = Platform::ec2_paper();
        assert_eq!(p.default_region, Region::UsEastVirginia);
        assert_eq!(p.boot_time_s, 0.0);
        assert!((p.price(InstanceType::Small) - 0.08).abs() < 1e-12);
    }

    #[test]
    fn builders_compose() {
        let p = Platform::ec2_paper()
            .with_boot_time(90.0)
            .with_default_region(Region::EuDublin);
        assert_eq!(p.boot_time_s, 90.0);
        assert!((p.price(InstanceType::Small) - 0.085).abs() < 1e-12);
    }

    #[test]
    fn transfer_time_uses_default_region_latency() {
        let p = Platform::ec2_paper();
        let t = p.transfer_time(0.0, InstanceType::Small, InstanceType::Small);
        assert!((t - p.network.intra_region_latency_s).abs() < 1e-12);
    }

    #[test]
    fn cross_region_transfer_uses_inter_latency() {
        let p = Platform::ec2_paper();
        let t = p.transfer_time_between(
            0.0,
            (Region::UsEastVirginia, InstanceType::Small),
            (Region::AsiaTokyo, InstanceType::Small),
        );
        assert!((t - p.network.inter_region_latency_s).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_boot_time_rejected() {
        let _ = Platform::ec2_paper().with_boot_time(-5.0);
    }
}
