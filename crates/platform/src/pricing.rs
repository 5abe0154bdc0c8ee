//! The paper's Table II: Amazon EC2 on-demand prices, October 31st 2012.

use crate::instance::InstanceType;
use crate::region::Region;

/// Monthly outbound-transfer volume bracket in which per-GB transfer
/// pricing applies. The paper: "Communication costs are per GB and were
/// considered only when moving data outside a region. They are applied if
/// the transfer size is between (1GB, 10TB] per month."
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferBracket {
    /// Exclusive lower bound in gigabytes (1 GB).
    pub min_gb_exclusive: f64,
    /// Inclusive upper bound in gigabytes (10 TB).
    pub max_gb_inclusive: f64,
}

impl Default for TransferBracket {
    fn default() -> Self {
        TransferBracket {
            min_gb_exclusive: 1.0,
            max_gb_inclusive: 10_240.0, // 10 TB in GB
        }
    }
}

impl TransferBracket {
    /// Whether a monthly volume (GB) is billable under this bracket.
    #[must_use]
    pub fn billable(&self, monthly_gb: f64) -> bool {
        monthly_gb > self.min_gb_exclusive && monthly_gb <= self.max_gb_inclusive
    }
}

/// Price catalog reproducing Table II.
///
/// Prices are US dollars per BTU (hour) for on-demand instances, plus the
/// per-GB price for data transferred out of the region.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PriceCatalog {
    /// The bracket within which outbound transfer volume is billed.
    pub transfer_bracket: TransferBracket,
}

impl PriceCatalog {
    /// Build the October 2012 catalog.
    #[must_use]
    pub fn ec2_oct_2012() -> Self {
        Self::default()
    }

    /// Price in USD of the `Small` instance per BTU in `region`
    /// (first numeric column of Table II).
    #[must_use]
    pub fn small_price(&self, region: Region) -> f64 {
        match region {
            Region::UsEastVirginia | Region::UsWestOregon => 0.08,
            Region::UsWestCalifornia => 0.09,
            Region::EuDublin | Region::AsiaSingapore => 0.085,
            Region::AsiaTokyo => 0.092,
            Region::SaSaoPaulo => 0.115,
        }
    }

    /// On-demand price in USD per BTU (Table II). Medium/large/xlarge are
    /// exactly 2×/4×/8× the small price in every region, following the EC2
    /// `cost_BTU/core × #cores` formula the paper quotes.
    #[must_use]
    pub fn price(&self, region: Region, itype: InstanceType) -> f64 {
        self.small_price(region) * f64::from(itype.price_multiplier())
    }

    /// Per-GB price of data transferred *out* of `region` (last column of
    /// Table II).
    #[must_use]
    pub fn transfer_out_price(&self, region: Region) -> f64 {
        match region {
            Region::UsEastVirginia
            | Region::UsWestOregon
            | Region::UsWestCalifornia
            | Region::EuDublin => 0.12,
            Region::AsiaSingapore => 0.19,
            Region::AsiaTokyo => 0.201,
            Region::SaSaoPaulo => 0.25,
        }
    }

    /// Cost of moving `gb` gigabytes from `from` to `to`, given the total
    /// volume already moved out of `from` this month. Intra-region moves
    /// are free; inter-region moves are billed per GB only for the part of
    /// the volume that falls inside the billable bracket.
    #[must_use]
    pub fn transfer_cost(&self, from: Region, to: Region, gb: f64, monthly_gb_so_far: f64) -> f64 {
        if from == to || gb <= 0.0 {
            return 0.0;
        }
        let start = monthly_gb_so_far;
        let end = monthly_gb_so_far + gb;
        // Billable portion of [start, end] clipped to the bracket
        // (min_gb_exclusive, max_gb_inclusive].
        let lo = start.max(self.transfer_bracket.min_gb_exclusive);
        let hi = end.min(self.transfer_bracket.max_gb_inclusive);
        let billable_gb = (hi - lo).max(0.0);
        billable_gb * self.transfer_out_price(from)
    }

    /// The cheapest region for a given instance type.
    #[must_use]
    pub fn cheapest_region(&self, itype: InstanceType) -> Region {
        let mut best = Region::ALL[0];
        for r in Region::ALL {
            if self.price(r, itype) < self.price(best, itype) {
                best = r;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cat() -> PriceCatalog {
        PriceCatalog::ec2_oct_2012()
    }

    #[test]
    fn table_ii_small_prices() {
        let c = cat();
        assert_eq!(c.small_price(Region::UsEastVirginia), 0.08);
        assert_eq!(c.small_price(Region::UsWestOregon), 0.08);
        assert_eq!(c.small_price(Region::UsWestCalifornia), 0.09);
        assert_eq!(c.small_price(Region::EuDublin), 0.085);
        assert_eq!(c.small_price(Region::AsiaSingapore), 0.085);
        assert_eq!(c.small_price(Region::AsiaTokyo), 0.092);
        assert_eq!(c.small_price(Region::SaSaoPaulo), 0.115);
    }

    #[test]
    fn table_ii_derived_sizes() {
        let c = cat();
        // Spot-check rows of Table II.
        assert!((c.price(Region::UsEastVirginia, InstanceType::Medium) - 0.16).abs() < 1e-12);
        assert!((c.price(Region::UsEastVirginia, InstanceType::Large) - 0.32).abs() < 1e-12);
        assert!((c.price(Region::UsEastVirginia, InstanceType::XLarge) - 0.64).abs() < 1e-12);
        assert!((c.price(Region::AsiaTokyo, InstanceType::Medium) - 0.184).abs() < 1e-12);
        assert!((c.price(Region::AsiaTokyo, InstanceType::XLarge) - 0.736).abs() < 1e-12);
        assert!((c.price(Region::SaSaoPaulo, InstanceType::Large) - 0.460).abs() < 1e-12);
    }

    #[test]
    fn table_ii_transfer_out() {
        let c = cat();
        assert_eq!(c.transfer_out_price(Region::UsEastVirginia), 0.12);
        assert_eq!(c.transfer_out_price(Region::AsiaSingapore), 0.19);
        assert_eq!(c.transfer_out_price(Region::AsiaTokyo), 0.201);
        assert_eq!(c.transfer_out_price(Region::SaSaoPaulo), 0.25);
    }

    #[test]
    fn intra_region_transfer_is_free() {
        let c = cat();
        assert_eq!(
            c.transfer_cost(Region::EuDublin, Region::EuDublin, 100.0, 0.0),
            0.0
        );
    }

    #[test]
    fn transfer_below_bracket_is_free() {
        let c = cat();
        // First GB of the month is free (bracket is exclusive at 1 GB).
        assert_eq!(
            c.transfer_cost(Region::UsEastVirginia, Region::EuDublin, 1.0, 0.0),
            0.0
        );
    }

    #[test]
    fn transfer_straddling_bracket_bills_only_inside() {
        let c = cat();
        // Move 2 GB starting from 0: only the second GB is billable.
        let cost = c.transfer_cost(Region::UsEastVirginia, Region::EuDublin, 2.0, 0.0);
        assert!((cost - 0.12).abs() < 1e-12);
    }

    #[test]
    fn transfer_above_bracket_cap_is_free() {
        let c = cat();
        // Past 10 TB the bracket no longer applies.
        let cost = c.transfer_cost(Region::UsEastVirginia, Region::EuDublin, 100.0, 10_240.0);
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn transfer_fully_inside_bracket() {
        let c = cat();
        let cost = c.transfer_cost(Region::AsiaTokyo, Region::EuDublin, 10.0, 50.0);
        assert!((cost - 10.0 * 0.201).abs() < 1e-12);
    }

    #[test]
    fn zero_or_negative_volume_costs_nothing() {
        let c = cat();
        assert_eq!(
            c.transfer_cost(Region::UsEastVirginia, Region::EuDublin, 0.0, 5.0),
            0.0
        );
    }

    #[test]
    fn cheapest_region_is_us() {
        let c = cat();
        let r = c.cheapest_region(InstanceType::Small);
        assert!(matches!(r, Region::UsEastVirginia | Region::UsWestOregon));
    }

    #[test]
    fn bracket_membership() {
        let b = TransferBracket::default();
        assert!(!b.billable(0.5));
        assert!(!b.billable(1.0)); // exclusive lower bound
        assert!(b.billable(1.5));
        assert!(b.billable(10_240.0)); // inclusive upper bound
        assert!(!b.billable(10_241.0));
    }

    // Regression pins for DESIGN §3's `(1 GB, 10 TB]` rule: both band
    // boundaries must land on exactly the documented side.

    #[test]
    fn exactly_one_gb_monthly_volume_is_free() {
        let b = TransferBracket::default();
        assert!(
            !b.billable(1.0),
            "exactly 1 GB must be free: the bracket is exclusive below"
        );
        // transfer_cost agrees: the month's first GB never bills, even
        // when it arrives as many small moves that sum to exactly 1 GB.
        let c = cat();
        let mut so_far = 0.0;
        let mut cost = 0.0;
        for _ in 0..4 {
            cost += c.transfer_cost(Region::UsEastVirginia, Region::EuDublin, 0.25, so_far);
            so_far += 0.25;
        }
        assert_eq!(cost, 0.0, "cumulative volume of exactly 1 GB is free");
    }

    #[test]
    fn exactly_ten_tb_monthly_volume_is_charged() {
        let b = TransferBracket::default();
        assert!(
            b.billable(10_240.0),
            "exactly 10 TB must be charged: the bracket is inclusive above"
        );
        let c = cat();
        // The GB that lands the monthly total exactly on 10 TB is billed
        // in full; the very next GB is not.
        let last_in = c.transfer_cost(Region::UsEastVirginia, Region::EuDublin, 1.0, 10_239.0);
        assert!((last_in - 0.12).abs() < 1e-12);
        let first_out = c.transfer_cost(Region::UsEastVirginia, Region::EuDublin, 1.0, 10_240.0);
        assert_eq!(first_out, 0.0);
    }

    #[test]
    fn transfer_straddling_both_boundaries_clips_to_bracket() {
        let c = cat();
        // One huge move from 0 past the cap bills exactly the bracket
        // width (10 TB − 1 GB), no more and no less.
        let cost = c.transfer_cost(Region::UsEastVirginia, Region::EuDublin, 20_000.0, 0.0);
        assert!((cost - (10_240.0 - 1.0) * 0.12).abs() < 1e-9);
    }
}
