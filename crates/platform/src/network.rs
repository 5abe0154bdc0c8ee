//! Store-and-forward network transfer model.
//!
//! The paper (Sect. IV-A): "Transfer times are computed based on a store
//! and forward model in which transfer time is equal to
//! `size/bandwidth + latency`. Although this simplified model does not
//! take into consideration factors such as bandwidth sharing, it suffices
//! to get an approximate of the time needed to transfer tasks from one
//! region to another."

use crate::instance::InstanceType;
use crate::region::Region;

/// Description of a single data movement between two VMs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferSpec {
    /// Payload size in megabytes.
    pub size_mb: f64,
    /// Instance type of the sending VM.
    pub from_type: InstanceType,
    /// Instance type of the receiving VM.
    pub to_type: InstanceType,
    /// Region of the sending VM.
    pub from_region: Region,
    /// Region of the receiving VM.
    pub to_region: Region,
}

/// Network model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// One-way latency between two VMs in the same region, seconds.
    pub intra_region_latency_s: f64,
    /// One-way latency between two VMs in different regions, seconds.
    pub inter_region_latency_s: f64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        // Typical 2012 figures: sub-millisecond within an availability
        // zone (we use 0.5 ms) and ~150 ms across continents.
        NetworkModel {
            intra_region_latency_s: 0.0005,
            inter_region_latency_s: 0.150,
        }
    }
}

impl NetworkModel {
    /// Effective path bandwidth in megabytes per second. The path is
    /// limited by the slower endpoint: small/medium NICs run at 1 Gb/s,
    /// large/xlarge at 10 Gb/s.
    #[must_use]
    pub fn path_bandwidth_mbps(&self, from: InstanceType, to: InstanceType) -> f64 {
        let gbps = from.bandwidth_gbps().min(to.bandwidth_gbps());
        // 1 Gb/s = 125 MB/s.
        gbps * 125.0
    }

    /// Latency of the path in seconds.
    #[must_use]
    pub fn path_latency_s(&self, from_region: Region, to_region: Region) -> f64 {
        if from_region == to_region {
            self.intra_region_latency_s
        } else {
            self.inter_region_latency_s
        }
    }

    /// Store-and-forward transfer time: `size/bandwidth + latency`.
    ///
    /// A zero-sized payload still pays the latency (there is always a
    /// control message); co-located tasks (the caller knows they share a
    /// VM) should not call this at all — intra-VM transfers are free.
    #[must_use]
    pub fn transfer_time(&self, spec: &TransferSpec) -> f64 {
        assert!(
            spec.size_mb >= 0.0,
            "transfer size must be non-negative, got {}",
            spec.size_mb
        );
        let bw = self.path_bandwidth_mbps(spec.from_type, spec.to_type);
        spec.size_mb / bw + self.path_latency_s(spec.from_region, spec.to_region)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(size_mb: f64, from: InstanceType, to: InstanceType) -> TransferSpec {
        TransferSpec {
            size_mb,
            from_type: from,
            to_type: to,
            from_region: Region::UsEastVirginia,
            to_region: Region::UsEastVirginia,
        }
    }

    #[test]
    fn bandwidth_limited_by_slower_endpoint() {
        let n = NetworkModel::default();
        assert_eq!(
            n.path_bandwidth_mbps(InstanceType::Small, InstanceType::XLarge),
            125.0
        );
        assert_eq!(
            n.path_bandwidth_mbps(InstanceType::Large, InstanceType::XLarge),
            1250.0
        );
    }

    #[test]
    fn transfer_time_is_size_over_bandwidth_plus_latency() {
        let n = NetworkModel::default();
        let t = n.transfer_time(&spec(125.0, InstanceType::Small, InstanceType::Small));
        assert!((t - (1.0 + 0.0005)).abs() < 1e-9);
    }

    #[test]
    fn ten_gig_path_is_ten_times_faster() {
        let n = NetworkModel::default();
        let slow = n.transfer_time(&spec(1250.0, InstanceType::Small, InstanceType::Small));
        let fast = n.transfer_time(&spec(1250.0, InstanceType::Large, InstanceType::XLarge));
        assert!(slow > fast);
        let slow_bw = slow - n.intra_region_latency_s;
        let fast_bw = fast - n.intra_region_latency_s;
        assert!((slow_bw / fast_bw - 10.0).abs() < 1e-9);
    }

    #[test]
    fn inter_region_pays_higher_latency() {
        let n = NetworkModel::default();
        let mut s = spec(0.0, InstanceType::Small, InstanceType::Small);
        s.to_region = Region::EuDublin;
        assert!((n.transfer_time(&s) - 0.150).abs() < 1e-12);
    }

    #[test]
    fn zero_size_pays_latency_only() {
        let n = NetworkModel::default();
        let t = n.transfer_time(&spec(0.0, InstanceType::Small, InstanceType::Medium));
        assert!((t - n.intra_region_latency_s).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_size_panics() {
        let n = NetworkModel::default();
        let _ = n.transfer_time(&spec(-1.0, InstanceType::Small, InstanceType::Small));
    }
}
