//! `cws-service` — the paper's strategies run *as a service*.
//!
//! The paper (and the rest of this workspace) evaluates provisioning ×
//! scheduling strategies one workflow at a time: every run starts from
//! an empty infrastructure and the bill is the busy time of the VMs the
//! run rented. A real Workflow-as-a-Service deployment looks different:
//! workflows **arrive over time** from multiple tenants, machines stay
//! **warm** between submissions, booting a machine **takes time**, and
//! billing follows the **wall clock** of each rental, idle or not.
//!
//! This crate wraps the deterministic offline machinery in that online
//! setting:
//!
//! | Module | Responsibility |
//! |--------|----------------|
//! | [`arrivals`] | seedable Poisson / trace arrival processes per tenant, emitting `cws-workloads` workflows |
//! | [`pool`] | pool machines, idle-reclaim policies and wall-clock BTU billing; [`VmPool`] is the reference engine's pool |
//! | [`engine`] | the reference engine: one loop scheduling each arrival by a `cws-core` strategy against a [`VmPool`] (via [`cws_core::pooled`]); only tests and `cws-bench` run it |
//! | [`report`] | per-tenant + fleet [`ServiceReport`] with deterministic JSON rendering |
//!
//! Everything is deterministic for a fixed seed: arrival times and
//! workflow shapes derive from per-tenant RNG streams, and arrivals
//! stream lazily in `(time, tenant, seq)` order (the same FIFO
//! tie-breaking `cws-sim`'s event queue applies). Every service path —
//! `cws-exp serve` and `service`, the daemon, the benches and the
//! examples — runs the sharded streaming engine in `cws-serve`, which
//! builds on the same [`arrivals`], [`pool`] billing and
//! [`report::ReportAccumulator`] primitives; the reference engine is
//! what its tests compare it against. The arrival-rate campaign lives
//! in `cws_experiments::service_sweep`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arrivals;
pub mod engine;
pub mod pool;
pub mod report;

pub use arrivals::{ArrivalModel, ArrivalTicket, TenantSpec, TicketStream, WorkloadKind};
pub use engine::{run_service, run_service_traced, ServiceConfig, ServiceTrace, WorkflowRecord};
pub use pool::{reclaim_deadline, PoolVm, ReclaimPolicy, VmPool};
pub use report::{FleetReport, ReportAccumulator, ServiceReport, ServiceSummary, TenantReport};

/// SplitMix64 finalizer — the stateless mixing function used to derive
/// independent RNG streams (per tenant, per arrival, per campaign cell)
/// from one base seed.
#[must_use]
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::mix_seed;

    #[test]
    fn mix_seed_streams_do_not_collide_trivially() {
        let a = mix_seed(42, 0);
        let b = mix_seed(42, 1);
        let c = mix_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, mix_seed(42, 0), "pure function");
    }
}
