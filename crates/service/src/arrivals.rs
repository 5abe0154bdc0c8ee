//! Tenant arrival processes: who submits what, when.
//!
//! Each tenant owns an independent RNG stream derived from the service
//! seed, so adding a tenant (or changing its rate) never perturbs the
//! arrivals of the others — the property that makes campaign cells
//! comparable across the grid.

use crate::mix_seed;
use cws_dag::Workflow;
use cws_workloads::{bag_of_tasks, cstem, mapreduce_default, montage_24, Scenario};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Which `cws-workloads` generator a tenant submits.
///
/// The DAG *shape* is fixed per kind; task runtimes are re-drawn per
/// arrival from the paper's Pareto(α=2, scale=500) scenario so no two
/// submissions are identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// The paper's Montage workflow (24 tasks).
    Montage24,
    /// The paper's CSTEM workflow.
    CStem,
    /// The paper's MapReduce workflow (default shape).
    MapReduce,
    /// A bag of `n` independent tasks.
    BagOfTasks(usize),
    /// A bag of `n` independent *equal* tasks (the paper's best-case
    /// scenario: `n·e = BTU`). Runtimes are bounded, so machine
    /// lifetimes are too — the workload for memory-ceiling and
    /// throughput scaling runs, where a Pareto tail would pin the
    /// engines' rental-order billing fold arbitrarily long.
    UniformBag(usize),
}

impl WorkloadKind {
    /// Short label for reports.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            WorkloadKind::Montage24 => "montage24".to_string(),
            WorkloadKind::CStem => "cstem".to_string(),
            WorkloadKind::MapReduce => "mapreduce".to_string(),
            WorkloadKind::BagOfTasks(n) => format!("bot{n}"),
            WorkloadKind::UniformBag(n) => format!("ubot{n}"),
        }
    }

    /// Materialize one submission: the kind's DAG with Pareto runtimes
    /// drawn from `seed` ([`WorkloadKind::UniformBag`] uses the
    /// deterministic best-case runtimes instead).
    #[must_use]
    pub fn realize(&self, seed: u64) -> Workflow {
        let shape = match *self {
            WorkloadKind::Montage24 => montage_24(),
            WorkloadKind::CStem => cstem(),
            WorkloadKind::MapReduce => mapreduce_default(),
            WorkloadKind::BagOfTasks(n) => bag_of_tasks(n),
            WorkloadKind::UniformBag(n) => {
                return Scenario::BestCase.apply(&bag_of_tasks(n));
            }
        };
        Scenario::Pareto { seed }.apply(&shape)
    }
}

/// One tenant of the service.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Display name, used in per-tenant reports.
    pub name: String,
    /// The workload the tenant submits.
    pub kind: WorkloadKind,
    /// Mean Poisson arrival rate in workflows per hour (ignored for
    /// trace-driven models). Zero means the tenant never submits.
    pub rate_per_hour: f64,
}

/// How arrival times are produced.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalModel {
    /// Independent Poisson processes, one per tenant, truncated at the
    /// horizon (seconds).
    Poisson {
        /// Observation window in seconds; arrivals past it are dropped.
        horizon_s: f64,
    },
    /// Replay explicit submission times (seconds), one list per tenant
    /// (same order as the tenant list; missing tails mean no arrivals).
    Trace(Vec<Vec<f64>>),
}

/// One workflow submission before its workflow is materialized: who
/// arrives when, plus the seed that deterministically produces the
/// workflow. Realization is the expensive step (RNG draws + DAG
/// construction), so streaming engines carry tickets and realize as
/// late as possible — on a worker thread, or one at a time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalTicket {
    /// Index into the tenant list.
    pub tenant: usize,
    /// Submission number within the tenant (0-based).
    pub seq: usize,
    /// Wall-clock submission time in seconds.
    pub time: f64,
    /// Seed that materializes this submission's workflow.
    pub wf_seed: u64,
}

impl ArrivalTicket {
    /// Materialize the ticket's workflow (pure in `wf_seed` and `kind`).
    #[must_use]
    pub fn realize(&self, kind: WorkloadKind) -> Workflow {
        kind.realize(self.wf_seed)
    }
}

/// Per-tenant arrival generator: yields `(time, seq)` pairs in the
/// tenant's own submission order, lazily for Poisson processes.
enum TenantGen {
    Poisson {
        rng: SmallRng,
        lambda: f64,
        horizon_s: f64,
        t: f64,
        seq: usize,
    },
    Trace {
        /// `(time, seq)` pairs pre-sorted by `(time, seq)` so the merge
        /// reproduces the eager global sort even for out-of-order
        /// trace files.
        times: std::vec::IntoIter<(f64, usize)>,
    },
}

impl TenantGen {
    fn next(&mut self) -> Option<(f64, usize)> {
        match self {
            TenantGen::Poisson {
                rng,
                lambda,
                horizon_s,
                t,
                seq,
            } => {
                if *lambda <= 0.0 || *horizon_s <= 0.0 {
                    return None;
                }
                let u: f64 = rng.gen(); // [0, 1): 1 - u is in (0, 1], ln is finite
                *t += -(1.0 - u).ln() / *lambda;
                if *t >= *horizon_s {
                    return None;
                }
                let s = *seq;
                *seq += 1;
                Some((*t, s))
            }
            TenantGen::Trace { times } => times.next(),
        }
    }
}

/// Heap key for the k-way merge: min by `(time, tenant, seq)` — the
/// exact comparator the eager path sorted with.
struct Head {
    time: f64,
    tenant: usize,
    seq: usize,
}

impl PartialEq for Head {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Head {}
impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Head {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest head.
        other
            .time
            .total_cmp(&self.time)
            .then(other.tenant.cmp(&self.tenant))
            .then(other.seq.cmp(&self.seq))
    }
}

/// Lazy, time-sorted stream of [`ArrivalTicket`]s: every submission of
/// a service run, in event order.
///
/// Deterministic: tenant `i` draws inter-arrival gaps and workflow
/// seeds from the stream `mix_seed(seed, i)`, so the sequence is a pure
/// function of `(tenants, model, seed)`. Ties in time order break by
/// tenant index, then submission number.
///
/// Memory is `O(tenants)` — one generator and one buffered head per
/// tenant — regardless of how many arrivals the run produces, which is
/// what lets a million-submission trace run in constant memory. The
/// k-way merge yields exactly the eager materialize-then-sort order:
/// per-tenant orders are consistent with the global
/// `(time, tenant, seq)` comparator (Poisson times strictly increase;
/// trace times are pre-sorted per tenant), so the merge and the eager
/// global sort agree element for element.
pub struct TicketStream {
    gens: Vec<TenantGen>,
    /// Per-tenant workflow-seed stream (`mix_seed(seed, tenant)`).
    streams: Vec<u64>,
    heap: BinaryHeap<Head>,
}

impl TicketStream {
    /// Build the stream.
    ///
    /// # Panics
    /// Panics if a rate is negative, the horizon is not finite, or a
    /// trace contains a negative or non-finite time.
    #[must_use]
    pub fn new(tenants: &[TenantSpec], model: &ArrivalModel, seed: u64) -> Self {
        let mut gens = Vec::with_capacity(tenants.len());
        let mut streams = Vec::with_capacity(tenants.len());
        for (ti, tenant) in tenants.iter().enumerate() {
            streams.push(mix_seed(seed, ti as u64));
            gens.push(match model {
                ArrivalModel::Poisson { horizon_s } => {
                    assert!(
                        horizon_s.is_finite() && *horizon_s >= 0.0,
                        "horizon must be finite and non-negative"
                    );
                    assert!(
                        tenant.rate_per_hour.is_finite() && tenant.rate_per_hour >= 0.0,
                        "rate must be finite and non-negative"
                    );
                    TenantGen::Poisson {
                        rng: SmallRng::seed_from_u64(streams[ti]),
                        lambda: tenant.rate_per_hour / 3600.0,
                        horizon_s: *horizon_s,
                        t: 0.0,
                        seq: 0,
                    }
                }
                ArrivalModel::Trace(per_tenant) => {
                    let mut times: Vec<(f64, usize)> = per_tenant
                        .get(ti)
                        .map(|ts| {
                            ts.iter()
                                .enumerate()
                                .map(|(seq, &t)| {
                                    assert!(t.is_finite() && t >= 0.0, "trace times must be >= 0");
                                    (t, seq)
                                })
                                .collect()
                        })
                        .unwrap_or_default();
                    times.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    TenantGen::Trace {
                        times: times.into_iter(),
                    }
                }
            });
        }
        let mut heap = BinaryHeap::with_capacity(gens.len());
        for (tenant, gen) in gens.iter_mut().enumerate() {
            if let Some((time, seq)) = gen.next() {
                heap.push(Head { time, tenant, seq });
            }
        }
        TicketStream {
            gens,
            streams,
            heap,
        }
    }
}

impl Iterator for TicketStream {
    type Item = ArrivalTicket;

    fn next(&mut self) -> Option<ArrivalTicket> {
        let Head { time, tenant, seq } = self.heap.pop()?;
        if let Some((t, s)) = self.gens[tenant].next() {
            self.heap.push(Head {
                time: t,
                tenant,
                seq: s,
            });
        }
        Some(ArrivalTicket {
            tenant,
            seq,
            time,
            wf_seed: mix_seed(self.streams[tenant], 0x5743_0000 | seq as u64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tickets(tenants: &[TenantSpec], model: &ArrivalModel, seed: u64) -> Vec<ArrivalTicket> {
        TicketStream::new(tenants, model, seed).collect()
    }

    fn two_tenants(rate: f64) -> Vec<TenantSpec> {
        vec![
            TenantSpec {
                name: "astro".to_string(),
                kind: WorkloadKind::Montage24,
                rate_per_hour: rate,
            },
            TenantSpec {
                name: "climate".to_string(),
                kind: WorkloadKind::CStem,
                rate_per_hour: rate,
            },
        ]
    }

    #[test]
    fn arrivals_are_deterministic_and_sorted() {
        let tenants = two_tenants(6.0);
        let model = ArrivalModel::Poisson {
            horizon_s: 4.0 * 3600.0,
        };
        let a = tickets(&tenants, &model, 7);
        let b = tickets(&tenants, &model, 7);
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.tenant, x.seq, x.time.to_bits(), x.wf_seed),
                (y.tenant, y.seq, y.time.to_bits(), y.wf_seed)
            );
            let kind = tenants[x.tenant].kind;
            assert_eq!(x.realize(kind).len(), y.realize(kind).len());
        }
        assert!(a.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn zero_rate_means_zero_arrivals() {
        let tenants = two_tenants(0.0);
        let model = ArrivalModel::Poisson { horizon_s: 3600.0 };
        assert!(tickets(&tenants, &model, 1).is_empty());
    }

    #[test]
    fn tenant_streams_are_independent() {
        // Doubling tenant 1's rate must not move tenant 0's arrivals.
        let mut t1 = two_tenants(6.0);
        let mut t2 = two_tenants(6.0);
        t2[1].rate_per_hour = 12.0;
        t1.truncate(2);
        let model = ArrivalModel::Poisson {
            horizon_s: 2.0 * 3600.0,
        };
        let a = tickets(&t1, &model, 3);
        let b = tickets(&t2, &model, 3);
        let times = |v: &[ArrivalTicket], tenant| -> Vec<u64> {
            v.iter()
                .filter(|x| x.tenant == tenant)
                .map(|x| x.time.to_bits())
                .collect()
        };
        assert_eq!(times(&a, 0), times(&b, 0));
    }

    #[test]
    fn trace_model_replays_given_times() {
        let tenants = two_tenants(99.0); // rate ignored
        let model = ArrivalModel::Trace(vec![vec![10.0, 400.0], vec![30.0]]);
        let a = tickets(&tenants, &model, 5);
        let seq: Vec<(usize, u64)> = a.iter().map(|x| (x.tenant, x.time.to_bits())).collect();
        assert_eq!(
            seq,
            vec![
                (0, 10.0_f64.to_bits()),
                (1, 30.0_f64.to_bits()),
                (0, 400.0_f64.to_bits())
            ]
        );
    }

    #[test]
    fn per_arrival_runtimes_differ() {
        let tenants = two_tenants(30.0);
        let model = ArrivalModel::Poisson { horizon_s: 3600.0 };
        let first: Vec<Workflow> = tickets(&tenants, &model, 11)
            .iter()
            .filter(|x| x.tenant == 0)
            .take(2)
            .map(|x| x.realize(tenants[0].kind))
            .collect();
        assert_eq!(first.len(), 2, "need two montage arrivals");
        let work = |wf: &Workflow| -> f64 { wf.ids().map(|t| wf.task(t).base_time).sum() };
        assert_ne!(
            work(&first[0]).to_bits(),
            work(&first[1]).to_bits(),
            "Pareto redraw per arrival"
        );
    }

    /// The lazy k-way merge must reproduce the eager
    /// materialize-then-sort order element for element — including for
    /// trace files whose per-tenant times are out of order.
    #[test]
    fn stream_matches_eager_sort() {
        let tenants = two_tenants(9.0);
        for model in [
            ArrivalModel::Poisson {
                horizon_s: 3.0 * 3600.0,
            },
            ArrivalModel::Trace(vec![vec![400.0, 10.0, 10.0], vec![10.0, 5.0]]),
        ] {
            // Eager reference: materialize per tenant, then globally sort
            // with the documented comparator (the pre-stream algorithm).
            let mut eager: Vec<(usize, usize, f64)> = Vec::new();
            for ti in 0..tenants.len() {
                let mut gen = match &model {
                    ArrivalModel::Poisson { horizon_s } => TenantGen::Poisson {
                        rng: SmallRng::seed_from_u64(mix_seed(11, ti as u64)),
                        lambda: tenants[ti].rate_per_hour / 3600.0,
                        horizon_s: *horizon_s,
                        t: 0.0,
                        seq: 0,
                    },
                    ArrivalModel::Trace(per_tenant) => {
                        // Unsorted on purpose: seq is list position.
                        let ts: Vec<(f64, usize)> = per_tenant[ti]
                            .iter()
                            .enumerate()
                            .map(|(s, &t)| (t, s))
                            .collect();
                        TenantGen::Trace {
                            times: ts.into_iter(),
                        }
                    }
                };
                while let Some((time, seq)) = gen.next() {
                    eager.push((ti, seq, time));
                }
            }
            eager.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
            let streamed: Vec<(usize, usize, f64)> = TicketStream::new(&tenants, &model, 11)
                .map(|t| (t.tenant, t.seq, t.time))
                .collect();
            assert_eq!(streamed.len(), eager.len());
            for (s, e) in streamed.iter().zip(&eager) {
                assert_eq!((s.0, s.1, s.2.to_bits()), (e.0, e.1, e.2.to_bits()));
            }
        }
    }

    #[test]
    fn workload_kinds_realize() {
        for kind in [
            WorkloadKind::Montage24,
            WorkloadKind::CStem,
            WorkloadKind::MapReduce,
            WorkloadKind::BagOfTasks(7),
            WorkloadKind::UniformBag(4),
        ] {
            let wf = kind.realize(3);
            assert!(!wf.is_empty(), "{} is non-empty", kind.name());
        }
    }
}
