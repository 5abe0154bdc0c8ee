//! Cost–makespan Pareto frontier over the strategy space.
//!
//! Fig. 4 plots every strategy as a (gain, loss) point; the decision a
//! user actually faces is "which strategies are *not dominated*" — no
//! other strategy is both faster and cheaper. This module evaluates a
//! configurable candidate set (the paper's 19, the xlarge statics, PCH
//! and heterogeneous-pool HEFT) and extracts the frontier.

use crate::alloc::heftpool::{heft_pool, PoolSpec};
use crate::alloc::pch;
use crate::schedule::Schedule;
use crate::strategy::{StaticAlloc, Strategy};
use cws_dag::Workflow;
use cws_platform::{InstanceType, Platform};

/// One evaluated candidate.
#[derive(Debug, Clone)]
pub struct FrontierPoint {
    /// Strategy label.
    pub label: String,
    /// Makespan in seconds.
    pub makespan: f64,
    /// Total cost in USD.
    pub cost: f64,
    /// Whether the point is Pareto-optimal within the candidate set.
    pub on_frontier: bool,
}

/// Which candidates to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateSet {
    /// The paper's 19 strategies.
    pub paper: bool,
    /// The five static allocations on xlarge instances.
    pub xlarge_statics: bool,
    /// PCH on each instance type.
    pub pch: bool,
    /// Heterogeneous-pool HEFT (unlimited mixed pool).
    pub heft_pool: bool,
}

impl Default for CandidateSet {
    fn default() -> Self {
        CandidateSet {
            paper: true,
            xlarge_statics: true,
            pch: true,
            heft_pool: true,
        }
    }
}

/// Evaluate the candidate set and mark the Pareto-optimal points.
/// Points are returned sorted by makespan (ascending), ties by cost.
#[must_use]
pub fn pareto_front(
    wf: &Workflow,
    platform: &Platform,
    candidates: CandidateSet,
) -> Vec<FrontierPoint> {
    let mut schedules: Vec<Schedule> = Vec::new();
    if candidates.paper {
        for s in Strategy::paper_set() {
            schedules.push(s.schedule(wf, platform));
        }
    }
    if candidates.xlarge_statics {
        for alloc in StaticAlloc::LEGEND_ORDER {
            schedules.push(
                Strategy::Static {
                    alloc,
                    itype: InstanceType::XLarge,
                }
                .schedule(wf, platform),
            );
        }
    }
    if candidates.pch {
        for itype in InstanceType::ALL {
            schedules.push(pch::pch(wf, platform, itype));
        }
    }
    if candidates.heft_pool {
        schedules.push(heft_pool(wf, platform, &PoolSpec::default()));
    }

    // Dominance runs on bare (makespan, cost) pairs; the points are then
    // assembled by *moving* each schedule's label out — no string clones.
    let metrics: Vec<(f64, f64)> = schedules
        .iter()
        .map(|s| (s.makespan(), s.total_cost(wf, platform)))
        .collect();

    // O(n²) dominance test — n is tens of points.
    const EPS: f64 = 1e-9;
    let on_frontier: Vec<bool> = metrics
        .iter()
        .enumerate()
        .map(|(i, &(mi, ci))| {
            !metrics.iter().enumerate().any(|(j, &(mj, cj))| {
                j != i && mj <= mi + EPS && cj <= ci + EPS && (mj < mi - EPS || cj < ci - EPS)
            })
        })
        .collect();

    let mut points: Vec<FrontierPoint> = schedules
        .into_iter()
        .zip(metrics)
        .zip(on_frontier)
        .map(|((s, (makespan, cost)), on_frontier)| FrontierPoint {
            label: s.strategy,
            makespan,
            cost,
            on_frontier,
        })
        .collect();
    points.sort_by(|a, b| {
        a.makespan
            .total_cmp(&b.makespan)
            .then(a.cost.total_cmp(&b.cost))
    });
    points
}

/// Only the Pareto-optimal points, deduplicated by (makespan, cost) to
/// one representative label each. Borrows from `points` rather than
/// cloning labels.
#[must_use]
pub fn frontier_only(points: &[FrontierPoint]) -> Vec<&FrontierPoint> {
    let mut out: Vec<&FrontierPoint> = Vec::new();
    for p in points.iter().filter(|p| p.on_frontier) {
        if let Some(last) = out.last() {
            if (last.makespan - p.makespan).abs() < 1e-9 && (last.cost - p.cost).abs() < 1e-9 {
                continue;
            }
        }
        out.push(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_dag::WorkflowBuilder;

    fn wf() -> Workflow {
        let mut b = WorkflowBuilder::new("w");
        let a = b.task("a", 800.0);
        let x = b.task("x", 1500.0);
        let y = b.task("y", 900.0);
        let z = b.task("z", 400.0);
        b.edge(a, x).edge(a, y).edge(x, z).edge(y, z);
        b.build().unwrap()
    }

    #[test]
    fn frontier_is_nonempty_and_monotone() {
        let p = Platform::ec2_paper();
        let points = pareto_front(&wf(), &p, CandidateSet::default());
        let front = frontier_only(&points);
        assert!(!front.is_empty());
        // along the frontier, cost strictly decreases as makespan grows
        for w in front.windows(2) {
            assert!(w[1].makespan >= w[0].makespan);
            assert!(
                w[1].cost <= w[0].cost + 1e-9,
                "{} then {}",
                w[0].label,
                w[1].label
            );
        }
    }

    #[test]
    fn dominated_points_exist() {
        // OneVMperTask-l is strictly dominated by OneVMperTask-xl in
        // speed or by cheaper strategies in cost — the frontier is a
        // strict subset.
        let p = Platform::ec2_paper();
        let points = pareto_front(&wf(), &p, CandidateSet::default());
        assert!(points.iter().any(|p| !p.on_frontier));
    }

    #[test]
    fn cheapest_and_fastest_are_always_on_the_frontier() {
        let p = Platform::ec2_paper();
        let points = pareto_front(&wf(), &p, CandidateSet::default());
        let cheapest = points
            .iter()
            .min_by(|a, b| a.cost.total_cmp(&b.cost))
            .unwrap();
        let fastest = points
            .iter()
            .min_by(|a, b| a.makespan.total_cmp(&b.makespan))
            .unwrap();
        assert!(cheapest.on_frontier, "{}", cheapest.label);
        assert!(fastest.on_frontier, "{}", fastest.label);
    }

    #[test]
    fn extended_candidates_can_improve_the_frontier() {
        // with the full pool, HEFT-pool or xlarge statics reach
        // makespans no paper strategy reaches
        let p = Platform::ec2_paper();
        let paper_only = pareto_front(
            &wf(),
            &p,
            CandidateSet {
                paper: true,
                xlarge_statics: false,
                pch: false,
                heft_pool: false,
            },
        );
        let full = pareto_front(&wf(), &p, CandidateSet::default());
        let min =
            |pts: &[FrontierPoint]| pts.iter().map(|p| p.makespan).fold(f64::INFINITY, f64::min);
        assert!(min(&full) <= min(&paper_only) + 1e-9);
    }

    #[test]
    fn candidate_toggles_shrink_the_set() {
        let p = Platform::ec2_paper();
        let full = pareto_front(&wf(), &p, CandidateSet::default());
        let paper = pareto_front(
            &wf(),
            &p,
            CandidateSet {
                paper: true,
                xlarge_statics: false,
                pch: false,
                heft_pool: false,
            },
        );
        assert_eq!(paper.len(), 19);
        assert_eq!(full.len(), 19 + 5 + 4 + 1);
    }
}
