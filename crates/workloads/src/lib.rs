//! Workload generators and execution-time models.
//!
//! Reproduces Sect. IV-B of the paper:
//!
//! * the four workflow shapes — [Montage](mod@montage) (24-task astronomy
//!   mosaic), [CSTEM](mod@cstem) (CPU-intensive, mostly sequential),
//!   [MapReduce](mod@mapreduce) (two sequential map phases) and a plain
//!   [sequential chain](mod@sequential),
//! * the three execution-time scenarios — [`Scenario::Pareto`] (Feitelson
//!   analytic model: Pareto α=2, scale 500), [`Scenario::BestCase`]
//!   (equal tasks, all fit one BTU) and [`Scenario::WorstCase`] (equal
//!   tasks, each exceeding one BTU even on the fastest instance),
//! * Pareto-distributed task data sizes (α=1.3, scale 500),
//! * random DAG generators (layered, fork-join) for the paper's
//!   future-work sweep over custom workflows,
//! * a [WfCommons importer](mod@wfcommons) converting real
//!   WfCommons/WorkflowHub trace archives into interchange workflows.
//!
//! All randomness is seeded; the same seed reproduces the same workload
//! bit-for-bit.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bot;
pub mod cstem;
pub mod mapreduce;
pub mod montage;
pub mod pareto;
pub mod pegasus;
pub mod random;
pub mod runtime;
pub mod sequential;
pub mod wfcommons;

pub use bot::bag_of_tasks;
pub use cstem::cstem;
pub use mapreduce::{mapreduce, mapreduce_default, MapReduceShape};
pub use montage::{montage, montage_24, MontageShape};
pub use pareto::Pareto;
pub use pegasus::{cybershake, epigenomics, ligo, CyberShakeShape, EpigenomicsShape, LigoShape};
pub use random::{fork_join, layered_dag, ForkJoinShape, LayeredShape};
pub use runtime::{DataSizeModel, Scenario};
pub use sequential::sequential;
pub use wfcommons::{import as import_wfcommons, named_workflow};

use cws_dag::Workflow;

/// The four paper workflows with their default shapes, in the order used
/// by the figures: Montage, CSTEM, MapReduce, Sequential.
#[must_use]
pub fn paper_workflows() -> Vec<Workflow> {
    vec![montage_24(), cstem(), mapreduce_default(), sequential(20)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_workflows_are_four_distinct_shapes() {
        let wfs = paper_workflows();
        assert_eq!(wfs.len(), 4);
        let names: Vec<_> = wfs.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(
            names,
            vec!["montage-24", "cstem", "mapreduce-8x8x4", "sequential-20"]
        );
    }
}
