//! Crate-level property tests for the workload generators: every valid
//! parameterization must yield a structurally sound workflow, and the
//! runtime scenarios must keep their defining properties.

use cws_dag::StructureMetrics;
use cws_platform::BTU_SECONDS;
use cws_workloads::mapreduce::{mapreduce, MapReduceShape};
use cws_workloads::montage::{montage, MontageShape};
use cws_workloads::pegasus::{
    cybershake, epigenomics, ligo, CyberShakeShape, EpigenomicsShape, LigoShape,
};
use cws_workloads::random::{fork_join, layered_dag, ForkJoinShape, LayeredShape};
use cws_workloads::{bag_of_tasks, sequential, DataSizeModel, Scenario};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn montage_shapes_generate_valid_mosaics(p in 2usize..12, extra in 1usize..10) {
        let max_pairs = p * (p - 1) / 2;
        let overlaps = extra.min(max_pairs);
        let shape = MontageShape { projections: p, overlaps };
        let wf = montage(shape);
        prop_assert_eq!(wf.len(), shape.task_count());
        prop_assert_eq!(wf.entries().len(), p);
        prop_assert_eq!(wf.exits().len(), 1);
        // single funnel row: exactly one mConcatFit
        let concat = wf.tasks().iter().filter(|t| t.name == "mConcatFit").count();
        prop_assert_eq!(concat, 1);
    }

    #[test]
    fn mapreduce_shapes_scale_levels(m in 1usize..30, r in 1usize..10) {
        let wf = mapreduce(MapReduceShape { mappers: m, reducers: r });
        prop_assert_eq!(wf.len(), 2 + 2 * m + r);
        prop_assert_eq!(wf.depth(), 5);
        prop_assert_eq!(wf.max_width(), m.max(r));
    }

    #[test]
    fn pegasus_generators_are_sound(
        lanes in 1usize..4, chunks in 1usize..5,
        synth in 2usize..20,
        groups in 1usize..4, banks in 1usize..5,
    ) {
        let e = epigenomics(EpigenomicsShape { lanes, chunks_per_lane: chunks });
        prop_assert_eq!(e.entries().len(), lanes);
        prop_assert_eq!(e.exits().len(), 1);

        let c = cybershake(CyberShakeShape { synthesis: synth });
        prop_assert_eq!(c.len(), 4 + 2 * synth);
        prop_assert_eq!(c.exits().len(), 2);

        let l = ligo(LigoShape { groups, banks_per_group: banks });
        prop_assert_eq!(l.exits().len(), groups);
        prop_assert_eq!(l.entries().len(), groups * banks);
    }

    #[test]
    fn random_generators_respect_their_shapes(
        levels in 1usize..6, width in 1usize..6, prob in 0.0f64..1.0, seed in 0u64..200,
        stages in 1usize..5, fanout in 1usize..6,
    ) {
        let lay = layered_dag(LayeredShape {
            levels, min_width: 1, max_width: width, edge_prob: prob, seed,
        });
        prop_assert_eq!(lay.depth(), levels);
        prop_assert!(lay.max_width() <= width);

        let fj = fork_join(ForkJoinShape { stages, fanout });
        prop_assert_eq!(fj.len(), stages * (fanout + 2));
        prop_assert_eq!(fj.max_width(), fanout);
    }

    #[test]
    fn best_case_always_fits_one_btu(n in 1usize..100) {
        let wf = Scenario::BestCase.apply(&sequential(n));
        prop_assert!((wf.total_work() - BTU_SECONDS).abs() < 1e-6);
    }

    #[test]
    fn worst_case_always_exceeds_a_btu_on_xlarge(n in 1usize..50) {
        let wf = Scenario::WorstCase.apply(&bag_of_tasks(n));
        for t in wf.tasks() {
            prop_assert!(t.base_time / 2.7 > BTU_SECONDS);
        }
    }

    #[test]
    fn pareto_scenario_respects_the_floor(seed in 0u64..500, n in 1usize..60) {
        let wf = Scenario::Pareto { seed }.apply(&bag_of_tasks(n));
        for t in wf.tasks() {
            prop_assert!(t.base_time >= 500.0);
        }
    }

    #[test]
    fn data_models_rewrite_without_structural_change(seed in 0u64..200) {
        let wf = mapreduce(MapReduceShape { mappers: 4, reducers: 2 });
        let cpu = DataSizeModel::CpuIntensive.apply(&wf);
        let data = DataSizeModel::ParetoSizes { seed }.apply(&wf);
        prop_assert_eq!(cpu.len(), wf.len());
        prop_assert_eq!(data.edge_count(), wf.edge_count());
        prop_assert!(cpu.edges().all(|e| e.data_mb == 0.0));
        prop_assert!(data.edges().all(|e| e.data_mb >= 500.0));
    }

    #[test]
    fn classification_is_total(levels in 1usize..6, width in 1usize..6, seed in 0u64..100) {
        let wf = layered_dag(LayeredShape {
            levels, min_width: 1, max_width: width, edge_prob: 0.4, seed,
        });
        // classify never panics and yields one of the four classes
        let class = StructureMetrics::compute(&wf).classify();
        let s = class.to_string();
        prop_assert!(!s.is_empty());
    }
}
