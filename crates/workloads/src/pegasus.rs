//! Further Pegasus-style scientific workflows: Epigenomics, CyberShake
//! and LIGO Inspiral.
//!
//! The paper evaluates on Montage plus three other shapes; its future
//! work calls for "custom workflows … with various properties from
//! different workloads". These three generators reproduce the other
//! canonical Pegasus workflow topologies (Bharathi et al.,
//! "Characterization of scientific workflows", 2008), giving the
//! adaptive scheduler a wider test bed:
//!
//! * **Epigenomics** — pipeline-parallel: independent lanes of chunked
//!   4-stage chains merging per lane, then globally (CPU-bound, deep).
//! * **CyberShake** — data-parallel with broadcast inputs: two SGT
//!   extractions fan out to many seismogram syntheses, each followed by
//!   a peak-value calculation, collected by two zip tasks.
//! * **LIGO Inspiral** — grouped fan-in: template banks feed matched
//!   filters whose coincidence analysis happens per group, followed by a
//!   second filtering pass.

use cws_dag::{Workflow, WorkflowBuilder};

/// Shape of an Epigenomics instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpigenomicsShape {
    /// Independent sequencing lanes.
    pub lanes: usize,
    /// Parallel chunks per lane (each chunk is a 4-stage pipeline).
    pub chunks_per_lane: usize,
}

/// Build an Epigenomics workflow:
/// per lane: `split -> {filter -> sol2sanger -> fastq2bfq -> map}×chunks
/// -> merge_lane`; lanes merge into `merge_all -> index -> pileup`.
///
/// # Panics
/// Panics if `lanes` or `chunks_per_lane` is zero.
#[must_use]
pub fn epigenomics(shape: EpigenomicsShape) -> Workflow {
    assert!(shape.lanes >= 1, "need at least one lane");
    assert!(
        shape.chunks_per_lane >= 1,
        "need at least one chunk per lane"
    );
    const CHUNK_MB: f64 = 30.0;
    let mut b = WorkflowBuilder::new(format!(
        "epigenomics-{}x{}",
        shape.lanes, shape.chunks_per_lane
    ));
    let mut lane_merges = Vec::new();
    for lane in 0..shape.lanes {
        let split = b.task(format!("fastqSplit_{lane}"), 60.0);
        let merge = b.task(format!("mapMerge_{lane}"), 90.0);
        for chunk in 0..shape.chunks_per_lane {
            let filter = b.task(format!("filterContams_{lane}_{chunk}"), 150.0);
            let sol = b.task(format!("sol2sanger_{lane}_{chunk}"), 60.0);
            let fastq = b.task(format!("fastq2bfq_{lane}_{chunk}"), 60.0);
            let map = b.task(format!("map_{lane}_{chunk}"), 1200.0);
            b.data_edge(split, filter, CHUNK_MB);
            b.data_edge(filter, sol, CHUNK_MB);
            b.data_edge(sol, fastq, CHUNK_MB);
            b.data_edge(fastq, map, CHUNK_MB);
            b.data_edge(map, merge, CHUNK_MB);
        }
        lane_merges.push(merge);
    }
    let merge_all = b.task("mapMergeAll", 120.0);
    for &m in &lane_merges {
        b.data_edge(m, merge_all, CHUNK_MB);
    }
    let index = b.task("maqIndex", 180.0);
    b.data_edge(merge_all, index, CHUNK_MB);
    let pileup = b.task("pileup", 300.0);
    b.data_edge(index, pileup, CHUNK_MB);
    b.build().expect("Epigenomics generator emits a valid DAG")
}

/// Shape of a CyberShake instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CyberShakeShape {
    /// Seismogram synthesis tasks (split evenly over the two SGT
    /// extractions).
    pub synthesis: usize,
}

/// Build a CyberShake workflow:
/// `{extract_0, extract_1} -> synth×n (half each) -> peakval×n (1:1)`,
/// collected by `zip_seis` (all synths) and `zip_psa` (all peakvals).
///
/// # Panics
/// Panics if `synthesis < 2`.
#[must_use]
pub fn cybershake(shape: CyberShakeShape) -> Workflow {
    assert!(shape.synthesis >= 2, "need at least two synthesis tasks");
    const SGT_MB: f64 = 200.0;
    let mut b = WorkflowBuilder::new(format!("cybershake-{}", shape.synthesis));
    let ex0 = b.task("extractSGT_0", 900.0);
    let ex1 = b.task("extractSGT_1", 900.0);
    let zip_seis = b.task("zipSeis", 120.0);
    let zip_psa = b.task("zipPSA", 120.0);
    for i in 0..shape.synthesis {
        let parent = if i % 2 == 0 { ex0 } else { ex1 };
        let synth = b.task(format!("seisSynth_{i}"), 300.0);
        b.data_edge(parent, synth, SGT_MB);
        let peak = b.task(format!("peakValCalc_{i}"), 30.0);
        b.data_edge(synth, peak, 5.0);
        b.data_edge(synth, zip_seis, 5.0);
        b.data_edge(peak, zip_psa, 1.0);
    }
    b.build().expect("CyberShake generator emits a valid DAG")
}

/// Shape of a LIGO Inspiral instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LigoShape {
    /// Coincidence groups.
    pub groups: usize,
    /// Template banks (and matched filters) per group.
    pub banks_per_group: usize,
}

/// Build a LIGO Inspiral workflow: per group,
/// `tmpltbank×k -> inspiral×k (1:1) -> thinca -> trigbank×k ->
/// inspiral2×k -> thinca2`.
///
/// # Panics
/// Panics if `groups` or `banks_per_group` is zero.
#[must_use]
pub fn ligo(shape: LigoShape) -> Workflow {
    assert!(shape.groups >= 1, "need at least one group");
    assert!(
        shape.banks_per_group >= 1,
        "need at least one bank per group"
    );
    const FRAME_MB: f64 = 10.0;
    let mut b = WorkflowBuilder::new(format!("ligo-{}x{}", shape.groups, shape.banks_per_group));
    for g in 0..shape.groups {
        let thinca = b.task(format!("thinca_{g}"), 60.0);
        let mut inspirals = Vec::new();
        for k in 0..shape.banks_per_group {
            let bank = b.task(format!("tmpltbank_{g}_{k}"), 600.0);
            let insp = b.task(format!("inspiral_{g}_{k}"), 1400.0);
            b.data_edge(bank, insp, FRAME_MB);
            b.data_edge(insp, thinca, FRAME_MB);
            inspirals.push(insp);
        }
        let thinca2 = b.task(format!("thinca2_{g}"), 60.0);
        for k in 0..shape.banks_per_group {
            let trig = b.task(format!("trigbank_{g}_{k}"), 60.0);
            b.data_edge(thinca, trig, FRAME_MB);
            let insp2 = b.task(format!("inspiral2_{g}_{k}"), 900.0);
            b.data_edge(trig, insp2, FRAME_MB);
            b.data_edge(insp2, thinca2, FRAME_MB);
        }
    }
    b.build().expect("LIGO generator emits a valid DAG")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_dag::StructureMetrics;

    #[test]
    fn epigenomics_task_count_and_depth() {
        let shape = EpigenomicsShape {
            lanes: 2,
            chunks_per_lane: 4,
        };
        let w = epigenomics(shape);
        // per lane: split + merge + 4 chunks × 4 stages = 18; global: 3
        assert_eq!(w.len(), 2 * (2 + 4 * 4) + 3);
        // split -> 4 pipeline stages -> merge -> mergeAll -> index -> pileup
        assert_eq!(w.depth(), 9);
        assert_eq!(w.entries().len(), 2);
        assert_eq!(w.exits().len(), 1);
    }

    #[test]
    fn epigenomics_chunks_are_pipelines() {
        let w = epigenomics(EpigenomicsShape {
            lanes: 1,
            chunks_per_lane: 3,
        });
        for t in w.tasks().iter().filter(|t| t.name.starts_with("map_")) {
            assert_eq!(w.predecessors(t.id).len(), 1);
            assert!(w
                .task(w.predecessors(t.id)[0].from)
                .name
                .starts_with("fastq2bfq"));
        }
    }

    #[test]
    fn cybershake_structure() {
        let w = cybershake(CyberShakeShape { synthesis: 10 });
        assert_eq!(w.len(), 2 + 2 + 2 * 10);
        assert_eq!(w.entries().len(), 2);
        // both zips are exits
        assert_eq!(w.exits().len(), 2);
        // every synthesis has exactly one extraction parent
        for t in w.tasks().iter().filter(|t| t.name.starts_with("seisSynth")) {
            assert_eq!(w.predecessors(t.id).len(), 1);
        }
        let m = StructureMetrics::compute(&w);
        assert!(m.parallelism > 0.5, "CyberShake is wide: {}", m.parallelism);
    }

    #[test]
    fn cybershake_zip_collects_everything() {
        let w = cybershake(CyberShakeShape { synthesis: 8 });
        let zip_seis = w.tasks().iter().find(|t| t.name == "zipSeis").unwrap();
        assert_eq!(w.predecessors(zip_seis.id).len(), 8);
    }

    #[test]
    fn ligo_structure() {
        let shape = LigoShape {
            groups: 2,
            banks_per_group: 3,
        };
        let w = ligo(shape);
        // per group: 3 banks + 3 inspirals + thinca + 3 trig + 3 insp2 + thinca2
        assert_eq!(w.len(), 2 * (3 + 3 + 1 + 3 + 3 + 1));
        assert_eq!(w.entries().len(), 6, "all template banks are entries");
        assert_eq!(w.exits().len(), 2, "one thinca2 per group");
        assert_eq!(w.depth(), 6);
    }

    #[test]
    fn ligo_thinca_joins_its_group_only() {
        let w = ligo(LigoShape {
            groups: 3,
            banks_per_group: 4,
        });
        for t in w.tasks().iter().filter(|t| t.name.starts_with("thinca_")) {
            assert_eq!(w.predecessors(t.id).len(), 4);
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(
            cybershake(CyberShakeShape { synthesis: 6 }),
            cybershake(CyberShakeShape { synthesis: 6 })
        );
    }

    #[test]
    #[should_panic(expected = "at least two synthesis")]
    fn tiny_cybershake_rejected() {
        let _ = cybershake(CyberShakeShape { synthesis: 1 });
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn empty_epigenomics_rejected() {
        let _ = epigenomics(EpigenomicsShape {
            lanes: 0,
            chunks_per_lane: 1,
        });
    }
}
