//! Workload characterization: the structural numbers behind Fig. 2.
//!
//! The paper describes its four workflows qualitatively ("quite
//! intermingled", "relative sequential nature", …). This table makes the
//! description quantitative for every generator in the library — the
//! features the adaptive selector keys on.

use crate::report::{fmt_f, Table};
use cws_dag::{critical_path, StructureMetrics, Workflow};
use cws_workloads::pegasus::{
    cybershake, epigenomics, ligo, CyberShakeShape, EpigenomicsShape, LigoShape,
};
use cws_workloads::{bag_of_tasks, paper_workflows};

/// Structural profile of one workload.
#[derive(Debug, Clone)]
pub struct WorkloadProfile {
    /// Workflow name.
    pub workflow: String,
    /// Task count.
    pub tasks: usize,
    /// Edge count.
    pub edges: usize,
    /// Level count.
    pub depth: usize,
    /// Widest level.
    pub max_width: usize,
    /// Parallelism ratio (0 = chain, 1 = flat bag).
    pub parallelism: f64,
    /// Edges per task.
    pub density: f64,
    /// Critical path length over total work (0..1; small = parallel).
    pub cp_fraction: f64,
    /// Table V structural class.
    pub class: String,
}

/// Profile one workflow.
#[must_use]
pub fn profile(wf: &Workflow) -> WorkloadProfile {
    let m = StructureMetrics::compute(wf);
    let cp = critical_path(wf, |t| wf.task(t).base_time, |_| 0.0);
    WorkloadProfile {
        workflow: wf.name().to_string(),
        tasks: m.tasks,
        edges: m.edges,
        depth: m.depth,
        max_width: m.max_width,
        parallelism: m.parallelism,
        density: m.dependency_density,
        cp_fraction: cp.length / wf.total_work(),
        class: m.classify().to_string(),
    }
}

/// Profiles for every generator family the library ships.
#[must_use]
pub fn characterize_all() -> Vec<WorkloadProfile> {
    let mut wfs = paper_workflows();
    wfs.push(epigenomics(EpigenomicsShape {
        lanes: 2,
        chunks_per_lane: 4,
    }));
    wfs.push(cybershake(CyberShakeShape { synthesis: 20 }));
    wfs.push(ligo(LigoShape {
        groups: 2,
        banks_per_group: 4,
    }));
    wfs.push(bag_of_tasks(24));
    wfs.iter().map(profile).collect()
}

/// Render profiles as a table.
#[must_use]
pub fn characterize_report(profiles: &[WorkloadProfile]) -> Table {
    let mut t = Table::new(
        "Workload characterization (the structure behind Fig. 2)",
        &[
            "workflow",
            "tasks",
            "edges",
            "depth",
            "max_width",
            "parallelism",
            "density",
            "cp_fraction",
            "class",
        ],
    );
    for p in profiles {
        t.row(vec![
            p.workflow.clone(),
            p.tasks.to_string(),
            p.edges.to_string(),
            p.depth.to_string(),
            p.max_width.to_string(),
            fmt_f(p.parallelism, 2),
            fmt_f(p.density, 2),
            fmt_f(p.cp_fraction, 2),
            p.class.clone(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_cover_all_families() {
        let ps = characterize_all();
        assert_eq!(ps.len(), 8);
        let names: Vec<&str> = ps.iter().map(|p| p.workflow.as_str()).collect();
        assert!(names.contains(&"montage-24"));
        assert!(names.iter().any(|n| n.starts_with("epigenomics")));
        assert!(names.contains(&"bot-24"));
    }

    #[test]
    fn cp_fraction_separates_the_extremes() {
        let ps = characterize_all();
        let find = |n: &str| ps.iter().find(|p| p.workflow == n).unwrap();
        // chains execute everything on the CP; bags almost nothing
        assert!((find("sequential-20").cp_fraction - 1.0).abs() < 1e-9);
        assert!(find("bot-24").cp_fraction < 0.1);
        assert!(find("montage-24").cp_fraction < 0.5);
    }

    #[test]
    fn classes_match_the_paper_rows() {
        let ps = characterize_all();
        let find = |n: &str| ps.iter().find(|p| p.workflow == n).unwrap();
        assert_eq!(find("sequential-20").class, "sequential");
        assert_eq!(find("cstem").class, "some parallelism");
        assert!(find("mapreduce-8x8x4").class.contains("parallelism"));
    }

    #[test]
    fn report_renders() {
        let t = characterize_report(&characterize_all());
        assert_eq!(t.rows.len(), 8);
    }
}
