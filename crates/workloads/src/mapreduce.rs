//! MapReduce workflow generator with two sequential map phases.
//!
//! The paper's Fig. 2(c) shows a MapReduce variant "in which there are two
//! sequential map phases": a split task fans out to the first map wave,
//! each first-phase mapper feeds its second-phase successor, the shuffle
//! connects every second-phase mapper to every reducer, and a final merge
//! collects the reducers.

use cws_dag::{TaskId, Workflow, WorkflowBuilder};

/// Shape parameters of a MapReduce instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapReduceShape {
    /// Mappers in the first map phase (the second phase has the same
    /// width, one successor per first-phase mapper).
    pub mappers: usize,
    /// Reducers.
    pub reducers: usize,
}

impl MapReduceShape {
    /// Default instance comparable in size to the 24-task Montage:
    /// 8 mappers per phase + 4 reducers + split + merge = 22 tasks.
    pub const DEFAULT: MapReduceShape = MapReduceShape {
        mappers: 8,
        reducers: 4,
    };

    /// Total number of tasks.
    #[must_use]
    pub const fn task_count(&self) -> usize {
        1 + 2 * self.mappers + self.reducers + 1
    }
}

/// Build a MapReduce workflow.
///
/// # Panics
/// Panics unless there is at least one mapper and one reducer.
#[must_use]
pub fn mapreduce(shape: MapReduceShape) -> Workflow {
    assert!(shape.mappers >= 1, "need at least one mapper");
    assert!(shape.reducers >= 1, "need at least one reducer");
    const BLOCK_MB: f64 = 64.0;

    let mut b = WorkflowBuilder::new(format!(
        "mapreduce-{}x{}x{}",
        shape.mappers, shape.mappers, shape.reducers
    ));

    let split = b.task("split", 30.0);

    let map1: Vec<TaskId> = (0..shape.mappers)
        .map(|i| {
            let t = b.task(format!("map1_{i}"), 200.0);
            b.data_edge(split, t, BLOCK_MB);
            t
        })
        .collect();

    let map2: Vec<TaskId> = map1
        .iter()
        .enumerate()
        .map(|(i, &m1)| {
            let t = b.task(format!("map2_{i}"), 200.0);
            b.data_edge(m1, t, BLOCK_MB);
            t
        })
        .collect();

    let reducers: Vec<TaskId> = (0..shape.reducers)
        .map(|i| b.task(format!("reduce_{i}"), 150.0))
        .collect();
    // shuffle: all-to-all between second map phase and reducers
    for &m in &map2 {
        for &r in &reducers {
            b.data_edge(m, r, BLOCK_MB / shape.reducers as f64);
        }
    }

    let merge = b.task("merge", 50.0);
    for &r in &reducers {
        b.data_edge(r, merge, BLOCK_MB);
    }

    b.build().expect("MapReduce generator emits a valid DAG")
}

/// The default 22-task MapReduce instance used in experiments.
#[must_use]
pub fn mapreduce_default() -> Workflow {
    mapreduce(MapReduceShape::DEFAULT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_dag::StructureMetrics;

    #[test]
    fn default_task_count() {
        let w = mapreduce_default();
        assert_eq!(w.len(), MapReduceShape::DEFAULT.task_count());
        assert_eq!(w.len(), 22);
        assert_eq!(w.name(), "mapreduce-8x8x4");
    }

    #[test]
    fn five_levels() {
        // split, map1, map2, reduce, merge
        let w = mapreduce_default();
        assert_eq!(w.depth(), 5);
        assert_eq!(w.levels()[1].len(), 8);
        assert_eq!(w.levels()[2].len(), 8);
        assert_eq!(w.levels()[3].len(), 4);
    }

    #[test]
    fn two_sequential_map_phases() {
        let w = mapreduce_default();
        for t in w.tasks().iter().filter(|t| t.name.starts_with("map2")) {
            let preds = w.predecessors(t.id);
            assert_eq!(preds.len(), 1);
            assert!(w.task(preds[0].from).name.starts_with("map1"));
        }
    }

    #[test]
    fn shuffle_is_all_to_all() {
        let w = mapreduce_default();
        for t in w.tasks().iter().filter(|t| t.name.starts_with("reduce")) {
            assert_eq!(
                w.predecessors(t.id).len(),
                8,
                "every map2 feeds every reducer"
            );
        }
    }

    #[test]
    fn single_entry_single_exit() {
        let w = mapreduce_default();
        assert_eq!(w.entries().len(), 1);
        assert_eq!(w.exits().len(), 1);
        assert_eq!(w.task(w.exits()[0]).name, "merge");
    }

    #[test]
    fn highly_parallel_structure() {
        let m = StructureMetrics::compute(&mapreduce_default());
        assert!(m.parallelism > 0.5, "MapReduce is wide: {}", m.parallelism);
        assert_eq!(m.max_width, 8);
    }

    #[test]
    fn scales_with_shape() {
        let w = mapreduce(MapReduceShape {
            mappers: 100,
            reducers: 10,
        });
        assert_eq!(w.len(), 212);
        assert_eq!(w.max_width(), 100);
    }

    #[test]
    #[should_panic(expected = "at least one mapper")]
    fn zero_mappers_rejected() {
        let _ = mapreduce(MapReduceShape {
            mappers: 0,
            reducers: 1,
        });
    }
}
