//! Random DAG generators for the paper's future-work sweep.
//!
//! "Future work will investigate this correlation in greater detail by
//! including custom workflows and execution times with various properties"
//! (Sect. VI). These generators produce parameterised synthetic DAGs:
//! layered DAGs with controllable width and density, and fork-join DAGs
//! with controllable fan-out.

use cws_dag::{TaskId, Workflow, WorkflowBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters of a random layered DAG.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayeredShape {
    /// Number of levels.
    pub levels: usize,
    /// Minimum tasks per level.
    pub min_width: usize,
    /// Maximum tasks per level (inclusive).
    pub max_width: usize,
    /// Probability that a task at level *l* depends on a given task at
    /// level *l − 1* (each task is guaranteed at least one predecessor so
    /// levels stay aligned).
    pub edge_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LayeredShape {
    fn default() -> Self {
        LayeredShape {
            levels: 6,
            min_width: 2,
            max_width: 6,
            edge_prob: 0.35,
            seed: 42,
        }
    }
}

/// Generate a random layered DAG. Every task at level *l > 0* has at
/// least one predecessor at level *l − 1*, so the generated level
/// decomposition matches the requested one exactly.
///
/// # Panics
/// Panics on degenerate parameters (zero levels/width, inverted bounds,
/// probability outside `[0, 1]`).
#[must_use]
pub fn layered_dag(shape: LayeredShape) -> Workflow {
    assert!(shape.levels >= 1, "need at least one level");
    assert!(
        shape.min_width >= 1 && shape.min_width <= shape.max_width,
        "need 1 <= min_width <= max_width"
    );
    assert!(
        (0.0..=1.0).contains(&shape.edge_prob),
        "edge_prob must be in [0, 1]"
    );
    let mut rng = SmallRng::seed_from_u64(shape.seed);
    let mut b = WorkflowBuilder::new(format!("layered-{}x{}", shape.levels, shape.max_width));

    let mut prev: Vec<TaskId> = Vec::new();
    for level in 0..shape.levels {
        let width = rng.gen_range(shape.min_width..=shape.max_width);
        let current: Vec<TaskId> = (0..width)
            .map(|i| b.task(format!("l{level}_t{i}"), 100.0))
            .collect();
        if level > 0 {
            for &t in &current {
                let mut connected = false;
                for &p in &prev {
                    if rng.gen::<f64>() < shape.edge_prob {
                        b.data_edge(p, t, 10.0);
                        connected = true;
                    }
                }
                if !connected {
                    let p = prev[rng.gen_range(0..prev.len())];
                    b.data_edge(p, t, 10.0);
                }
            }
        }
        prev = current;
    }
    b.build().expect("layered generator emits a valid DAG")
}

/// Parameters of a fork-join DAG: `stages` sequential fork-join blocks,
/// each forking into `fanout` parallel tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForkJoinShape {
    /// Number of fork-join blocks chained one after another.
    pub stages: usize,
    /// Parallel tasks inside each block.
    pub fanout: usize,
}

/// Generate a fork-join DAG: `fork_i -> {work_i_0 … work_i_{fanout-1}} ->
/// join_i -> fork_{i+1} …`.
///
/// # Panics
/// Panics if `stages == 0` or `fanout == 0`.
#[must_use]
pub fn fork_join(shape: ForkJoinShape) -> Workflow {
    assert!(shape.stages >= 1, "need at least one stage");
    assert!(shape.fanout >= 1, "need at least fan-out 1");
    let mut b = WorkflowBuilder::new(format!("forkjoin-{}x{}", shape.stages, shape.fanout));
    let mut tail: Option<TaskId> = None;
    for s in 0..shape.stages {
        let fork = b.task(format!("fork_{s}"), 50.0);
        if let Some(prev) = tail {
            b.data_edge(prev, fork, 5.0);
        }
        let join = {
            let workers: Vec<TaskId> = (0..shape.fanout)
                .map(|i| {
                    let w = b.task(format!("work_{s}_{i}"), 200.0);
                    b.data_edge(fork, w, 5.0);
                    w
                })
                .collect();
            let join = b.task(format!("join_{s}"), 50.0);
            for w in workers {
                b.data_edge(w, join, 5.0);
            }
            join
        };
        tail = Some(join);
    }
    b.build().expect("fork-join generator emits a valid DAG")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_dag::StructureMetrics;

    #[test]
    fn layered_respects_level_structure() {
        let shape = LayeredShape::default();
        let w = layered_dag(shape);
        assert_eq!(w.depth(), shape.levels);
        for level in w.levels() {
            assert!(level.len() >= shape.min_width);
            assert!(level.len() <= shape.max_width);
        }
    }

    #[test]
    fn layered_is_deterministic_per_seed() {
        let a = layered_dag(LayeredShape::default());
        let b = layered_dag(LayeredShape::default());
        assert_eq!(a, b);
        let c = layered_dag(LayeredShape {
            seed: 7,
            ..LayeredShape::default()
        });
        assert_ne!(a, c);
    }

    #[test]
    fn layered_every_non_entry_has_predecessor() {
        let w = layered_dag(LayeredShape {
            edge_prob: 0.0, // forces the fallback single-predecessor path
            ..LayeredShape::default()
        });
        for id in w.ids() {
            if w.level_of(id) > 0 {
                assert!(!w.predecessors(id).is_empty());
            }
        }
    }

    #[test]
    fn dense_layered_dag_has_high_density() {
        let sparse = StructureMetrics::compute(&layered_dag(LayeredShape {
            edge_prob: 0.05,
            ..LayeredShape::default()
        }));
        let dense = StructureMetrics::compute(&layered_dag(LayeredShape {
            edge_prob: 0.95,
            ..LayeredShape::default()
        }));
        assert!(dense.dependency_density > sparse.dependency_density);
    }

    #[test]
    fn fork_join_structure() {
        let w = fork_join(ForkJoinShape {
            stages: 3,
            fanout: 4,
        });
        assert_eq!(w.len(), 3 * (1 + 4 + 1));
        assert_eq!(w.depth(), 9);
        assert_eq!(w.max_width(), 4);
        assert_eq!(w.entries().len(), 1);
        assert_eq!(w.exits().len(), 1);
    }

    #[test]
    fn fork_join_fanout_one_is_a_chain() {
        let w = fork_join(ForkJoinShape {
            stages: 2,
            fanout: 1,
        });
        assert_eq!(w.max_width(), 1);
        assert_eq!(StructureMetrics::compute(&w).parallelism, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stages_rejected() {
        let _ = fork_join(ForkJoinShape {
            stages: 0,
            fanout: 1,
        });
    }

    #[test]
    #[should_panic(expected = "edge_prob")]
    fn bad_probability_rejected() {
        let _ = layered_dag(LayeredShape {
            edge_prob: 1.5,
            ..LayeredShape::default()
        });
    }
}
