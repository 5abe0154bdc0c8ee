//! The workflow graph structure and its builder.

use crate::error::DagError;
use crate::task::{Task, TaskId};

/// A directed data-dependency edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Producing task.
    pub from: TaskId,
    /// Consuming task.
    pub to: TaskId,
    /// Payload moved along the edge, in megabytes. Zero for pure control
    /// dependencies.
    pub data_mb: f64,
}

/// An immutable, validated workflow DAG.
///
/// Construction goes through [`WorkflowBuilder`], which checks that the
/// graph is non-empty, acyclic, self-loop free and has no duplicate
/// edges. Task ids are dense (`0..n`), so `Vec`-based side tables can be
/// indexed by [`TaskId::index`].
#[derive(Debug, Clone, PartialEq)]
pub struct Workflow {
    name: String,
    tasks: Vec<Task>,
    /// Outgoing edges per task, parallel to `tasks`.
    succs: Vec<Vec<Edge>>,
    /// Incoming edges per task, parallel to `tasks`.
    preds: Vec<Vec<Edge>>,
    /// Cached topological order (computed at validation time).
    topo: Vec<TaskId>,
    /// Cached level index per task (longest path from an entry, in hops).
    level_of: Vec<u32>,
    /// Cached level decomposition: `levels[l]` lists the tasks at level `l`.
    levels: Vec<Vec<TaskId>>,
}

impl Workflow {
    /// The workflow's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the workflow has no tasks. Always `false` for validated
    /// workflows; present for API completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// All tasks in id order.
    #[must_use]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Access one task.
    #[must_use]
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// Iterator over every task id in id order.
    pub fn ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len() as u32).map(TaskId)
    }

    /// Outgoing edges of `id`.
    #[must_use]
    pub fn successors(&self, id: TaskId) -> &[Edge] {
        &self.succs[id.index()]
    }

    /// Incoming edges of `id`.
    #[must_use]
    pub fn predecessors(&self, id: TaskId) -> &[Edge] {
        &self.preds[id.index()]
    }

    /// Total number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// Iterator over all edges.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> + '_ {
        self.succs.iter().flatten()
    }

    /// Entry tasks: tasks with no predecessors (the paper's "initial
    /// workflow tasks").
    #[must_use]
    pub fn entries(&self) -> Vec<TaskId> {
        self.ids()
            .filter(|id| self.preds[id.index()].is_empty())
            .collect()
    }

    /// Exit tasks: tasks with no successors (the paper's "final tasks").
    #[must_use]
    pub fn exits(&self) -> Vec<TaskId> {
        self.ids()
            .filter(|id| self.succs[id.index()].is_empty())
            .collect()
    }

    /// A topological order of the tasks (entries first). Cached at
    /// construction; ties are broken by task id, so the order is
    /// deterministic.
    #[must_use]
    pub fn topological_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// Level of a task: length (in hops) of the longest path from any
    /// entry task. Entries are level 0. Level-ranking schedulers treat
    /// each level as a set of parallel tasks.
    #[must_use]
    pub fn level_of(&self, id: TaskId) -> u32 {
        self.level_of[id.index()]
    }

    /// The level decomposition: `levels()[l]` lists the tasks of level
    /// `l` in id order. Every task appears in exactly one level.
    #[must_use]
    pub fn levels(&self) -> &[Vec<TaskId>] {
        &self.levels
    }

    /// The number of levels (depth of the DAG in hops + 1).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Width of the widest level.
    #[must_use]
    pub fn max_width(&self) -> usize {
        self.levels.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Sum of `base_time` over all tasks: the sequential execution time on
    /// the reference machine.
    #[must_use]
    pub fn total_work(&self) -> f64 {
        self.tasks.iter().map(|t| t.base_time).sum()
    }

    /// Data size carried by the edge `from -> to`, if that edge exists.
    #[must_use]
    pub fn edge_data(&self, from: TaskId, to: TaskId) -> Option<f64> {
        self.succs[from.index()]
            .iter()
            .find(|e| e.to == to)
            .map(|e| e.data_mb)
    }

    /// Rebuild this workflow with new base execution times, preserving the
    /// structure. `times[i]` becomes the base time of task `i`.
    ///
    /// # Panics
    /// Panics if `times.len() != self.len()` or any time is invalid.
    #[must_use]
    pub fn with_base_times(&self, times: &[f64]) -> Workflow {
        assert_eq!(
            times.len(),
            self.len(),
            "need exactly one time per task ({} != {})",
            times.len(),
            self.len()
        );
        let mut wf = self.clone();
        for (task, &t) in wf.tasks.iter_mut().zip(times) {
            assert!(
                t.is_finite() && t >= 0.0,
                "base time must be finite and non-negative, got {t}"
            );
            task.base_time = t;
        }
        wf
    }

    /// Rebuild with every task's base time set to `t`.
    #[must_use]
    pub fn with_uniform_time(&self, t: f64) -> Workflow {
        self.with_base_times(&vec![t; self.len()])
    }
}

/// Incremental builder for [`Workflow`].
///
/// # Examples
/// ```
/// use cws_dag::WorkflowBuilder;
///
/// let mut b = WorkflowBuilder::new("pipeline");
/// let extract = b.task("extract", 120.0);
/// let transform = b.task("transform", 300.0);
/// let load = b.task("load", 60.0);
/// b.data_edge(extract, transform, 512.0);
/// b.data_edge(transform, load, 64.0);
/// let wf = b.build().unwrap();
/// assert_eq!(wf.depth(), 3);
/// assert_eq!(wf.total_work(), 480.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WorkflowBuilder {
    name: String,
    tasks: Vec<Task>,
    edges: Vec<Edge>,
}

impl WorkflowBuilder {
    /// Start building a workflow with the given name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        WorkflowBuilder {
            name: name.into(),
            tasks: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Add a task with a reference execution time; returns its id.
    pub fn task(&mut self, name: impl Into<String>, base_time: f64) -> TaskId {
        self.task_detailed(name, base_time, 0.0, None)
    }

    /// Add a task with all optional attributes: input data size in
    /// megabytes and an application-level task type (the interchange
    /// format's `input_mb` and `type` fields). Returns its id.
    pub fn task_detailed(
        &mut self,
        name: impl Into<String>,
        base_time: f64,
        input_mb: f64,
        kind: Option<String>,
    ) -> TaskId {
        assert!(
            input_mb.is_finite() && input_mb >= 0.0,
            "input_mb must be finite and non-negative, got {input_mb}"
        );
        let id = TaskId(self.tasks.len() as u32);
        let mut t = Task::new(id, name, base_time);
        t.input_mb = input_mb;
        t.kind = kind;
        self.tasks.push(t);
        id
    }

    /// Add a pure control dependency (no data payload).
    pub fn edge(&mut self, from: TaskId, to: TaskId) -> &mut Self {
        self.data_edge(from, to, 0.0)
    }

    /// Add a data dependency carrying `data_mb` megabytes.
    pub fn data_edge(&mut self, from: TaskId, to: TaskId, data_mb: f64) -> &mut Self {
        assert!(
            data_mb.is_finite() && data_mb >= 0.0,
            "edge payload must be finite and non-negative, got {data_mb}"
        );
        self.edges.push(Edge { from, to, data_mb });
        self
    }

    /// Number of tasks added so far.
    #[must_use]
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Validate and freeze the workflow.
    ///
    /// Of several bad edges, the error names the first in insertion
    /// order. Building takes O(E log E) time, however the edges fan out.
    ///
    /// # Errors
    /// Returns a [`DagError`] if the graph is empty, references unknown
    /// tasks, contains self-loops, duplicate edges, or a cycle.
    pub fn build(self) -> Result<Workflow, DagError> {
        let n = self.tasks.len();
        if n == 0 {
            return Err(DagError::Empty);
        }
        let mut succs: Vec<Vec<Edge>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<Edge>> = vec![Vec::new(); n];
        // Wire edges up to the first that names an unknown task or
        // loops; whether an earlier one repeats another is only known
        // once the lists are sorted.
        let mut bad = None;
        for (i, e) in self.edges.iter().enumerate() {
            let err = if e.from.index() >= n {
                DagError::UnknownTask(e.from)
            } else if e.to.index() >= n {
                DagError::UnknownTask(e.to)
            } else if e.from == e.to {
                DagError::SelfLoop(e.from)
            } else {
                succs[e.from.index()].push(*e);
                preds[e.to.index()].push(*e);
                continue;
            };
            bad = Some((i, err));
            break;
        }
        // Canonicalize adjacency order so two workflows with the same
        // structure compare equal regardless of edge insertion order
        // (serialization round-trips rely on this).
        for s in &mut succs {
            s.sort_by_key(|e| e.to);
        }
        for p in &mut preds {
            p.sort_by_key(|e| e.from);
        }
        // A repeated edge now sits beside its twin.
        if succs
            .iter()
            .any(|s| s.windows(2).any(|w| w[0].to == w[1].to))
        {
            let wired = bad.as_ref().map_or(self.edges.len(), |&(i, _)| i);
            if let Some(repeat) = first_repeat(&self.edges[..wired]) {
                return Err(repeat);
            }
        }
        if let Some((_, err)) = bad {
            return Err(err);
        }

        // Kahn's algorithm; deterministic because the ready set is a
        // min-heap on task id.
        let mut indeg: Vec<usize> = preds.iter().map(Vec::len).collect();
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<u32>> = indeg
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d == 0)
            .map(|(i, _)| std::cmp::Reverse(i as u32))
            .collect();
        let mut topo = Vec::with_capacity(n);
        let mut level_of = vec![0u32; n];
        while let Some(std::cmp::Reverse(i)) = ready.pop() {
            let id = TaskId(i);
            topo.push(id);
            for e in &succs[id.index()] {
                let j = e.to.index();
                level_of[j] = level_of[j].max(level_of[id.index()] + 1);
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    ready.push(std::cmp::Reverse(e.to.0));
                }
            }
        }
        if topo.len() != n {
            // Some task never reached in-degree 0: it is on (or behind) a
            // cycle. Report the smallest such id.
            let witness = indeg
                .iter()
                .position(|&d| d > 0)
                .map(|i| TaskId(i as u32))
                .expect("cycle implies a task with positive in-degree");
            return Err(DagError::Cycle {
                cycle_witness: witness,
            });
        }

        let depth = level_of.iter().copied().max().unwrap_or(0) as usize + 1;
        let mut levels = vec![Vec::new(); depth];
        for id in (0..n as u32).map(TaskId) {
            levels[level_of[id.index()] as usize].push(id);
        }

        Ok(Workflow {
            name: self.name,
            tasks: self.tasks,
            succs,
            preds,
            topo,
            level_of,
            levels,
        })
    }
}

/// The first edge, in insertion order, that repeats an earlier one.
fn first_repeat(edges: &[Edge]) -> Option<DagError> {
    let mut order: Vec<usize> = (0..edges.len()).collect();
    order.sort_unstable_by_key(|&i| (edges[i].from, edges[i].to, i));
    order
        .windows(2)
        .filter(|w| edges[w[0]].from == edges[w[1]].from && edges[w[0]].to == edges[w[1]].to)
        .map(|w| w[1])
        .min()
        .map(|i| DagError::DuplicateEdge(edges[i].from, edges[i].to))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// diamond: a -> b, a -> c, b -> d, c -> d
    fn diamond() -> Workflow {
        let mut b = WorkflowBuilder::new("diamond");
        let a = b.task("a", 10.0);
        let t_b = b.task("b", 20.0);
        let c = b.task("c", 30.0);
        let d = b.task("d", 40.0);
        b.edge(a, t_b).edge(a, c).edge(t_b, d).edge(c, d);
        b.build().unwrap()
    }

    #[test]
    fn diamond_basics() {
        let w = diamond();
        assert_eq!(w.len(), 4);
        assert_eq!(w.edge_count(), 4);
        assert_eq!(w.entries(), vec![TaskId(0)]);
        assert_eq!(w.exits(), vec![TaskId(3)]);
        assert_eq!(w.total_work(), 100.0);
    }

    #[test]
    fn diamond_levels() {
        let w = diamond();
        assert_eq!(w.depth(), 3);
        assert_eq!(w.levels()[0], vec![TaskId(0)]);
        assert_eq!(w.levels()[1], vec![TaskId(1), TaskId(2)]);
        assert_eq!(w.levels()[2], vec![TaskId(3)]);
        assert_eq!(w.max_width(), 2);
        assert_eq!(w.level_of(TaskId(2)), 1);
    }

    #[test]
    fn topological_order_respects_edges() {
        let w = diamond();
        let topo = w.topological_order();
        let pos = |id: TaskId| topo.iter().position(|&t| t == id).expect("task in topo");
        for e in w.edges() {
            assert!(pos(e.from) < pos(e.to), "{} before {}", e.from, e.to);
        }
    }

    #[test]
    fn preds_and_succs_are_symmetric() {
        let w = diamond();
        for e in w.edges() {
            assert!(w.predecessors(e.to).iter().any(|x| x.from == e.from));
        }
    }

    #[test]
    fn edge_data_lookup() {
        let mut b = WorkflowBuilder::new("data");
        let a = b.task("a", 1.0);
        let c = b.task("c", 1.0);
        b.data_edge(a, c, 512.0);
        let w = b.build().unwrap();
        assert_eq!(w.edge_data(a, c), Some(512.0));
        assert_eq!(w.edge_data(c, a), None);
    }

    #[test]
    fn empty_workflow_rejected() {
        assert_eq!(
            WorkflowBuilder::new("empty").build().unwrap_err(),
            DagError::Empty
        );
    }

    #[test]
    fn unknown_task_rejected() {
        let mut b = WorkflowBuilder::new("bad");
        let a = b.task("a", 1.0);
        b.edge(a, TaskId(9));
        assert_eq!(b.build().unwrap_err(), DagError::UnknownTask(TaskId(9)));
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = WorkflowBuilder::new("bad");
        let a = b.task("a", 1.0);
        b.edge(a, a);
        assert_eq!(b.build().unwrap_err(), DagError::SelfLoop(a));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut b = WorkflowBuilder::new("bad");
        let a = b.task("a", 1.0);
        let c = b.task("c", 1.0);
        b.edge(a, c).edge(a, c);
        assert_eq!(b.build().unwrap_err(), DagError::DuplicateEdge(a, c));
    }

    #[test]
    fn the_first_bad_edge_in_insertion_order_is_named() {
        let (a, c, d, ghost) = (TaskId(0), TaskId(1), TaskId(2), TaskId(9));
        for (edges, first) in [
            (
                vec![(a, c), (a, c), (a, ghost)],
                DagError::DuplicateEdge(a, c),
            ),
            (
                vec![(a, c), (a, ghost), (a, c)],
                DagError::UnknownTask(ghost),
            ),
            (vec![(ghost, a), (d, d)], DagError::UnknownTask(ghost)),
            (vec![(a, c), (d, d), (a, c)], DagError::SelfLoop(d)),
            (vec![(a, c), (a, c), (d, d)], DagError::DuplicateEdge(a, c)),
            // The repeat that comes first, not the lowest source.
            (
                vec![(a, c), (d, c), (d, c), (a, c)],
                DagError::DuplicateEdge(d, c),
            ),
            (
                vec![(c, d), (a, d), (a, c), (a, c), (c, d)],
                DagError::DuplicateEdge(a, c),
            ),
        ] {
            let mut b = WorkflowBuilder::new("bad");
            for name in ["a", "c", "d"] {
                b.task(name, 1.0);
            }
            for &(from, to) in &edges {
                b.edge(from, to);
            }
            assert_eq!(b.build().unwrap_err(), first, "{edges:?}");
        }
    }

    #[test]
    fn cycle_rejected() {
        let mut b = WorkflowBuilder::new("cyc");
        let a = b.task("a", 1.0);
        let c = b.task("c", 1.0);
        let d = b.task("d", 1.0);
        b.edge(a, c).edge(c, d).edge(d, c);
        match b.build().unwrap_err() {
            DagError::Cycle { cycle_witness } => {
                assert!(cycle_witness == c || cycle_witness == d);
            }
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn single_task_workflow() {
        let mut b = WorkflowBuilder::new("one");
        b.task("only", 5.0);
        let w = b.build().unwrap();
        assert_eq!(w.depth(), 1);
        assert_eq!(w.entries(), w.exits());
    }

    #[test]
    fn with_base_times_rewrites_durations() {
        let w = diamond();
        let w2 = w.with_base_times(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(w2.task(TaskId(2)).base_time, 3.0);
        assert_eq!(w2.edge_count(), w.edge_count());
        // original untouched
        assert_eq!(w.task(TaskId(2)).base_time, 30.0);
    }

    #[test]
    fn with_uniform_time() {
        let w = diamond().with_uniform_time(7.5);
        assert!(w.tasks().iter().all(|t| t.base_time == 7.5));
    }

    #[test]
    #[should_panic(expected = "one time per task")]
    fn with_base_times_length_mismatch_panics() {
        let _ = diamond().with_base_times(&[1.0]);
    }

    #[test]
    fn disconnected_components_allowed() {
        let mut b = WorkflowBuilder::new("two-chains");
        let a = b.task("a", 1.0);
        let c = b.task("c", 1.0);
        let d = b.task("d", 1.0);
        let e = b.task("e", 1.0);
        b.edge(a, c).edge(d, e);
        let w = b.build().unwrap();
        assert_eq!(w.entries().len(), 2);
        assert_eq!(w.exits().len(), 2);
        assert_eq!(w.depth(), 2);
    }
}
