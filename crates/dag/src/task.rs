//! Tasks and task identifiers.

/// Dense index of a task inside its [`Workflow`](crate::graph::Workflow).
///
/// Identifiers are assigned consecutively by the builder, so they can be
/// used to index side tables (`Vec<T>` keyed by task) without hashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The task's position as a `usize` for indexing side tables.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A workflow task.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Identifier (dense index within the owning workflow).
    pub id: TaskId,
    /// Human-readable name (e.g. `mProjectPP_3`).
    pub name: String,
    /// Execution time in seconds on the reference machine (a `small`,
    /// speed-up 1.0 instance). Runtime on type *t* is
    /// `base_time / speedup(t)`.
    pub base_time: f64,
    /// Total size of the task's input data in megabytes (used by
    /// data-intensive analyses; CPU-bound experiments leave it small).
    pub input_mb: f64,
    /// Optional application-level task type (e.g. `mProjectPP` for a
    /// Montage projection). Carried through the interchange format's
    /// `type` field; `None` for workloads that do not classify tasks.
    pub kind: Option<String>,
}

impl Task {
    /// Construct a task. `base_time` must be non-negative and finite.
    #[must_use]
    pub fn new(id: TaskId, name: impl Into<String>, base_time: f64) -> Self {
        assert!(
            base_time.is_finite() && base_time >= 0.0,
            "base_time must be finite and non-negative, got {base_time}"
        );
        Task {
            id,
            name: name.into(),
            base_time,
            input_mb: 0.0,
            kind: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_display_and_index() {
        let id = TaskId(7);
        assert_eq!(id.to_string(), "t7");
        assert_eq!(id.index(), 7);
    }

    #[test]
    fn task_construction() {
        let t = Task::new(TaskId(0), "mAdd", 120.0);
        assert_eq!(t.name, "mAdd");
        assert_eq!(t.base_time, 120.0);
        assert_eq!(t.input_mb, 0.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_base_time_rejected() {
        let _ = Task::new(TaskId(0), "bad", -1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_base_time_rejected() {
        let _ = Task::new(TaskId(0), "bad", f64::NAN);
    }
}
