//! Per-task processor allocations `np(t)`.

use locmps_taskgraph::{TaskGraph, TaskId};

/// A processor allocation: how many processors each task gets.
///
/// Mapping (which processors) and timing are decided later by the
/// scheduler; the allocation is the object LoC-MPS iterates on.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Allocation {
    np: Vec<usize>,
}

impl Clone for Allocation {
    fn clone(&self) -> Self {
        Self {
            np: self.np.clone(),
        }
    }

    /// Copies `source` into this allocation's buffer.
    fn clone_from(&mut self, source: &Self) {
        self.np.clone_from(&source.np);
    }
}

impl Allocation {
    /// The pure task-parallel allocation: one processor per task
    /// (Algorithm 1, steps 1–2).
    pub fn ones(n_tasks: usize) -> Self {
        Self {
            np: vec![1; n_tasks],
        }
    }

    /// Every task on all `p` processors (the DATA baseline's allocation).
    pub fn uniform(n_tasks: usize, p: usize) -> Self {
        Self {
            np: vec![p.max(1); n_tasks],
        }
    }

    /// Builds from an explicit vector (one entry per task, each ≥ 1).
    pub fn from_vec(np: Vec<usize>) -> Self {
        assert!(np.iter().all(|&n| n >= 1), "allocations must be >= 1");
        Self { np }
    }

    /// `np(t)`.
    #[inline]
    pub fn np(&self, t: TaskId) -> usize {
        self.np[t.index()]
    }

    /// Sets `np(t)`.
    pub fn set(&mut self, t: TaskId, np: usize) {
        assert!(np >= 1, "allocations must be >= 1");
        self.np[t.index()] = np;
    }

    /// Increments `np(t)` by one, clamped to `max`.
    pub fn widen(&mut self, t: TaskId, max: usize) {
        self.np[t.index()] = (self.np[t.index()] + 1).min(max);
    }

    /// Number of tasks covered.
    pub fn len(&self) -> usize {
        self.np.len()
    }

    /// Whether the allocation covers zero tasks.
    pub fn is_empty(&self) -> bool {
        self.np.is_empty()
    }

    /// The raw vector.
    pub fn as_slice(&self) -> &[usize] {
        &self.np
    }

    /// Execution time of `t` under this allocation.
    pub fn exec_time(&self, g: &TaskGraph, t: TaskId) -> f64 {
        g.task(t).profile.time(self.np(t))
    }

    /// Total processor-time area `Σ np(t) · et(t, np(t))` — the quantity
    /// CPA balances against the critical-path length.
    pub fn total_area(&self, g: &TaskGraph) -> f64 {
        g.task_ids()
            .map(|t| self.np(t) as f64 * self.exec_time(g, t))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmps_speedup::ExecutionProfile;

    fn two_task_graph() -> TaskGraph {
        let mut g = TaskGraph::new();
        g.add_task("a", ExecutionProfile::linear(8.0));
        g.add_task("b", ExecutionProfile::linear(4.0));
        g
    }

    #[test]
    fn constructors() {
        let a = Allocation::ones(3);
        assert_eq!(a.as_slice(), &[1, 1, 1]);
        let u = Allocation::uniform(2, 4);
        assert_eq!(u.as_slice(), &[4, 4]);
        let v = Allocation::from_vec(vec![2, 5]);
        assert_eq!(v.np(TaskId(1)), 5);
    }

    #[test]
    fn widen_clamps() {
        let mut a = Allocation::ones(1);
        a.widen(TaskId(0), 2);
        assert_eq!(a.np(TaskId(0)), 2);
        a.widen(TaskId(0), 2);
        assert_eq!(a.np(TaskId(0)), 2, "clamped at max");
    }

    #[test]
    fn exec_time_and_area() {
        let g = two_task_graph();
        let a = Allocation::from_vec(vec![2, 1]);
        assert_eq!(a.exec_time(&g, TaskId(0)), 4.0);
        assert_eq!(a.exec_time(&g, TaskId(1)), 4.0);
        // Area: 2*4 + 1*4 = 12 (linear speedup preserves area).
        assert_eq!(a.total_area(&g), 12.0);
    }

    #[test]
    #[should_panic(expected = ">= 1")]
    fn zero_allocation_panics() {
        Allocation::from_vec(vec![0]);
    }
}
