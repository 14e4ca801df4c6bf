//! Makespan lower bounds.
//!
//! Two families live here:
//!
//! * the **graph-level** bounds ([`critical_path_bound`], [`area_bound`]):
//!   valid for *any* allocation, used as oracles by the test-suite and for
//!   context in the experiment reports;
//! * the **allocation-level** bounds ([`allocation_lower_bound`],
//!   [`WideningBounds`]): valid for a *given* allocation — or for the whole
//!   cone of allocations reachable from it by widening — and admissible
//!   against every LoCBS schedule of that allocation. LoC-MPS uses
//!   [`allocation_lower_bound`] to skip corner-restart probes that provably
//!   cannot beat the incumbent makespan.
//!
//! Admissibility of the allocation-level bounds rests on two facts about
//! any valid LoCBS schedule: a task occupies `np(t)` processors for at
//! least `et(t, np(t))` time (area), and along every graph edge the
//! consumer finishes no earlier than `finish(producer) + et(consumer)`
//! (critical path with zero edge weights — transfers and queueing can only
//! add to it). Neither argument involves communication volumes, so the
//! bounds hold under every communication model, overlap regime and
//! backfilling variant alike.

use crate::allocation::Allocation;
use locmps_taskgraph::{TaskGraph, TaskId};

/// Critical-path lower bound: the longest path where every task takes its
/// best possible time over `1..=p` processors and communication is free.
pub fn critical_path_bound(g: &TaskGraph, p: usize) -> f64 {
    let best_time = |t: TaskId| {
        let prof = &g.task(t).profile;
        prof.time(prof.pbest(p))
    };
    g.critical_path(best_time, |_| 0.0).length
}

/// Area lower bound: total work cannot be processed faster than `P`
/// processors allow. Each task occupies at least its smallest area over
/// every width, `min_{n ∈ [1, P]} n·et(t, n)` (at one processor whenever
/// efficiency never rises with width), so the makespan is at least
/// `Σ_t min_n n·et(t, n) / P`.
pub fn area_bound(g: &TaskGraph, p: usize) -> f64 {
    let total: f64 = g
        .task_ids()
        .map(|t| {
            let prof = &g.task(t).profile;
            (1..=p.max(1))
                .map(|n| prof.area(n))
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    total / p.max(1) as f64
}

/// The tighter of the two bounds.
pub fn makespan_lower_bound(g: &TaskGraph, p: usize) -> f64 {
    critical_path_bound(g, p).max(area_bound(g, p))
}

/// Admissible lower bound on the makespan of **any** LoCBS schedule of `g`
/// under exactly the allocation `alloc` on `p` processors: the critical
/// path with node weight `et(t, np(t))` and zero edge weights, against the
/// area `Σ np(t)·et(t, np(t)) / p`.
pub fn allocation_lower_bound(g: &TaskGraph, alloc: &Allocation, p: usize) -> f64 {
    let cp = g
        .levels(|t| g.task(t).profile.time(alloc.np(t)), |_| 0.0)
        .cp_length();
    let area = alloc.total_area(g) / p.max(1) as f64;
    cp.max(area)
}

/// Precomputed suffix minima that bound the makespan over a whole
/// **widening cone**: every allocation reachable from a given one by the
/// LoC-MPS refinement moves (which only ever *increase* `np(t)`, clamped
/// at `p`).
///
/// For each task and width `np`, the structure holds
/// `min_{n ∈ [np, p]} et(t, n)` and `min_{n ∈ [np, p]} n·et(t, n)`;
/// [`WideningBounds::cone_bound`] assembles them into the critical-path /
/// area bound in `O(V + E)`. Building costs `O(V·p)` once per graph.
#[derive(Debug, Clone)]
pub struct WideningBounds {
    p: usize,
    /// Row-major `[task][np-1]`: `min_{n >= np} et(t, n)`.
    min_time: Vec<f64>,
    /// Row-major `[task][np-1]`: `min_{n >= np} n·et(t, n)`.
    min_area: Vec<f64>,
}

impl WideningBounds {
    /// Precomputes the tables for `g` on `p` processors.
    pub fn new(g: &TaskGraph, p: usize) -> Self {
        let p = p.max(1);
        let n_tasks = g.n_tasks();
        let mut min_time = vec![f64::INFINITY; n_tasks * p];
        let mut min_area = vec![f64::INFINITY; n_tasks * p];
        for t in g.task_ids() {
            let prof = &g.task(t).profile;
            let row = t.index() * p;
            let mut best_t = f64::INFINITY;
            let mut best_a = f64::INFINITY;
            for np in (1..=p).rev() {
                best_t = best_t.min(prof.time(np));
                best_a = best_a.min(prof.area(np));
                min_time[row + np - 1] = best_t;
                min_area[row + np - 1] = best_a;
            }
        }
        Self {
            p,
            min_time,
            min_area,
        }
    }

    #[inline]
    fn idx(&self, t: TaskId, np: usize) -> usize {
        t.index() * self.p + np.clamp(1, self.p) - 1
    }

    /// Admissible lower bound on the makespan of any LoCBS schedule whose
    /// allocation lies in the widening cone of `alloc` (pointwise
    /// `np'(t) ∈ [np(t), p]`): critical path under the per-task suffix-min
    /// execution times (zero edge weights) vs. the suffix-min area. `g`
    /// must be the graph the bounds were built for.
    ///
    /// # Panics
    /// Panics if the graph is cyclic — callers validate first.
    pub fn cone_bound(&self, g: &TaskGraph, alloc: &Allocation) -> f64 {
        let cp = g
            .levels(|t| self.min_time[self.idx(t, alloc.np(t))], |_| 0.0)
            .cp_length();
        let area: f64 = g
            .task_ids()
            .map(|t| self.min_area[self.idx(t, alloc.np(t))])
            .sum::<f64>()
            / self.p as f64;
        cp.max(area)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmps_speedup::{ExecutionProfile, SpeedupModel};

    #[test]
    fn chain_cp_bound() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(10.0));
        let b = g.add_task("b", ExecutionProfile::linear(20.0));
        g.add_edge(a, b, 0.0).unwrap();
        // Linear speedup on 4 procs: 2.5 + 5.0.
        assert!((critical_path_bound(&g, 4) - 7.5).abs() < 1e-12);
        // Area: both tasks have constant area 30; 30/4.
        assert!((area_bound(&g, 4) - 7.5).abs() < 1e-12);
        assert!((makespan_lower_bound(&g, 4) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn area_bound_uses_cheapest_allocation() {
        // Sub-linear speedup: wider is wasteful, so the cheapest area is at
        // one processor.
        let m = SpeedupModel::downey(4.0, 2.0).unwrap();
        let mut g = TaskGraph::new();
        g.add_task("t", ExecutionProfile::new(12.0, m).unwrap());
        assert!((area_bound(&g, 4) - 12.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn allocation_bound_uses_the_given_widths() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(10.0));
        let b = g.add_task("b", ExecutionProfile::linear(20.0));
        g.add_edge(a, b, 0.0).unwrap();
        // a on 2 procs (5.0), b on 4 procs (5.0): CP = 10, area = (10+20)/4.
        let alloc = Allocation::from_vec(vec![2, 4]);
        assert!((allocation_lower_bound(&g, &alloc, 4) - 10.0).abs() < 1e-12);
        // At 1 processor the same widths cost their full serial times.
        let ones = Allocation::ones(2);
        assert!((allocation_lower_bound(&g, &ones, 1) - 30.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "levels on invalid graph")]
    fn cone_bound_rejects_a_cyclic_graph() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(1.0));
        let b = g.add_task("b", ExecutionProfile::linear(1.0));
        g.add_edge(a, b, 0.0).unwrap();
        g.add_edge(b, a, 0.0).unwrap();
        WideningBounds::new(&g, 4).cone_bound(&g, &Allocation::ones(2));
    }

    #[test]
    fn independent_tasks_bounded_by_area() {
        let mut g = TaskGraph::new();
        for i in 0..8 {
            g.add_task(format!("t{i}"), ExecutionProfile::linear(10.0));
        }
        // 80 units of work on 2 processors: at least 40.
        assert!((area_bound(&g, 2) - 40.0).abs() < 1e-12);
        // CP bound is a single task at its best: 5.
        assert!((critical_path_bound(&g, 2) - 5.0).abs() < 1e-12);
        assert!((makespan_lower_bound(&g, 2) - 40.0).abs() < 1e-12);
    }
}
