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
//!   against every LoCBS schedule of that allocation. LoC-MPS uses them to
//!   prune look-ahead branches that provably cannot beat the incumbent
//!   makespan (the bound-driven search pruning of Wu & Loiseau and Marchal
//!   et al., adapted to the iterative widening walk).
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
use locmps_taskgraph::{Levels, TaskGraph, TaskId};

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
/// area bound in `O(V + E)`. Building costs `O(V·p)` once per graph, plus
/// one topological sort whose order every later bound sweeps along, so a
/// bound sorts nothing; [`WideningBounds::cone_bound_within_in`] also
/// sweeps into the caller's [`ConeBuffers`] and allocates nothing. Every
/// query takes the graph the bounds were built for.
#[derive(Debug, Clone)]
pub struct WideningBounds {
    p: usize,
    /// A topological order of the graph, from [`TaskGraph::topo_order`].
    order: Vec<TaskId>,
    /// Row-major `[task][np-1]`: `et(t, np)` verbatim.
    time: Vec<f64>,
    /// Row-major `[task][np-1]`: `np·et(t, np)` verbatim.
    area: Vec<f64>,
    /// Row-major `[task][np-1]`: `min_{n >= np} et(t, n)`.
    min_time: Vec<f64>,
    /// Row-major `[task][np-1]`: `min_{n >= np} n·et(t, n)`.
    min_area: Vec<f64>,
}

impl WideningBounds {
    /// Precomputes the tables for `g` on `p` processors.
    ///
    /// # Panics
    /// Panics if the graph is cyclic or empty — callers validate first.
    pub fn new(g: &TaskGraph, p: usize) -> Self {
        let order = g.topo_order().expect("widening bounds on invalid graph");
        let p = p.max(1);
        let n_tasks = g.n_tasks();
        let mut time = vec![f64::INFINITY; n_tasks * p];
        let mut area = vec![f64::INFINITY; n_tasks * p];
        let mut min_time = vec![f64::INFINITY; n_tasks * p];
        let mut min_area = vec![f64::INFINITY; n_tasks * p];
        for t in g.task_ids() {
            let prof = &g.task(t).profile;
            let row = t.index() * p;
            let mut best_t = f64::INFINITY;
            let mut best_a = f64::INFINITY;
            for np in (1..=p).rev() {
                let (et, ar) = (prof.time(np), prof.area(np));
                time[row + np - 1] = et;
                area[row + np - 1] = ar;
                best_t = best_t.min(et);
                best_a = best_a.min(ar);
                min_time[row + np - 1] = best_t;
                min_area[row + np - 1] = best_a;
            }
        }
        Self {
            p,
            order,
            time,
            area,
            min_time,
            min_area,
        }
    }

    /// The cluster size the minima were computed for.
    pub fn p(&self) -> usize {
        self.p
    }

    #[inline]
    fn idx(&self, t: TaskId, np: usize) -> usize {
        t.index() * self.p + np.clamp(1, self.p) - 1
    }

    /// Admissible lower bound on the makespan of any LoCBS schedule whose
    /// allocation lies in the widening cone of `alloc` (pointwise
    /// `np'(t) ∈ [np(t), p]`): critical path under the per-task suffix-min
    /// execution times (zero edge weights) vs. the suffix-min area.
    pub fn cone_bound(&self, g: &TaskGraph, alloc: &Allocation) -> f64 {
        let mut levels = Levels::default();
        g.levels_along(
            &self.order,
            |t| self.min_time[self.idx(t, alloc.np(t))],
            |_| 0.0,
            &mut levels,
        );
        let cp = levels.cp_length();
        let area: f64 = g
            .task_ids()
            .map(|t| self.min_area[self.idx(t, alloc.np(t))])
            .sum::<f64>()
            / self.p as f64;
        cp.max(area)
    }

    /// Minimum of `table` over the width window `[np, min(np + d, p)]`.
    #[inline]
    fn window_min(&self, table: &[f64], suffix: &[f64], t: TaskId, np: usize, d: usize) -> f64 {
        let np = np.clamp(1, self.p);
        if np.saturating_add(d) >= self.p {
            return suffix[self.idx(t, np)];
        }
        let row = t.index() * self.p;
        table[row + np - 1..=row + np + d - 1]
            .iter()
            .fold(f64::INFINITY, |m, &v| m.min(v))
    }

    /// [`WideningBounds::cone_bound`] restricted to allocations reachable
    /// with at most `steps` further refinement moves: a move widens any
    /// task by at most one processor, so every reachable width lies in the
    /// per-task window `[np(t), min(np(t) + steps, p)]`. The window makes
    /// the bound far tighter than the full cone early in a walk, and it
    /// tightens further as the remaining depth shrinks.
    pub fn cone_bound_within(&self, g: &TaskGraph, alloc: &Allocation, steps: usize) -> f64 {
        self.cone_bound_within_in(g, alloc, steps, &mut ConeBuffers::default())
    }

    /// [`WideningBounds::cone_bound_within`] with `buf` as its working
    /// memory: each task's window minimum is taken once into a table, and
    /// both level sweeps read that table along the stored order.
    pub fn cone_bound_within_in(
        &self,
        g: &TaskGraph,
        alloc: &Allocation,
        steps: usize,
        buf: &mut ConeBuffers,
    ) -> f64 {
        buf.time.clear();
        buf.time.extend(
            g.task_ids()
                .map(|t| self.window_min(&self.time, &self.min_time, t, alloc.np(t), steps)),
        );
        let time = &buf.time;
        g.levels_along(&self.order, |t| time[t.index()], |_| 0.0, &mut buf.levels);
        let cp = buf.levels.cp_length();
        let area: f64 = g
            .task_ids()
            .map(|t| self.window_min(&self.area, &self.min_area, t, alloc.np(t), steps))
            .sum::<f64>()
            / self.p as f64;
        cp.max(area)
    }
}

/// Working memory of [`WideningBounds::cone_bound_within_in`]: the
/// per-task window minima of `et` and the levels swept over them. Only
/// buffers, refilled by every call, so one set serves every bound of a
/// search.
#[derive(Debug, Default)]
pub struct ConeBuffers {
    time: Vec<f64>,
    levels: Levels,
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
    fn window_bound_tightens_with_fewer_remaining_steps() {
        // Linear speedup: et(p) = 12/p, so every extra step of widening
        // genuinely lowers the window minimum until it hits p.
        let mut g = TaskGraph::new();
        g.add_task("t", ExecutionProfile::linear(12.0));
        let wb = WideningBounds::new(&g, 4);
        let alloc = Allocation::ones(1);
        // Window [1, 1+d] of et: 12, 6, 4, 3 — but the area 12 is flat, so
        // the area term (12/4 = 3) takes over once CP drops below it.
        let at = |d: usize| wb.cone_bound_within(&g, &alloc, d);
        assert!((at(0) - 12.0).abs() < 1e-12);
        assert!((at(1) - 6.0).abs() < 1e-12);
        assert!((at(2) - 4.0).abs() < 1e-12);
        assert!((at(3) - 3.0).abs() < 1e-12);
        // Past p the window clamps: identical to the full cone.
        assert!((at(17) - wb.cone_bound(&g, &alloc)).abs() < 1e-12);
        // Zero steps degenerate to the single-allocation bound.
        assert!((at(0) - allocation_lower_bound(&g, &alloc, 4)).abs() < 1e-12);
    }

    #[test]
    fn window_bound_is_admissible_under_widening() {
        // Non-monotone profile: et dips at 2 procs then rises. The window
        // min over [np, np+d] must lower-bound et at every reachable width.
        let m = SpeedupModel::Table(
            locmps_speedup::ProfiledSpeedup::from_times(&[10.0, 4.0, 6.0, 6.0]).unwrap(),
        );
        let mut g = TaskGraph::new();
        let t = g.add_task("t", ExecutionProfile::new(10.0, m).unwrap());
        let wb = WideningBounds::new(&g, 4);
        let alloc = Allocation::ones(1);
        for d in 0..4 {
            let bound = wb.cone_bound_within(&g, &alloc, d);
            for np in 1..=(1 + d).min(4) {
                let mut reached = alloc.clone();
                reached.set(t, np);
                assert!(
                    bound <= allocation_lower_bound(&g, &reached, 4) + 1e-12,
                    "window d={d} bound {bound} above reachable np={np}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "widening bounds on invalid graph")]
    fn widening_bounds_reject_a_cyclic_graph() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(1.0));
        let b = g.add_task("b", ExecutionProfile::linear(1.0));
        g.add_edge(a, b, 0.0).unwrap();
        g.add_edge(b, a, 0.0).unwrap();
        WideningBounds::new(&g, 4);
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
