//! Top/bottom levels and critical paths under parametric weights (§II).
//!
//! The paper defines, for a weighting of vertices `w(v)` (execution time on
//! the current allocation) and edges `c(e)` (redistribution cost):
//!
//! * `topL(v)` — longest path length from any source to `v`, *excluding*
//!   `w(v)`;
//! * `bottomL(v)` — longest path length from `v` to any sink, *including*
//!   `w(v)`;
//! * the critical path `CP(G)` — any path attaining
//!   `max_v topL(v) + bottomL(v)`.
//!
//! Weights depend on the current processor allocation, which changes every
//! LoC-MPS iteration, so they are passed as closures rather than stored.
//! Callers that sweep one graph many times keep its topological order and
//! the level vectors themselves: [`TaskGraph::top_levels_along`],
//! [`TaskGraph::bottom_levels_along`], [`TaskGraph::levels_along`] and
//! [`TaskGraph::critical_path_along`] take the order and fill caller
//! buffers, and [`TaskGraph::levels`] and [`TaskGraph::critical_path`] are
//! those sweeps along a fresh [`TaskGraph::topo_order`]. Any topological
//! order gives the same levels bit for bit: each level is a maximum over
//! the same sums, and a maximum does not round.

use crate::graph::{EdgeId, TaskGraph, TaskId};

/// Top and bottom levels for every task, plus the implied critical-path
/// length.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Levels {
    /// `topL(v)` per task (indexed by `TaskId::index`).
    pub top: Vec<f64>,
    /// `bottomL(v)` per task.
    pub bottom: Vec<f64>,
}

impl Levels {
    /// The critical-path length `max_v topL(v) + bottomL(v)`.
    pub fn cp_length(&self) -> f64 {
        self.top
            .iter()
            .zip(&self.bottom)
            .map(|(t, b)| t + b)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Whether `t` lies on a critical path (within a relative tolerance).
    pub fn on_critical_path(&self, t: TaskId) -> bool {
        self.on_path_of_length(t, self.cp_length())
    }

    /// [`Levels::on_critical_path`] for a precomputed `cp_length`.
    fn on_path_of_length(&self, t: TaskId, cp: f64) -> bool {
        let eps = 1e-9 * cp.abs().max(1.0);
        (self.top[t.index()] + self.bottom[t.index()] - cp).abs() <= eps
    }
}

/// One concrete critical path: its tasks in order, the edges between them,
/// and its length.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CriticalPath {
    /// Tasks along the path, source side first.
    pub tasks: Vec<TaskId>,
    /// Edges connecting consecutive path tasks (`tasks.len() - 1` entries).
    pub edges: Vec<EdgeId>,
    /// Total path length (vertex weights + edge weights).
    pub length: f64,
}

impl CriticalPath {
    /// Sum of vertex weights along the path (`Tcomp` in Algorithm 1).
    pub fn computation_cost(&self, node_w: impl Fn(TaskId) -> f64) -> f64 {
        self.tasks.iter().map(|&t| node_w(t)).sum()
    }

    /// Sum of edge weights along the path (`Tcomm` in Algorithm 1).
    pub fn communication_cost(&self, edge_w: impl Fn(EdgeId) -> f64) -> f64 {
        self.edges.iter().map(|&e| edge_w(e)).sum()
    }
}

impl TaskGraph {
    /// Computes top and bottom levels under the given weights.
    ///
    /// `node_w` is `et(t, np(t))` in the scheduling context; `edge_w` is the
    /// redistribution cost of the edge under the current allocation (zero
    /// for pseudo-edges).
    ///
    /// # Panics
    /// Panics if the graph is cyclic or empty — callers validate first.
    pub fn levels(&self, node_w: impl Fn(TaskId) -> f64, edge_w: impl Fn(EdgeId) -> f64) -> Levels {
        let order = self.topo_order().expect("levels on invalid graph");
        let mut levels = Levels::default();
        self.levels_along(&order, node_w, edge_w, &mut levels);
        levels
    }

    /// [`TaskGraph::levels`] along `order`, a topological order of this
    /// graph (from [`TaskGraph::topo_order_into`]), into `out`'s vectors.
    pub fn levels_along(
        &self,
        order: &[TaskId],
        node_w: impl Fn(TaskId) -> f64,
        edge_w: impl Fn(EdgeId) -> f64,
        out: &mut Levels,
    ) {
        self.top_levels_along(order, &node_w, &edge_w, &mut out.top);
        self.bottom_levels_along(order, &node_w, &edge_w, &mut out.bottom);
    }

    /// The top levels alone, swept along `order` (a topological order of
    /// this graph) into `top`.
    pub fn top_levels_along(
        &self,
        order: &[TaskId],
        node_w: impl Fn(TaskId) -> f64,
        edge_w: impl Fn(EdgeId) -> f64,
        top: &mut Vec<f64>,
    ) {
        debug_assert_eq!(order.len(), self.n_tasks(), "a topological order");
        top.clear();
        top.resize(self.n_tasks(), 0.0);
        for &v in order {
            let tv = top[v.index()];
            let wv = node_w(v);
            for e in self.out_edges(v) {
                let edge = self.edge(e);
                let cand = tv + wv + edge_w(e);
                if cand > top[edge.dst.index()] {
                    top[edge.dst.index()] = cand;
                }
            }
        }
    }

    /// The bottom levels alone, swept backwards along `order` (a
    /// topological order of this graph) into `bottom`: the same values as
    /// [`Levels::bottom`], without the top sweep.
    pub fn bottom_levels_along(
        &self,
        order: &[TaskId],
        node_w: impl Fn(TaskId) -> f64,
        edge_w: impl Fn(EdgeId) -> f64,
        bottom: &mut Vec<f64>,
    ) {
        debug_assert_eq!(order.len(), self.n_tasks(), "a topological order");
        bottom.clear();
        bottom.resize(self.n_tasks(), 0.0);
        for &v in order.iter().rev() {
            let mut best = 0.0f64;
            for e in self.out_edges(v) {
                let edge = self.edge(e);
                let cand = edge_w(e) + bottom[edge.dst.index()];
                if cand > best {
                    best = cand;
                }
            }
            bottom[v.index()] = node_w(v) + best;
        }
    }

    /// Extracts one concrete critical path under the given weights.
    ///
    /// When several critical paths exist, ties are broken toward the
    /// lowest-id successor, making the result deterministic.
    ///
    /// # Panics
    /// Panics if the graph is cyclic or empty — callers validate first.
    pub fn critical_path(
        &self,
        node_w: impl Fn(TaskId) -> f64,
        edge_w: impl Fn(EdgeId) -> f64,
    ) -> CriticalPath {
        let order = self.topo_order().expect("levels on invalid graph");
        self.critical_path_along(&order, node_w, edge_w, &mut Levels::default())
    }

    /// [`TaskGraph::critical_path`] along `order`, a topological order of
    /// this graph, with `levels` as the buffer its level sweeps fill.
    pub fn critical_path_along(
        &self,
        order: &[TaskId],
        node_w: impl Fn(TaskId) -> f64,
        edge_w: impl Fn(EdgeId) -> f64,
        levels: &mut Levels,
    ) -> CriticalPath {
        let mut path = CriticalPath::default();
        self.critical_path_along_into(order, node_w, edge_w, levels, &mut path);
        path
    }

    /// [`TaskGraph::critical_path_along`] into `path`, whose vectors are
    /// cleared and refilled.
    pub fn critical_path_along_into(
        &self,
        order: &[TaskId],
        node_w: impl Fn(TaskId) -> f64,
        edge_w: impl Fn(EdgeId) -> f64,
        levels: &mut Levels,
        path: &mut CriticalPath,
    ) {
        self.levels_along(order, &node_w, &edge_w, levels);
        let cp = levels.cp_length();
        let eps = 1e-9 * cp.abs().max(1.0);

        // Start at a source on the CP (topL == 0 and topL + bottomL == cp).
        let mut cur = self
            .task_ids()
            .filter(|&t| levels.top[t.index()].abs() <= eps && levels.on_path_of_length(t, cp))
            .min()
            .expect("a critical path always starts at a source");

        let CriticalPath {
            tasks,
            edges,
            length,
        } = path;
        tasks.clear();
        tasks.push(cur);
        edges.clear();
        *length = cp;
        loop {
            let reach = levels.top[cur.index()] + node_w(cur);
            let mut next: Option<(EdgeId, TaskId)> = None;
            for e in self.out_edges(cur) {
                let dst = self.edge(e).dst;
                let along = reach + edge_w(e);
                // The successor continues the CP iff the path through this
                // edge realizes its top level and the successor is on a CP.
                if (levels.top[dst.index()] - along).abs() <= eps
                    && levels.on_path_of_length(dst, cp)
                    && next.is_none_or(|(_, t)| dst < t)
                {
                    next = Some((e, dst));
                }
            }
            match next {
                Some((e, t)) => {
                    edges.push(e);
                    tasks.push(t);
                    cur = t;
                }
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmps_speedup::ExecutionProfile;

    fn lin(t: f64) -> ExecutionProfile {
        ExecutionProfile::linear(t)
    }

    /// Chain a → b → c with unit node weights and given edge weights.
    fn chain(edge_ws: [f64; 2]) -> (TaskGraph, [TaskId; 3], Vec<f64>) {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", lin(1.0));
        let b = g.add_task("b", lin(2.0));
        let c = g.add_task("c", lin(3.0));
        g.add_edge(a, b, edge_ws[0]).unwrap();
        g.add_edge(b, c, edge_ws[1]).unwrap();
        (g, [a, b, c], vec![1.0, 2.0, 3.0])
    }

    #[test]
    fn chain_levels_match_hand_computation() {
        let (g, [a, b, c], w) = chain([10.0, 20.0]);
        let lv = g.levels(|t| w[t.index()], |e| g.edge(e).volume);
        assert_eq!(lv.top[a.index()], 0.0);
        assert_eq!(lv.top[b.index()], 1.0 + 10.0);
        assert_eq!(lv.top[c.index()], 1.0 + 10.0 + 2.0 + 20.0);
        assert_eq!(lv.bottom[c.index()], 3.0);
        assert_eq!(lv.bottom[b.index()], 2.0 + 20.0 + 3.0);
        assert_eq!(lv.bottom[a.index()], 1.0 + 10.0 + 25.0);
        assert_eq!(lv.cp_length(), 36.0);
        for t in g.task_ids() {
            assert!(lv.on_critical_path(t), "whole chain is critical");
        }
    }

    #[test]
    fn diamond_critical_path_picks_heavier_branch() {
        // Fig 1(a) shape: T1 -> {T2, T3} -> T4; T2 heavier than T3.
        let mut g = TaskGraph::new();
        let t1 = g.add_task("T1", lin(10.0));
        let t2 = g.add_task("T2", lin(7.0));
        let t3 = g.add_task("T3", lin(5.0));
        let t4 = g.add_task("T4", lin(8.0));
        g.add_edge(t1, t2, 0.0).unwrap();
        g.add_edge(t1, t3, 0.0).unwrap();
        g.add_edge(t2, t4, 0.0).unwrap();
        g.add_edge(t3, t4, 0.0).unwrap();
        let cp = g.critical_path(|t| g.task(t).profile.time(1), |_| 0.0);
        assert_eq!(cp.tasks, vec![t1, t2, t4]);
        assert_eq!(cp.length, 25.0);
        assert_eq!(cp.computation_cost(|t| g.task(t).profile.time(1)), 25.0);
        assert_eq!(cp.communication_cost(|_| 0.0), 0.0);
    }

    #[test]
    fn edge_weights_can_shift_the_critical_path() {
        let mut g = TaskGraph::new();
        let t1 = g.add_task("T1", lin(10.0));
        let t2 = g.add_task("T2", lin(7.0));
        let t3 = g.add_task("T3", lin(5.0));
        let t4 = g.add_task("T4", lin(8.0));
        g.add_edge(t1, t2, 0.0).unwrap();
        let heavy = g.add_edge(t1, t3, 100.0).unwrap();
        g.add_edge(t2, t4, 0.0).unwrap();
        let heavy2 = g.add_edge(t3, t4, 0.0).unwrap();
        let cp = g.critical_path(|t| g.task(t).profile.time(1), |e| g.edge(e).volume);
        assert_eq!(cp.tasks, vec![t1, t3, t4]);
        assert_eq!(cp.edges, vec![heavy, heavy2]);
        assert_eq!(cp.length, 123.0);
        assert_eq!(cp.communication_cost(|e| g.edge(e).volume), 100.0);
    }

    #[test]
    fn independent_tasks_cp_is_heaviest_task() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", lin(4.0));
        let b = g.add_task("b", lin(9.0));
        let _ = a;
        let cp = g.critical_path(|t| g.task(t).profile.time(1), |_| 0.0);
        assert_eq!(cp.tasks, vec![b]);
        assert!(cp.edges.is_empty());
        assert_eq!(cp.length, 9.0);
    }

    #[test]
    fn multi_source_multi_sink_critical_path() {
        // Two independent chains of different lengths plus a shared sink:
        // the CP must start at the heavier chain's source.
        let mut g = TaskGraph::new();
        let a1 = g.add_task("a1", lin(2.0));
        let a2 = g.add_task("a2", lin(3.0));
        let b1 = g.add_task("b1", lin(9.0));
        let sink = g.add_task("s", lin(1.0));
        g.add_edge(a1, a2, 0.0).unwrap();
        g.add_edge(a2, sink, 0.0).unwrap();
        g.add_edge(b1, sink, 0.0).unwrap();
        let cp = g.critical_path(|t| g.task(t).profile.time(1), |_| 0.0);
        assert_eq!(cp.tasks, vec![b1, sink]);
        assert_eq!(cp.length, 10.0);
        // Levels agree on sources: both have topL == 0.
        let lv = g.levels(|t| g.task(t).profile.time(1), |_| 0.0);
        assert_eq!(lv.top[a1.index()], 0.0);
        assert_eq!(lv.top[b1.index()], 0.0);
        assert!(!lv.on_critical_path(a1));
        assert!(lv.on_critical_path(b1));
    }

    #[test]
    fn pseudo_edges_extend_the_critical_path() {
        // Figure 1(c): serializing T2 and T3 via a pseudo-edge makes the
        // schedule's critical path run through both.
        let mut g = TaskGraph::new();
        let t1 = g.add_task("T1", lin(10.0));
        let t2 = g.add_task("T2", lin(7.0));
        let t3 = g.add_task("T3", lin(5.0));
        let t4 = g.add_task("T4", lin(8.0));
        g.add_edge(t1, t2, 0.0).unwrap();
        g.add_edge(t1, t3, 0.0).unwrap();
        g.add_edge(t2, t4, 0.0).unwrap();
        g.add_edge(t3, t4, 0.0).unwrap();
        let w = |t: TaskId| g.task(t).profile.time(1);
        assert_eq!(g.critical_path(w, |_| 0.0).length, 25.0);
        let mut gp = g.clone();
        gp.add_pseudo_edge(t2, t3).unwrap();
        let cp = gp.critical_path(|t| gp.task(t).profile.time(1), |_| 0.0);
        assert_eq!(cp.length, 30.0, "paper reports makespan 30 for G'");
        assert_eq!(cp.tasks, vec![t1, t2, t3, t4]);
    }
}
