//! Core graph data structure: tasks, edges, adjacency, topological order.

use locmps_speedup::ExecutionProfile;
use serde::{Deserialize, Serialize};

/// Index of a task (vertex) within its [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The task's position in the graph's task vector.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Index of an edge within its [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The edge's position in the graph's edge vector.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Whether an edge is part of the application or induced by the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EdgeKind {
    /// An application data dependence carrying `volume` units of data.
    Data,
    /// A zero-volume dependence added by the scheduler to record
    /// serialization forced by resource limitations (§III.A, Fig. 1(c)).
    Pseudo,
}

/// A parallel task: a name plus its moldable execution-time profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// Human-readable label (used in DOT output and reports).
    pub name: String,
    /// Execution time as a function of the processor allocation.
    pub profile: ExecutionProfile,
}

/// A precedence/data-dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// The producing task.
    pub src: TaskId,
    /// The consuming task.
    pub dst: TaskId,
    /// Data volume to redistribute (MB); zero for pure precedence and for
    /// pseudo-edges.
    pub volume: f64,
    /// Application edge or scheduler-induced pseudo-edge.
    pub kind: EdgeKind,
}

/// Errors from graph construction and queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a task id not present in the graph.
    UnknownTask(TaskId),
    /// Self-loops are not allowed in a DAG.
    SelfLoop(TaskId),
    /// A second data edge between the same ordered pair was added.
    DuplicateEdge(TaskId, TaskId),
    /// The edge volume was negative or not finite.
    InvalidVolume,
    /// The graph contains a directed cycle.
    Cycle,
    /// The graph has no tasks.
    Empty,
    /// A task's execution profile failed re-validation (serde bypasses the
    /// checked constructors, so specs loaded from external files can carry
    /// out-of-domain model parameters).
    InvalidProfile {
        /// The task whose profile is invalid.
        task: TaskId,
        /// The underlying model error, rendered as text.
        reason: String,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::UnknownTask(t) => write!(f, "unknown task {t}"),
            GraphError::SelfLoop(t) => write!(f, "self-loop on task {t}"),
            GraphError::DuplicateEdge(s, d) => write!(f, "duplicate edge {s} -> {d}"),
            GraphError::InvalidVolume => write!(f, "edge volume must be finite and >= 0"),
            GraphError::Cycle => write!(f, "graph contains a cycle"),
            GraphError::Empty => write!(f, "graph has no tasks"),
            GraphError::InvalidProfile { task, reason } => {
                write!(f, "invalid profile on task {task}: {reason}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A weighted DAG of moldable parallel tasks — the paper's macro data-flow
/// graph `G = (V, E)` (§II), optionally extended with pseudo-edges into the
/// schedule-DAG `G'`.
///
/// Tasks and edges are stored in insertion order and addressed by dense
/// integer ids, so `Vec`-indexed side tables (allocations, levels, start
/// times) can be used everywhere instead of hash maps.
///
/// # Examples
/// ```
/// use locmps_speedup::ExecutionProfile;
/// use locmps_taskgraph::TaskGraph;
///
/// let mut g = TaskGraph::new();
/// let a = g.add_task("produce", ExecutionProfile::linear(10.0));
/// let b = g.add_task("consume", ExecutionProfile::linear(5.0));
/// g.add_edge(a, b, 120.0).unwrap(); // 120 MB of intermediate data
/// assert_eq!(g.topo_order().unwrap(), vec![a, b]);
/// let cp = g.critical_path(|t| g.task(t).profile.time(1), |_| 0.0);
/// assert_eq!(cp.length, 15.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskGraph {
    tasks: Vec<Task>,
    edges: Vec<Edge>,
    succ: Vec<Vec<EdgeId>>,
    pred: Vec<Vec<EdgeId>>,
}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with capacity for `tasks` vertices.
    pub fn with_capacity(tasks: usize) -> Self {
        Self {
            tasks: Vec::with_capacity(tasks),
            edges: Vec::new(),
            succ: Vec::with_capacity(tasks),
            pred: Vec::with_capacity(tasks),
        }
    }

    /// Adds a task and returns its id.
    pub fn add_task(&mut self, name: impl Into<String>, profile: ExecutionProfile) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(Task {
            name: name.into(),
            profile,
        });
        self.succ.push(Vec::new());
        self.pred.push(Vec::new());
        id
    }

    /// Adds a data edge `src → dst` carrying `volume` MB.
    ///
    /// # Errors
    /// Rejects unknown endpoints, self-loops, duplicate data edges and
    /// invalid volumes. Cycle detection is deferred to
    /// [`TaskGraph::topo_order`] (an `O(V+E)` check unsuitable per-edge).
    pub fn add_edge(
        &mut self,
        src: TaskId,
        dst: TaskId,
        volume: f64,
    ) -> Result<EdgeId, GraphError> {
        self.add_edge_inner(src, dst, volume, EdgeKind::Data)
    }

    /// Adds a zero-volume pseudo-edge recording a schedule-induced
    /// dependence. Idempotent: if *any* edge `src → dst` already exists the
    /// existing id is returned and the graph is unchanged.
    pub fn add_pseudo_edge(&mut self, src: TaskId, dst: TaskId) -> Result<EdgeId, GraphError> {
        if let Some(eid) = self.find_edge(src, dst) {
            return Ok(eid);
        }
        self.add_edge_inner(src, dst, 0.0, EdgeKind::Pseudo)
    }

    fn add_edge_inner(
        &mut self,
        src: TaskId,
        dst: TaskId,
        volume: f64,
        kind: EdgeKind,
    ) -> Result<EdgeId, GraphError> {
        if src.index() >= self.tasks.len() {
            return Err(GraphError::UnknownTask(src));
        }
        if dst.index() >= self.tasks.len() {
            return Err(GraphError::UnknownTask(dst));
        }
        if src == dst {
            return Err(GraphError::SelfLoop(src));
        }
        if !volume.is_finite() || volume < 0.0 {
            return Err(GraphError::InvalidVolume);
        }
        if kind == EdgeKind::Data && self.find_edge(src, dst).is_some() {
            return Err(GraphError::DuplicateEdge(src, dst));
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge {
            src,
            dst,
            volume,
            kind,
        });
        self.succ[src.index()].push(id);
        self.pred[dst.index()].push(id);
        Ok(id)
    }

    /// Looks up an edge by its endpoints.
    pub fn find_edge(&self, src: TaskId, dst: TaskId) -> Option<EdgeId> {
        self.succ[src.index()]
            .iter()
            .copied()
            .find(|&e| self.edges[e.index()].dst == dst)
    }

    /// Number of tasks `|V|`.
    pub fn n_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of edges `|E|` (data + pseudo).
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// The task with id `t`.
    pub fn task(&self, t: TaskId) -> &Task {
        &self.tasks[t.index()]
    }

    /// The edge with id `e`.
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.index()]
    }

    /// Iterator over all task ids in insertion order.
    pub fn task_ids(&self) -> impl ExactSizeIterator<Item = TaskId> + '_ {
        (0..self.tasks.len() as u32).map(TaskId)
    }

    /// Iterator over all edge ids in insertion order.
    pub fn edge_ids(&self) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Iterator over all tasks.
    pub fn tasks(&self) -> impl ExactSizeIterator<Item = (TaskId, &Task)> + '_ {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (TaskId(i as u32), t))
    }

    /// Iterator over all edges.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// Outgoing edges of `t`.
    pub fn out_edges(&self, t: TaskId) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        self.succ[t.index()].iter().copied()
    }

    /// Incoming edges of `t`.
    pub fn in_edges(&self, t: TaskId) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        self.pred[t.index()].iter().copied()
    }

    /// Successor tasks of `t`.
    pub fn successors(&self, t: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.out_edges(t).map(move |e| self.edges[e.index()].dst)
    }

    /// Predecessor tasks of `t`.
    pub fn predecessors(&self, t: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.in_edges(t).map(move |e| self.edges[e.index()].src)
    }

    /// In-degree of `t`.
    pub fn in_degree(&self, t: TaskId) -> usize {
        self.pred[t.index()].len()
    }

    /// Out-degree of `t`.
    pub fn out_degree(&self, t: TaskId) -> usize {
        self.succ[t.index()].len()
    }

    /// Tasks with no predecessors.
    pub fn sources(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|&t| self.in_degree(t) == 0)
            .collect()
    }

    /// Tasks with no successors.
    pub fn sinks(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|&t| self.out_degree(t) == 0)
            .collect()
    }

    /// A topological order of the tasks (Kahn's algorithm).
    ///
    /// # Errors
    /// [`GraphError::Cycle`] if the graph is not a DAG,
    /// [`GraphError::Empty`] if it has no tasks.
    pub fn topo_order(&self) -> Result<Vec<TaskId>, GraphError> {
        let mut order = Vec::with_capacity(self.n_tasks());
        self.topo_order_into(&mut order, &mut Vec::new())?;
        Ok(order)
    }

    /// [`TaskGraph::topo_order`] into caller buffers: `order` receives the
    /// order and `in_deg` is the sort's working memory (all zeros after a
    /// successful sort). Both are cleared first, so buffers kept across
    /// calls sort any graph without allocating once they have grown to its
    /// size. The order is the one [`TaskGraph::topo_order`] returns: Kahn's
    /// FIFO queue, seeded with the sources in id order.
    ///
    /// # Errors
    /// Those of [`TaskGraph::topo_order`]; `order` then holds a partial
    /// order.
    pub fn topo_order_into(
        &self,
        order: &mut Vec<TaskId>,
        in_deg: &mut Vec<usize>,
    ) -> Result<(), GraphError> {
        if self.tasks.is_empty() {
            return Err(GraphError::Empty);
        }
        in_deg.clear();
        in_deg.extend(self.pred.iter().map(Vec::len));
        // The order doubles as the FIFO queue: `head` is the next task
        // whose out-edges are released.
        order.clear();
        order.extend(self.task_ids().filter(|t| in_deg[t.index()] == 0));
        let mut head = 0;
        while let Some(&t) = order.get(head) {
            head += 1;
            for &e in &self.succ[t.index()] {
                let d = self.edges[e.index()].dst;
                in_deg[d.index()] -= 1;
                if in_deg[d.index()] == 0 {
                    order.push(d);
                }
            }
        }
        if order.len() != self.n_tasks() {
            return Err(GraphError::Cycle);
        }
        Ok(())
    }

    /// Whether the graph is a non-empty DAG.
    pub fn validate(&self) -> Result<(), GraphError> {
        self.topo_order().map(|_| ())
    }

    /// A copy of the graph without its pseudo-edges (back from `G'` to `G`).
    pub fn without_pseudo_edges(&self) -> TaskGraph {
        let mut g = TaskGraph::with_capacity(self.n_tasks());
        for (_, t) in self.tasks() {
            g.add_task(t.name.clone(), t.profile.clone());
        }
        for (_, e) in self.edges() {
            if e.kind == EdgeKind::Data {
                g.add_edge(e.src, e.dst, e.volume)
                    .expect("source graph was valid");
            }
        }
        g
    }

    /// Removes every pseudo-edge in place (back from `G'` to `G` without
    /// reallocating tasks), so one schedule-DAG buffer can be reused across
    /// repeated scheduler runs instead of cloning the graph each time.
    ///
    /// Data-edge ids are preserved when the pseudo-edges were appended
    /// after all data edges (always true for schedule-DAGs built by LoCBS);
    /// with interleaved insertion the surviving data edges are renumbered
    /// compactly in their original order.
    pub fn clear_pseudo_edges(&mut self) {
        if !self.edges.iter().any(|e| e.kind == EdgeKind::Pseudo) {
            return;
        }
        self.edges.retain(|e| e.kind == EdgeKind::Data);
        for v in &mut self.succ {
            v.clear();
        }
        for v in &mut self.pred {
            v.clear();
        }
        for (i, e) in self.edges.iter().enumerate() {
            let id = EdgeId(i as u32);
            self.succ[e.src.index()].push(id);
            self.pred[e.dst.index()].push(id);
        }
    }

    /// Sum of data volumes entering `t` (MB).
    pub fn input_volume(&self, t: TaskId) -> f64 {
        self.in_edges(t).map(|e| self.edge(e).volume).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmps_speedup::ExecutionProfile;

    fn lin(t: f64) -> ExecutionProfile {
        ExecutionProfile::linear(t)
    }

    /// The diamond from Figure 1(a) of the paper.
    fn diamond() -> (TaskGraph, [TaskId; 4]) {
        let mut g = TaskGraph::new();
        let t1 = g.add_task("T1", lin(10.0));
        let t2 = g.add_task("T2", lin(7.0));
        let t3 = g.add_task("T3", lin(5.0));
        let t4 = g.add_task("T4", lin(8.0));
        g.add_edge(t1, t2, 1.0).unwrap();
        g.add_edge(t1, t3, 1.0).unwrap();
        g.add_edge(t2, t4, 1.0).unwrap();
        g.add_edge(t3, t4, 1.0).unwrap();
        (g, [t1, t2, t3, t4])
    }

    #[test]
    fn build_and_query() {
        let (g, [t1, t2, t3, t4]) = diamond();
        assert_eq!(g.n_tasks(), 4);
        assert_eq!(g.n_edges(), 4);
        assert_eq!(g.sources(), vec![t1]);
        assert_eq!(g.sinks(), vec![t4]);
        assert_eq!(g.out_degree(t1), 2);
        assert_eq!(g.in_degree(t4), 2);
        let succs: Vec<_> = g.successors(t1).collect();
        assert_eq!(succs, vec![t2, t3]);
        let preds: Vec<_> = g.predecessors(t4).collect();
        assert_eq!(preds, vec![t2, t3]);
        assert_eq!(g.task(t2).name, "T2");
    }

    #[test]
    fn topo_order_respects_edges() {
        let (g, _) = diamond();
        let order = g.topo_order().unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; g.n_tasks()];
            for (i, t) in order.iter().enumerate() {
                p[t.index()] = i;
            }
            p
        };
        for (_, e) in g.edges() {
            assert!(pos[e.src.index()] < pos[e.dst.index()]);
        }
    }

    #[test]
    fn detects_cycles() {
        let (mut g, [t1, _, _, t4]) = diamond();
        g.add_edge(t4, t1, 0.0).unwrap();
        assert_eq!(g.topo_order().unwrap_err(), GraphError::Cycle);
        assert!(g.validate().is_err());
    }

    #[test]
    fn rejects_bad_edges() {
        let (mut g, [t1, t2, ..]) = diamond();
        assert_eq!(
            g.add_edge(t1, t1, 0.0).unwrap_err(),
            GraphError::SelfLoop(t1)
        );
        assert_eq!(
            g.add_edge(t1, t2, 0.0).unwrap_err(),
            GraphError::DuplicateEdge(t1, t2)
        );
        assert_eq!(
            g.add_edge(t1, TaskId(99), 0.0).unwrap_err(),
            GraphError::UnknownTask(TaskId(99))
        );
        assert_eq!(
            g.add_edge(t1, t2, -1.0).unwrap_err(),
            GraphError::InvalidVolume
        );
        assert_eq!(
            g.add_edge(t1, t2, f64::NAN).unwrap_err(),
            GraphError::InvalidVolume
        );
    }

    #[test]
    fn pseudo_edges_are_idempotent_and_zero_volume() {
        let (mut g, [_, t2, t3, _]) = diamond();
        let e = g.add_pseudo_edge(t2, t3).unwrap();
        assert_eq!(g.edge(e).kind, EdgeKind::Pseudo);
        assert_eq!(g.edge(e).volume, 0.0);
        let e2 = g.add_pseudo_edge(t2, t3).unwrap();
        assert_eq!(e, e2);
        assert_eq!(g.n_edges(), 5);
        // Pseudo edge over an existing data edge is a no-op returning it.
        let (mut g, [t1, t2, ..]) = diamond();
        let existing = g.find_edge(t1, t2).unwrap();
        assert_eq!(g.add_pseudo_edge(t1, t2).unwrap(), existing);
    }

    #[test]
    fn without_pseudo_edges_restores_g() {
        let (mut g, [_, t2, t3, _]) = diamond();
        let original = g.clone();
        g.add_pseudo_edge(t2, t3).unwrap();
        assert_ne!(g, original);
        assert_eq!(g.without_pseudo_edges(), original);
    }

    #[test]
    fn clear_pseudo_edges_restores_g_in_place() {
        let (mut g, [t1, t2, t3, t4]) = diamond();
        let original = g.clone();
        g.add_pseudo_edge(t2, t3).unwrap();
        g.add_pseudo_edge(t1, t4).unwrap();
        assert_ne!(g, original);
        g.clear_pseudo_edges();
        assert_eq!(
            g, original,
            "stripping in place must equal the pre-pseudo graph"
        );
        g.clear_pseudo_edges(); // idempotent on a pseudo-free graph
        assert_eq!(g, original);
        // Data-edge ids survive a strip/re-add cycle.
        let e = g.find_edge(t1, t2).unwrap();
        g.add_pseudo_edge(t2, t3).unwrap();
        g.clear_pseudo_edges();
        assert_eq!(g.find_edge(t1, t2), Some(e));
    }

    #[test]
    fn empty_graph_topo_errors() {
        let g = TaskGraph::new();
        assert_eq!(g.topo_order().unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn input_volume_sums_in_edges() {
        let (g, [_, _, _, t4]) = diamond();
        assert!((g.input_volume(t4) - 2.0).abs() < 1e-12);
    }
}
