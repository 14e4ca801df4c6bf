//! The communication-cost model of §III.B–D.
//!
//! Two views of the same edge are needed at different times:
//!
//! * during *candidate selection* (Algorithm 1), only the allocation is
//!   known, so the paper estimates
//!   `wt(e) = d / (min(np(src), np(dst)) · bandwidth)` — the
//!   [`CommModel::edge_estimate`];
//! * during *placement* (Algorithm 2), the concrete processor sets are
//!   known, so the redistribution completion time uses the exact
//!   block-cyclic volume matrix and the single-port transfer bound — the
//!   [`CommModel::transfer_time`].
//!
//! Setting `comm_aware = false` zeroes both views: the scheduler then plans
//! as if redistribution were free, which is exactly the **iCASLB** baseline
//! (the authors' prior work that this paper extends); its schedules are
//! later *evaluated* under the true model by `locmps-sim`, reproducing the
//! degradation shown in Figure 5.

use locmps_platform::{aggregate_edge_cost, redistribution_time, Cluster, ProcSet};
use locmps_taskgraph::{EdgeId, TaskGraph};

use crate::allocation::Allocation;

/// Communication-cost oracle shared by the planner and the placer.
#[derive(Debug, Clone, Copy)]
pub struct CommModel<'a> {
    cluster: &'a Cluster,
    comm_aware: bool,
}

impl<'a> CommModel<'a> {
    /// The true model on the given cluster.
    pub fn new(cluster: &'a Cluster) -> Self {
        Self {
            cluster,
            comm_aware: true,
        }
    }

    /// The communication-blind model (iCASLB planning view).
    pub fn blind(cluster: &'a Cluster) -> Self {
        Self {
            cluster,
            comm_aware: false,
        }
    }

    /// Whether this model accounts for communication at all.
    pub fn is_comm_aware(&self) -> bool {
        self.comm_aware
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Cluster {
        self.cluster
    }

    /// Planning estimate of an edge's redistribution cost under an
    /// allocation (§III.B): `d / (min(np_i, np_j) · bw)`.
    pub fn edge_estimate(&self, g: &TaskGraph, alloc: &Allocation, e: EdgeId) -> f64 {
        if !self.comm_aware {
            return 0.0;
        }
        let edge = g.edge(e);
        aggregate_edge_cost(
            edge.volume,
            alloc.np(edge.src),
            alloc.np(edge.dst),
            self.cluster.bandwidth,
        )
    }

    /// Exact single-port transfer time of `volume` MB between the two
    /// concrete block-cyclic groups.
    pub fn transfer_time(&self, src: &ProcSet, dst: &ProcSet, volume: f64) -> f64 {
        if !self.comm_aware {
            return 0.0;
        }
        redistribution_time(src, dst, volume, self.cluster.bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmps_speedup::ExecutionProfile;
    use locmps_taskgraph::TaskGraph;

    fn edge_graph(volume: f64) -> (TaskGraph, EdgeId) {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(1.0));
        let b = g.add_task("b", ExecutionProfile::linear(1.0));
        let e = g.add_edge(a, b, volume).unwrap();
        (g, e)
    }

    #[test]
    fn estimate_follows_the_paper_formula() {
        let cluster = Cluster::new(8, 12.5);
        let model = CommModel::new(&cluster);
        let (g, e) = edge_graph(100.0);
        let alloc = Allocation::from_vec(vec![4, 2]);
        assert!((model.edge_estimate(&g, &alloc, e) - 100.0 / (2.0 * 12.5)).abs() < 1e-12);
    }

    #[test]
    fn blind_model_is_free() {
        let cluster = Cluster::new(8, 12.5);
        let model = CommModel::blind(&cluster);
        let (g, e) = edge_graph(100.0);
        let alloc = Allocation::ones(2);
        assert_eq!(model.edge_estimate(&g, &alloc, e), 0.0);
        let a: ProcSet = [0u32].into_iter().collect();
        let b: ProcSet = [1u32].into_iter().collect();
        assert_eq!(model.transfer_time(&a, &b, 100.0), 0.0);
        assert!(!model.is_comm_aware());
    }

    #[test]
    fn transfer_time_uses_exact_layout() {
        let cluster = Cluster::new(8, 10.0);
        let model = CommModel::new(&cluster);
        let a: ProcSet = [0u32].into_iter().collect();
        let same = model.transfer_time(&a, &a, 500.0);
        assert_eq!(same, 0.0, "same layout means no transfer");
        let b: ProcSet = [1u32].into_iter().collect();
        assert!((model.transfer_time(&a, &b, 500.0) - 50.0).abs() < 1e-9);
    }
}
