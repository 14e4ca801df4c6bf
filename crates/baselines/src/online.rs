//! **PS-ONLINE** — the Perotin–Sun online moldable allocator
//! (Perotin & Sun, arXiv 2304.14127; see PAPERS.md).
//!
//! An *online* algorithm for moldable task graphs: nothing about a task is
//! inspected before it becomes ready, and allotment decisions are never
//! revised. Their deterministic scheme has two ingredients:
//!
//! 1. **Capped local molding** — a ready task is allotted
//!    `p(t) = Pbest(⌈μ·P⌉)` processors: the width minimizing its own
//!    execution time, but capped at a fixed fraction `μ = 1/2` of the
//!    machine (`CAP_FRACTION`). The cap is what buys the competitive
//!    ratio: it bounds how much area a single greedy decision can burn,
//!    trading a constant-factor time loss for machine-wide packing slack.
//! 2. **Greedy earliest-start list scheduling** — among ready tasks the
//!    one whose data is available first starts next, on the `p(t)`
//!    earliest-available processors (no locality, no backfilling): the
//!    [`PlainListScheduler`] placement loop under
//!    [`ReadyRule::DataArrival`] instead of the offline baselines' bottom
//!    level, which an online scheduler cannot know.
//!
//! Perotin & Sun prove constant competitive ratios against the zero-
//! communication lower bound `max(CP, W/P)` under the common speedup
//! models: ~2.62 for roofline profiles and ~4.74 under Amdahl's law.
//! `tests/online_ratio.rs` checks those ratios empirically over the
//! workload zoo. In the registry the baseline is `psonline`; it is *not*
//! locality aware.

use locmps_core::{Allocation, SchedError, Scheduler, SchedulerOutput, SearchCounters};
use locmps_platform::Cluster;
use locmps_taskgraph::TaskGraph;

use crate::listsched::{PlainListScheduler, ReadyRule};

/// The allotment cap as a fraction of the machine: Perotin & Sun's
/// deterministic variant uses `μ = 1/2`.
const CAP_FRACTION: f64 = 0.5;

/// The Perotin–Sun online moldable scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineMoldable;

impl OnlineMoldable {
    /// The per-task allotment cap `⌈μ·P⌉` on a `p`-processor machine.
    pub fn cap(&self, p: usize) -> usize {
        ((CAP_FRACTION * p as f64).ceil() as usize).clamp(1, p)
    }
}

impl Scheduler for OnlineMoldable {
    fn name(&self) -> &'static str {
        "PS-ONLINE"
    }

    fn schedule(&self, g: &TaskGraph, cluster: &Cluster) -> Result<SchedulerOutput, SchedError> {
        g.validate().map_err(SchedError::Graph)?;
        let cap = self.cap(cluster.n_procs);
        // Each task is molded in isolation the moment it is considered:
        // no critical-path information, no global area balancing.
        let alloc =
            Allocation::from_vec(g.task_ids().map(|t| g.task(t).profile.pbest(cap)).collect());
        let res = PlainListScheduler.run(g, &alloc, cluster, ReadyRule::DataArrival)?;
        Ok(SchedulerOutput {
            schedule: res.schedule,
            allocation: alloc,
            schedule_dag: None,
            counters: SearchCounters::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmps_speedup::ExecutionProfile;

    #[test]
    fn cap_never_exceeds_half_machine_by_default() {
        let ps = OnlineMoldable;
        assert_eq!(ps.cap(16), 8);
        assert_eq!(ps.cap(7), 4);
        assert_eq!(ps.cap(1), 1);
        let mut g = TaskGraph::new();
        for i in 0..4 {
            g.add_task(format!("t{i}"), ExecutionProfile::linear(10.0));
        }
        let cluster = Cluster::new(16, 12.5);
        let out = ps.schedule(&g, &cluster).unwrap();
        for t in g.task_ids() {
            assert!(out.allocation.np(t) <= 8, "allotment capped at μP");
        }
        // 4 linear tasks at 8 procs each: two waves of two.
        assert!((out.schedule.makespan() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn serves_ready_tasks_in_data_arrival_order() {
        // Diamond: a -> {b, c} -> d with b's edge lighter than c's. With
        // one processor the online order must be a, b, c, d (b's data
        // lands first), not bottom-level order.
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(4.0));
        let b = g.add_task("b", ExecutionProfile::linear(1.0));
        let c = g.add_task("c", ExecutionProfile::linear(30.0));
        let d = g.add_task("d", ExecutionProfile::linear(1.0));
        g.add_edge(a, b, 0.0).unwrap();
        g.add_edge(a, c, 125.0).unwrap();
        g.add_edge(b, d, 0.0).unwrap();
        g.add_edge(c, d, 0.0).unwrap();
        let cluster = Cluster::new(1, 12.5);
        let out = OnlineMoldable.schedule(&g, &cluster).unwrap();
        let entry = |t| {
            out.schedule
                .entries()
                .iter()
                .find(|e| e.task == t)
                .unwrap()
                .start
        };
        assert!(entry(b) < entry(c), "b's inputs arrive first");
        assert!(out.schedule.makespan() > 0.0);
    }

    #[test]
    fn name_and_determinism() {
        let ps = OnlineMoldable;
        assert_eq!(ps.name(), "PS-ONLINE");
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(10.0));
        let b = g.add_task("b", ExecutionProfile::linear(5.0));
        g.add_edge(a, b, 50.0).unwrap();
        let cluster = Cluster::new(4, 12.5);
        let m1 = ps.schedule(&g, &cluster).unwrap().schedule.makespan();
        let m2 = ps.schedule(&g, &cluster).unwrap().schedule.makespan();
        assert_eq!(m1, m2);
    }
}
