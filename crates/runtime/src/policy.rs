//! Online dispatch policies.

use locmps_core::{LocMps, LocMpsConfig, Scheduler, SchedulerOutput};
use locmps_platform::{Cluster, ProcSet};
use locmps_taskgraph::{Levels, TaskGraph, TaskId};

/// A run-time scheduling policy: decides, whenever the cluster state
/// changes, which ready tasks to launch and on which free processors.
pub trait OnlinePolicy {
    /// Display name for reports.
    fn name(&self) -> &'static str;

    /// One-time setup before execution starts (compute plans/priorities).
    fn prepare(&mut self, g: &TaskGraph, cluster: &Cluster);

    /// Offered the `ready` tasks and currently `free` processors; returns
    /// the launches to perform *now*. Launched sets must be disjoint
    /// subsets of `free`.
    fn dispatch(
        &mut self,
        now: f64,
        ready: &[TaskId],
        free: &ProcSet,
        g: &TaskGraph,
        cluster: &Cluster,
    ) -> Vec<(TaskId, ProcSet)>;
}

/// Builds a dispatch policy from its front-end name: `plan`
/// ([`PlanFollower::locmps`]), `online` ([`OnlineLocbs`]) or `greedy`
/// ([`GreedyOneProc`]). Returns `None` for unknown names.
pub fn policy_by_name(name: &str) -> Option<Box<dyn OnlinePolicy>> {
    Some(match name {
        "plan" => Box::new(PlanFollower::locmps()),
        "online" => Box::new(OnlineLocbs::default()),
        "greedy" => Box::new(GreedyOneProc),
        _ => return None,
    })
}

/// Follows a static offline plan: fixed allocation and mapping, adaptive
/// timing — the conventional way to deploy an offline schedule.
pub struct PlanFollower {
    scheduler: LocMps,
    plan: Option<SchedulerOutput>,
}

impl PlanFollower {
    /// Plans with the given LoC-MPS configuration.
    pub fn new(config: LocMpsConfig) -> Self {
        Self {
            scheduler: LocMps::new(config),
            plan: None,
        }
    }

    /// Plans with the default LoC-MPS.
    pub fn locmps() -> Self {
        Self::new(LocMpsConfig::default())
    }
}

impl OnlinePolicy for PlanFollower {
    fn name(&self) -> &'static str {
        "plan-follower"
    }

    fn prepare(&mut self, g: &TaskGraph, cluster: &Cluster) {
        self.plan = Some(
            self.scheduler
                .schedule(g, cluster)
                .expect("planning failed on a valid graph"),
        );
    }

    fn dispatch(
        &mut self,
        _now: f64,
        ready: &[TaskId],
        free: &ProcSet,
        _g: &TaskGraph,
        _cluster: &Cluster,
    ) -> Vec<(TaskId, ProcSet)> {
        let plan = self.plan.as_ref().expect("prepare ran");
        let mut remaining = free.clone();
        let mut launches = Vec::new();
        // Earliest planned start first, so the plan's intent is preserved.
        let mut order: Vec<TaskId> = ready.to_vec();
        order.sort_by(|&a, &b| {
            let sa = plan.schedule.get(a).expect("planned").start;
            let sb = plan.schedule.get(b).expect("planned").start;
            sa.total_cmp(&sb).then(a.cmp(&b))
        });
        for t in order {
            let procs = &plan.schedule.get(t).expect("planned").procs;
            if procs.is_subset(&remaining) {
                remaining = remaining.difference(procs);
                launches.push((t, procs.clone()));
            }
        }
        launches
    }
}

/// Greedy run-time moulding with LoCBS's placement rule: each ready task
/// gets a share of the free processors proportional to its sequential
/// work (bounded by its `Pbest`), placed on the locality-maximal free
/// subset, highest bottom level first.
#[derive(Default)]
pub struct OnlineLocbs {
    levels: Option<Levels>,
}

impl OnlinePolicy for OnlineLocbs {
    fn name(&self) -> &'static str {
        "online-locbs"
    }

    fn prepare(&mut self, g: &TaskGraph, _cluster: &Cluster) {
        // Static priorities on sequential times (allocation is unknown
        // until dispatch).
        self.levels = Some(g.levels(|t| g.task(t).profile.time(1), |_| 0.0));
    }

    fn dispatch(
        &mut self,
        _now: f64,
        ready: &[TaskId],
        free: &ProcSet,
        g: &TaskGraph,
        cluster: &Cluster,
    ) -> Vec<(TaskId, ProcSet)> {
        let levels = self.levels.as_ref().expect("prepare ran");
        let mut order: Vec<TaskId> = ready.to_vec();
        order.sort_by(|&a, &b| {
            levels.bottom[b.index()]
                .total_cmp(&levels.bottom[a.index()])
                .then(a.cmp(&b))
        });
        let mut remaining = free.clone();
        let mut launches = Vec::new();
        let mut work_left: f64 = order.iter().map(|&t| g.task(t).profile.seq_time()).sum();
        for t in order {
            if remaining.is_empty() {
                break;
            }
            // Work-proportional share: a 50 s contraction next to nine 0.1 s
            // accumulations deserves nearly the whole machine, not 1/10th.
            let w = g.task(t).profile.seq_time();
            let share = if work_left > 0.0 {
                (remaining.len() as f64 * w / work_left).round() as usize
            } else {
                1
            };
            work_left -= w;
            let np = share
                .max(1)
                .min(g.task(t).profile.pbest(cluster.n_procs))
                .min(remaining.len());
            // Parent placements are not tracked here, so take the lowest
            // free ids: deterministic and densely packed.
            let procs: ProcSet = remaining.iter().take(np).collect();
            remaining = remaining.difference(&procs);
            launches.push((t, procs));
        }
        launches
    }
}

/// FCFS, one processor per task — the natural strawman.
#[derive(Default)]
pub struct GreedyOneProc;

impl OnlinePolicy for GreedyOneProc {
    fn name(&self) -> &'static str {
        "greedy-1p"
    }

    fn prepare(&mut self, _g: &TaskGraph, _cluster: &Cluster) {}

    fn dispatch(
        &mut self,
        _now: f64,
        ready: &[TaskId],
        free: &ProcSet,
        _g: &TaskGraph,
        _cluster: &Cluster,
    ) -> Vec<(TaskId, ProcSet)> {
        let mut remaining = free.clone();
        let mut launches = Vec::new();
        for &t in ready {
            let Some(p) = remaining.first() else { break };
            remaining.remove(p);
            launches.push((t, ProcSet::single(p)));
        }
        launches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{OnlineConfig, RuntimeEngine};
    use locmps_speedup::ExecutionProfile;

    fn independent(n: usize) -> TaskGraph {
        let mut g = TaskGraph::new();
        for i in 0..n {
            g.add_task(format!("t{i}"), ExecutionProfile::linear(10.0));
        }
        g
    }

    #[test]
    fn online_locbs_moulds_to_free_processors() {
        // One ready task, 8 free processors, linear speedup: it should get
        // them all and finish in 10/8.
        let g = independent(1);
        let cluster = Cluster::new(8, 12.5);
        let trace = RuntimeEngine::new(&g, &cluster, OnlineConfig::default())
            .run(&mut OnlineLocbs::default());
        assert!(
            (trace.makespan - 10.0 / 8.0).abs() < 1e-9,
            "got {}",
            trace.makespan
        );
    }

    #[test]
    fn online_locbs_shares_fairly() {
        // Four equal ready tasks on 8 procs: 2 each, single wave of 5 s.
        let g = independent(4);
        let cluster = Cluster::new(8, 12.5);
        let trace = RuntimeEngine::new(&g, &cluster, OnlineConfig::default())
            .run(&mut OnlineLocbs::default());
        assert!(
            (trace.makespan - 5.0).abs() < 1e-9,
            "got {}",
            trace.makespan
        );
        assert!(trace.schedule.entries().iter().all(|e| e.np() == 2));
    }

    #[test]
    fn greedy_uses_one_proc_each() {
        let g = independent(3);
        let cluster = Cluster::new(8, 12.5);
        let trace =
            RuntimeEngine::new(&g, &cluster, OnlineConfig::default()).run(&mut GreedyOneProc);
        assert!((trace.makespan - 10.0).abs() < 1e-9);
        assert!(trace.schedule.entries().iter().all(|e| e.np() == 1));
    }

    #[test]
    fn policies_report_names() {
        assert_eq!(PlanFollower::locmps().name(), "plan-follower");
        assert_eq!(OnlineLocbs::default().name(), "online-locbs");
        assert_eq!(GreedyOneProc.name(), "greedy-1p");
    }

    #[test]
    fn online_beats_greedy_on_scalable_tails() {
        // A wide fan of scalable tasks followed by nothing: the moulding
        // policy uses the whole machine per wave while greedy strands
        // processors.
        let g = independent(2);
        let cluster = Cluster::new(8, 12.5);
        let online = RuntimeEngine::new(&g, &cluster, OnlineConfig::default())
            .run(&mut OnlineLocbs::default());
        let greedy =
            RuntimeEngine::new(&g, &cluster, OnlineConfig::default()).run(&mut GreedyOneProc);
        assert!(online.makespan < greedy.makespan);
    }
}
