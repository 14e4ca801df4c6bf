//! **CPR** — Critical Path Reduction (Radulescu, Nicolescu, van Gemund,
//! Jonker; IPDPS 2001), the single-step baseline of §IV.
//!
//! "Starting from a one-processor allocation for each task, CPR iteratively
//! increases the processor allocation of tasks until there is no
//! improvement in makespan." Our rendering of the published loop:
//!
//! 1. schedule the current allocation with the plain (locality-oblivious)
//!    list scheduler;
//! 2. among critical-path tasks still widenable and not *frozen*, widen the
//!    one with the largest execution-time gain;
//! 3. keep the new allocation only if the makespan strictly improved
//!    (successes unfreeze everything); otherwise revert and freeze that
//!    task;
//! 4. stop when no critical-path task can be tried.
//!
//! Unlike LoC-MPS there is no look-ahead (only strictly improving steps are
//! kept — the Figure 3 trap applies) and no data locality in placement.

use std::collections::HashSet;

use locmps_core::{Allocation, CommModel, SchedError, Scheduler, SchedulerOutput, SearchCounters};
use locmps_platform::Cluster;
use locmps_taskgraph::{TaskGraph, TaskId};

use crate::listsched::{PlainListScheduler, ReadyRule};

/// The CPR scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpr;

impl Scheduler for Cpr {
    fn name(&self) -> &'static str {
        "CPR"
    }

    fn schedule(&self, g: &TaskGraph, cluster: &Cluster) -> Result<SchedulerOutput, SchedError> {
        g.validate().map_err(SchedError::Graph)?;
        let p = cluster.n_procs;
        let model = CommModel::new(cluster);
        let lister = PlainListScheduler;

        let mut alloc = Allocation::ones(g.n_tasks());
        let mut best = lister.run(g, &alloc, cluster, ReadyRule::BottomLevel)?;
        let mut frozen: HashSet<TaskId> = HashSet::new();

        loop {
            // Critical path under the current allocation's weights.
            let cp = g.critical_path(
                |t| g.task(t).profile.time(alloc.np(t)),
                |e| model.edge_estimate(g, &alloc, e),
            );
            let candidate = cp
                .tasks
                .iter()
                .copied()
                .filter(|&t| alloc.np(t) < p && !frozen.contains(&t))
                .max_by(|&a, &b| {
                    g.task(a)
                        .profile
                        .gain(alloc.np(a))
                        .total_cmp(&g.task(b).profile.gain(alloc.np(b)))
                        .then(b.cmp(&a))
                });
            let Some(t) = candidate else { break };

            let mut trial = alloc.clone();
            trial.widen(t, p);
            let res = lister.run(g, &trial, cluster, ReadyRule::BottomLevel)?;
            if res.makespan < best.makespan * (1.0 - 1e-12) - 1e-12 {
                alloc = trial;
                best = res;
                frozen.clear();
            } else {
                frozen.insert(t);
            }
        }

        Ok(SchedulerOutput {
            schedule: best.schedule,
            allocation: alloc,
            schedule_dag: None,
            counters: SearchCounters::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmps_speedup::{ExecutionProfile, SpeedupModel};

    #[test]
    fn widens_a_scalable_chain() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(40.0));
        let b = g.add_task("b", ExecutionProfile::linear(40.0));
        g.add_edge(a, b, 0.0).unwrap();
        let cluster = Cluster::new(4, 12.5);
        let out = Cpr.schedule(&g, &cluster).unwrap();
        // A linear chain should collapse to full-width: 10 + 10 = 20.
        assert!(
            (out.makespan() - 20.0).abs() < 1e-9,
            "got {}",
            out.makespan()
        );
        assert_eq!(out.allocation.as_slice(), &[4, 4]);
    }

    #[test]
    fn keeps_serial_tasks_narrow() {
        let serial = SpeedupModel::amdahl(1.0).unwrap();
        let mut g = TaskGraph::new();
        for i in 0..2 {
            g.add_task(
                format!("t{i}"),
                ExecutionProfile::new(10.0, serial.clone()).unwrap(),
            );
        }
        let cluster = Cluster::new(4, 12.5);
        let out = Cpr.schedule(&g, &cluster).unwrap();
        assert_eq!(out.allocation.as_slice(), &[1, 1], "no gain from widening");
        assert!((out.makespan() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn is_trapped_by_the_fig3_local_minimum() {
        // The same instance where LoC-MPS's look-ahead reaches 30: CPR's
        // improve-only rule stalls at 40 (documented contrast, §III.E).
        let mut g = TaskGraph::new();
        g.add_task("T1", ExecutionProfile::linear(40.0));
        g.add_task("T2", ExecutionProfile::linear(80.0));
        let cluster = Cluster::new(4, 12.5);
        let out = Cpr.schedule(&g, &cluster).unwrap();
        assert!(
            (out.makespan() - 40.0).abs() < 1e-6,
            "got {}",
            out.makespan()
        );
    }

    #[test]
    fn name_and_determinism() {
        assert_eq!(Cpr.name(), "CPR");
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(12.0));
        let b = g.add_task("b", ExecutionProfile::linear(9.0));
        g.add_edge(a, b, 25.0).unwrap();
        let cluster = Cluster::new(3, 12.5);
        let x = Cpr.schedule(&g, &cluster).unwrap();
        let y = Cpr.schedule(&g, &cluster).unwrap();
        assert_eq!(x.schedule, y.schedule);
    }
}
