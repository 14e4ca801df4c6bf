//! The two pure-paradigm baselines: **TASK** and **DATA** parallel (§IV).

use locmps_core::{
    Allocation, CommModel, Locbs, LocbsOptions, SchedError, Schedule, ScheduledTask, Scheduler,
    SchedulerOutput, SearchCounters,
};
use locmps_platform::{Cluster, ProcSet};
use locmps_taskgraph::TaskGraph;

/// **TASK**: "allocates one processor to each task and \[uses\] the locality
/// conscious backfill scheduling algorithm to schedule them to processors."
#[derive(Debug, Clone, Copy, Default)]
pub struct TaskParallel;

impl Scheduler for TaskParallel {
    fn name(&self) -> &'static str {
        "TASK"
    }

    fn schedule(&self, g: &TaskGraph, cluster: &Cluster) -> Result<SchedulerOutput, SchedError> {
        let model = CommModel::new(cluster);
        let alloc = Allocation::ones(g.n_tasks());
        let res = Locbs::new(model, LocbsOptions::default()).run(g, &alloc)?;
        Ok(SchedulerOutput {
            schedule: res.schedule,
            allocation: alloc,
            schedule_dag: Some(res.schedule_dag),
            counters: SearchCounters::default(),
        })
    }
}

/// **DATA**: "executes tasks in a sequence, with each task using all
/// processors." All tasks share the identical block-cyclic layout over the
/// full machine, so "no redistribution cost is incurred."
///
/// Tasks run in decreasing bottom-level (then id) order — any topological
/// order gives the same makespan `Σ et(t, P)`, but a deterministic priority
/// keeps the schedule reproducible.
#[derive(Debug, Clone, Copy, Default)]
pub struct DataParallel;

impl Scheduler for DataParallel {
    fn name(&self) -> &'static str {
        "DATA"
    }

    fn schedule(&self, g: &TaskGraph, cluster: &Cluster) -> Result<SchedulerOutput, SchedError> {
        g.validate().map_err(SchedError::Graph)?;
        let p = cluster.n_procs;
        let alloc = Allocation::uniform(g.n_tasks(), p);
        let levels = g.levels(|t| g.task(t).profile.time(p), |_| 0.0);
        let mut order = g.topo_order().map_err(SchedError::Graph)?;
        // Stable topological order refined by bottom level: sorting by
        // decreasing bottom level is itself topological (a predecessor's
        // bottom level strictly exceeds its successors' along every path).
        order.sort_by(|a, b| {
            levels.bottom[b.index()]
                .total_cmp(&levels.bottom[a.index()])
                .then(a.cmp(b))
        });
        let all: ProcSet = ProcSet::all(p);
        let mut t_now = 0.0;
        let mut entries = Vec::with_capacity(g.n_tasks());
        for t in order {
            let et = g.task(t).profile.time(p);
            entries.push(ScheduledTask {
                task: t,
                procs: all.clone(),
                start: t_now,
                compute_start: t_now,
                finish: t_now + et,
            });
            t_now += et;
        }
        Ok(SchedulerOutput {
            schedule: Schedule::from_entries(entries),
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
    use locmps_taskgraph::TaskId;

    fn fork_join(work: &[f64]) -> TaskGraph {
        let mut g = TaskGraph::new();
        let src = g.add_task("src", ExecutionProfile::linear(1.0));
        let sink_profile = ExecutionProfile::linear(1.0);
        let mids: Vec<TaskId> = work
            .iter()
            .enumerate()
            .map(|(i, &w)| g.add_task(format!("m{i}"), ExecutionProfile::linear(w)))
            .collect();
        let sink = g.add_task("sink", sink_profile);
        for &m in &mids {
            g.add_edge(src, m, 10.0).unwrap();
            g.add_edge(m, sink, 10.0).unwrap();
        }
        g
    }

    #[test]
    fn data_makespan_is_sum_of_full_width_times() {
        let g = fork_join(&[8.0, 8.0, 8.0]);
        let cluster = Cluster::new(4, 12.5);
        let out = DataParallel.schedule(&g, &cluster).unwrap();
        let expect: f64 = g.task_ids().map(|t| g.task(t).profile.time(4)).sum();
        assert!((out.makespan() - expect).abs() < 1e-9);
        // Valid under the true model: identical layouts => no transfers.
        out.schedule
            .validate(&g, &CommModel::new(&cluster))
            .unwrap();
        assert!(out.schedule.entries().iter().all(|e| e.np() == 4));
    }

    #[test]
    fn data_order_respects_precedence() {
        let g = fork_join(&[5.0, 3.0]);
        let cluster = Cluster::new(2, 12.5);
        let out = DataParallel.schedule(&g, &cluster).unwrap();
        let src = out.schedule.get(TaskId(0)).unwrap();
        let sink = out.schedule.get(TaskId(3)).unwrap();
        assert!(src.finish <= sink.start + 1e-9);
    }

    #[test]
    fn task_parallel_uses_one_proc_each_and_validates() {
        let g = fork_join(&[6.0, 7.0, 8.0]);
        let cluster = Cluster::new(4, 12.5);
        let out = TaskParallel.schedule(&g, &cluster).unwrap();
        assert!(out.schedule.entries().iter().all(|e| e.np() == 1));
        out.schedule
            .validate(&g, &CommModel::new(&cluster))
            .unwrap();
        assert_eq!(TaskParallel.name(), "TASK");
    }

    #[test]
    fn task_beats_data_on_unscalable_workloads() {
        // Three independent serial tasks (Amdahl f = 1): DATA serializes
        // them at full width with zero speedup; TASK runs them concurrently.
        let serial = SpeedupModel::amdahl(1.0).unwrap();
        let mut g = TaskGraph::new();
        for i in 0..3 {
            g.add_task(
                format!("t{i}"),
                ExecutionProfile::new(10.0, serial.clone()).unwrap(),
            );
        }
        let cluster = Cluster::new(4, 12.5);
        let task = TaskParallel.schedule(&g, &cluster).unwrap();
        let data = DataParallel.schedule(&g, &cluster).unwrap();
        assert!((task.makespan() - 10.0).abs() < 1e-9);
        assert!((data.makespan() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn data_beats_task_on_perfectly_scalable_chains() {
        // A chain of linear-speedup tasks: TASK leaves P-1 procs idle.
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(40.0));
        let b = g.add_task("b", ExecutionProfile::linear(40.0));
        g.add_edge(a, b, 0.0).unwrap();
        let cluster = Cluster::new(4, 12.5);
        let task = TaskParallel.schedule(&g, &cluster).unwrap();
        let data = DataParallel.schedule(&g, &cluster).unwrap();
        assert!((task.makespan() - 80.0).abs() < 1e-9);
        assert!((data.makespan() - 20.0).abs() < 1e-9);
    }
}
