//! The plain (locality-oblivious) list scheduler used by CPR, CPA, TSAS
//! and PS-ONLINE.
//!
//! List scheduling for moldable tasks: ready tasks are served in the
//! order a [`ReadyRule`] picks — decreasing bottom level for the offline
//! baselines, earliest data arrival for the online one; each is placed on
//! the `np(t)` processors with the earliest availability; start time is the
//! maximum of data readiness (parent finish + aggregate-estimate transfer
//! time) and processor availability. No holes are tracked (no backfilling)
//! and no data locality is considered — the two properties that
//! distinguish these baselines from LoCBS in the paper's §IV comparison.

use locmps_core::{Allocation, CommModel, SchedError, Schedule, ScheduledTask};
use locmps_platform::{Cluster, ProcSet};
use locmps_taskgraph::{TaskGraph, TaskId};

/// Result of a plain list-scheduling pass.
#[derive(Debug, Clone)]
pub struct ListScheduleResult {
    /// Placement and timing of every task.
    pub schedule: Schedule,
    /// The planned schedule length under the aggregate communication
    /// estimate.
    pub makespan: f64,
}

/// Which ready task the placement loop serves next; the lower task id
/// breaks ties under both rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadyRule {
    /// Highest bottom level first (CPR, CPA, TSAS).
    BottomLevel,
    /// Earliest data arrival first (PS-ONLINE: an online scheduler cannot
    /// know the bottom levels of the DAG).
    DataArrival,
}

/// The locality-oblivious list scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlainListScheduler;

impl PlainListScheduler {
    /// Schedules `g` under `alloc` on `cluster`, serving ready tasks in
    /// `rule` order.
    ///
    /// # Errors
    /// Same input contract as LoCBS: valid DAG, allocation covering every
    /// task with `np(t) ≤ P`.
    pub fn run(
        &self,
        g: &TaskGraph,
        alloc: &Allocation,
        cluster: &Cluster,
        rule: ReadyRule,
    ) -> Result<ListScheduleResult, SchedError> {
        g.validate().map_err(SchedError::Graph)?;
        if alloc.len() != g.n_tasks() {
            return Err(SchedError::AllocationMismatch {
                expected: g.n_tasks(),
                got: alloc.len(),
            });
        }
        for t in g.task_ids() {
            if alloc.np(t) > cluster.n_procs {
                return Err(SchedError::AllocationTooWide {
                    task: t,
                    np: alloc.np(t),
                    p: cluster.n_procs,
                });
            }
        }
        let model = CommModel::new(cluster);
        let bottom = match rule {
            ReadyRule::BottomLevel => {
                g.levels(
                    |t| g.task(t).profile.time(alloc.np(t)),
                    |e| model.edge_estimate(g, alloc, e),
                )
                .bottom
            }
            ReadyRule::DataArrival => Vec::new(),
        };
        // When the last input of `t` lands, given the parents' finishes.
        let data_ready = |t: TaskId, finish: &[f64]| {
            g.in_edges(t)
                .map(|e| finish[g.edge(e).src.index()] + model.edge_estimate(g, alloc, e))
                .fold(0.0f64, f64::max)
        };

        let mut eat = vec![0.0f64; cluster.n_procs];
        let mut finish = vec![0.0f64; g.n_tasks()];
        let mut entries: Vec<Option<ScheduledTask>> = vec![None; g.n_tasks()];
        let mut remaining: Vec<usize> = g.task_ids().map(|t| g.in_degree(t)).collect();
        let mut ready: Vec<TaskId> = g
            .task_ids()
            .filter(|&t| remaining[t.index()] == 0)
            .collect();

        while !ready.is_empty() {
            let (pos, _) = match rule {
                ReadyRule::BottomLevel => ready.iter().enumerate().max_by(|(_, a), (_, b)| {
                    bottom[a.index()]
                        .total_cmp(&bottom[b.index()])
                        .then(b.cmp(a))
                }),
                ReadyRule::DataArrival => ready.iter().enumerate().min_by(|(_, a), (_, b)| {
                    data_ready(**a, &finish)
                        .total_cmp(&data_ready(**b, &finish))
                        .then(a.cmp(b))
                }),
            }
            .expect("ready is non-empty");
            let t = ready.swap_remove(pos);
            let np = alloc.np(t);

            // Earliest-available np processors, oblivious to data location.
            let mut procs: Vec<u32> = (0..cluster.n_procs as u32).collect();
            procs.sort_by(|&a, &b| eat[a as usize].total_cmp(&eat[b as usize]).then(a.cmp(&b)));
            let chosen: ProcSet = procs.into_iter().take(np).collect();

            let est = data_ready(t, &finish);
            let avail = chosen
                .iter()
                .map(|p| eat[p as usize])
                .fold(0.0f64, f64::max);
            let st = est.max(avail);
            let ft = st + g.task(t).profile.time(np);
            for p in chosen.iter() {
                eat[p as usize] = ft;
            }
            finish[t.index()] = ft;
            entries[t.index()] = Some(ScheduledTask {
                task: t,
                procs: chosen,
                start: st,
                compute_start: st,
                finish: ft,
            });
            for s in g.successors(t) {
                remaining[s.index()] -= 1;
                if remaining[s.index()] == 0 {
                    ready.push(s);
                }
            }
        }

        let schedule = Schedule::from_entries(
            entries
                .into_iter()
                .map(|e| e.expect("DAG schedules fully"))
                .collect(),
        );
        let makespan = schedule.makespan();
        Ok(ListScheduleResult { schedule, makespan })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmps_speedup::ExecutionProfile;

    #[test]
    fn chain_is_sequential() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(10.0));
        let b = g.add_task("b", ExecutionProfile::linear(5.0));
        g.add_edge(a, b, 0.0).unwrap();
        let cluster = Cluster::new(2, 12.5);
        let res = PlainListScheduler
            .run(&g, &Allocation::ones(2), &cluster, ReadyRule::BottomLevel)
            .unwrap();
        assert!((res.makespan - 15.0).abs() < 1e-9);
    }

    #[test]
    fn independent_tasks_spread_over_processors() {
        let mut g = TaskGraph::new();
        for i in 0..4 {
            g.add_task(format!("t{i}"), ExecutionProfile::linear(10.0));
        }
        let cluster = Cluster::new(2, 12.5);
        let res = PlainListScheduler
            .run(&g, &Allocation::ones(4), &cluster, ReadyRule::BottomLevel)
            .unwrap();
        assert!(
            (res.makespan - 20.0).abs() < 1e-9,
            "4 × 10s on 2 procs = 20s"
        );
    }

    #[test]
    fn charges_aggregate_transfer_cost() {
        // 125 MB at 12.5 MB/s over 1 lane = 10 s — charged regardless of
        // where the consumer lands (no locality awareness).
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(10.0));
        let b = g.add_task("b", ExecutionProfile::linear(10.0));
        g.add_edge(a, b, 125.0).unwrap();
        let cluster = Cluster::new(2, 12.5);
        let res = PlainListScheduler
            .run(&g, &Allocation::ones(2), &cluster, ReadyRule::BottomLevel)
            .unwrap();
        assert!((res.makespan - 30.0).abs() < 1e-9);
    }

    #[test]
    fn no_backfilling_wastes_holes() {
        // H(1p,10) -> W(2p,10); S(1p,8): scheduled H, W, S by b-level; the
        // plain scheduler parks S after W even though [0,8) was idle on p1.
        use locmps_speedup::{ProfiledSpeedup, SpeedupModel};
        let mut g = TaskGraph::new();
        let h = g.add_task("H", ExecutionProfile::linear(10.0));
        let w = g.add_task(
            "W",
            ExecutionProfile::new(
                20.0,
                SpeedupModel::Table(ProfiledSpeedup::from_times(&[20.0, 10.0]).unwrap()),
            )
            .unwrap(),
        );
        let s = g.add_task("S", ExecutionProfile::linear(8.0));
        g.add_edge(h, w, 0.0).unwrap();
        let _ = s;
        let cluster = Cluster::new(2, 12.5);
        let res = PlainListScheduler
            .run(
                &g,
                &Allocation::from_vec(vec![1, 2, 1]),
                &cluster,
                ReadyRule::BottomLevel,
            )
            .unwrap();
        assert!(res.makespan >= 27.9, "expected ~28, got {}", res.makespan);
    }
}
