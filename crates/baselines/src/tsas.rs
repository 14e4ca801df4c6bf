//! **TSAS** — the Two-Step Allocation and Scheduling scheme of Ramaswamy,
//! Sapatnekar & Banerjee (IEEE TPDS 1997), reference \[3\] of the paper.
//!
//! The paper does not re-evaluate TSAS directly (CPR and CPA "have been
//! shown … to perform better than other allocation and scheduling
//! approaches such as TSAS"), but it is the canonical two-phase ancestor
//! and completes the baseline family:
//!
//! 1. **Allocation phase** — TSAS poses processor allocation as a *convex
//!    program* over continuous allocations `x_t ∈ [1, P]`, minimizing
//!    `max(L_cp(x), A(x)/P)` (critical-path length vs average area — both
//!    lower bounds on the makespan). We solve it by projected coordinate
//!    descent over the continuous speedup models
//!    ([`locmps_speedup::SpeedupModel::speedup_cont`]): while the critical
//!    path dominates, grow the CP task with the steepest execution-time
//!    descent; while area dominates, shrink the non-critical task with the
//!    cheapest area; stop at the fixed point and round to integers
//!    (the classic presentation; processor counts in the paper's model
//!    are powers-of-two-free, so plain rounding suffices).
//! 2. **Scheduling phase** — prioritized (bottom-level) list scheduling,
//!    shared with CPR/CPA via [`PlainListScheduler`]; like them, TSAS is
//!    not locality aware.

use locmps_core::{Allocation, CommModel, SchedError, Scheduler, SchedulerOutput, SearchCounters};
use locmps_platform::Cluster;
use locmps_taskgraph::{TaskGraph, TaskId};

use crate::listsched::{PlainListScheduler, ReadyRule};

/// The TSAS scheduler.
#[derive(Debug, Clone, Copy)]
pub struct Tsas {
    /// Continuous-phase iteration budget (coordinate steps).
    pub max_steps: usize,
    /// Step size for continuous adjustments, in processors.
    pub step: f64,
}

impl Default for Tsas {
    fn default() -> Self {
        Self {
            max_steps: 5_000,
            step: 0.25,
        }
    }
}

impl Tsas {
    /// Continuous objective pieces at allocation `x`.
    fn objective(g: &TaskGraph, x: &[f64], p: usize, model: &CommModel<'_>) -> (f64, f64) {
        // Critical path over continuous times; edge weights keep the
        // aggregate estimate with the *floored* widths (conservative).
        let alloc_int =
            Allocation::from_vec(x.iter().map(|v| (v.floor() as usize).max(1)).collect());
        let cp = g
            .critical_path(
                |t| g.task(t).profile.time_cont(x[t.index()]),
                |e| model.edge_estimate(g, &alloc_int, e),
            )
            .length;
        let area: f64 = g
            .task_ids()
            .map(|t| x[t.index()] * g.task(t).profile.time_cont(x[t.index()]))
            .sum();
        (cp, area / p as f64)
    }
}

impl Scheduler for Tsas {
    fn name(&self) -> &'static str {
        "TSAS"
    }

    fn schedule(&self, g: &TaskGraph, cluster: &Cluster) -> Result<SchedulerOutput, SchedError> {
        g.validate().map_err(SchedError::Graph)?;
        let p = cluster.n_procs;
        let model = CommModel::new(cluster);
        let pf = p as f64;
        let n = g.n_tasks();
        let mut x = vec![1.0f64; n];

        for _ in 0..self.max_steps {
            let (cp_len, avg_area) = Self::objective(g, &x, p, &model);
            if cp_len > avg_area {
                // CP dominates: steepest descent on a critical-path task.
                let alloc_int =
                    Allocation::from_vec(x.iter().map(|v| (v.floor() as usize).max(1)).collect());
                let cp = g.critical_path(
                    |t| g.task(t).profile.time_cont(x[t.index()]),
                    |e| model.edge_estimate(g, &alloc_int, e),
                );
                let candidate = cp
                    .tasks
                    .iter()
                    .copied()
                    .filter(|&t| x[t.index()] + self.step <= pf)
                    .max_by(|&a, &b| {
                        let gain = |t: TaskId| {
                            let prof = &g.task(t).profile;
                            prof.time_cont(x[t.index()]) - prof.time_cont(x[t.index()] + self.step)
                        };
                        gain(a).total_cmp(&gain(b)).then(b.cmp(&a))
                    });
                let Some(t) = candidate else { break };
                let prof = &g.task(t).profile;
                if prof.time_cont(x[t.index()]) - prof.time_cont(x[t.index()] + self.step)
                    <= f64::EPSILON
                {
                    break; // no continuous descent available anywhere on CP
                }
                x[t.index()] += self.step;
            } else {
                // Area dominates: release processors from the task whose
                // shrink costs the critical path the least per area saved.
                let alloc_int =
                    Allocation::from_vec(x.iter().map(|v| (v.floor() as usize).max(1)).collect());
                let cp = g.critical_path(
                    |t| g.task(t).profile.time_cont(x[t.index()]),
                    |e| model.edge_estimate(g, &alloc_int, e),
                );
                let on_cp: std::collections::HashSet<TaskId> = cp.tasks.iter().copied().collect();
                let candidate = g
                    .task_ids()
                    .filter(|t| !on_cp.contains(t))
                    .filter(|&t| x[t.index()] - self.step >= 1.0)
                    .max_by(|&a, &b| {
                        let saved = |t: TaskId| {
                            let prof = &g.task(t).profile;
                            let xi = x[t.index()];
                            xi * prof.time_cont(xi)
                                - (xi - self.step) * prof.time_cont(xi - self.step)
                        };
                        saved(a).total_cmp(&saved(b)).then(b.cmp(&a))
                    });
                let Some(t) = candidate else { break };
                let xi = x[t.index()];
                let prof = &g.task(t).profile;
                if xi * prof.time_cont(xi) - (xi - self.step) * prof.time_cont(xi - self.step)
                    <= f64::EPSILON
                {
                    break;
                }
                x[t.index()] -= self.step;
            }
        }

        // Round to integers (nearest, clamped to [1, P]).
        let alloc =
            Allocation::from_vec(x.iter().map(|v| (v.round() as usize).clamp(1, p)).collect());
        let res = PlainListScheduler.run(g, &alloc, cluster, ReadyRule::BottomLevel)?;
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
    use locmps_speedup::{ExecutionProfile, SpeedupModel};

    #[test]
    fn widens_a_scalable_chain() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(40.0));
        let b = g.add_task("b", ExecutionProfile::linear(40.0));
        g.add_edge(a, b, 0.0).unwrap();
        let cluster = Cluster::new(4, 12.5);
        let out = Tsas::default().schedule(&g, &cluster).unwrap();
        // Linear chain, constant area: the convex balance point is full
        // width (CP falls, area flat).
        assert_eq!(out.allocation.as_slice(), &[4, 4]);
        assert!((out.makespan() - 20.0).abs() < 1e-9);
        assert_eq!(Tsas::default().name(), "TSAS");
    }

    #[test]
    fn balances_against_concurrent_work() {
        // One scalable chain + independent serial tasks: widening the chain
        // inflates the *average* area term only mildly (linear speedup), so
        // TSAS widens it but stops where CP meets area.
        let serial = SpeedupModel::amdahl(1.0).unwrap();
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(32.0));
        for i in 0..6 {
            g.add_task(
                format!("s{i}"),
                ExecutionProfile::new(8.0, serial.clone()).unwrap(),
            );
        }
        let _ = a;
        let cluster = Cluster::new(8, 12.5);
        let out = Tsas::default().schedule(&g, &cluster).unwrap();
        assert!(out.allocation.np(a) >= 2, "the chain should widen");
        // Total work 32 + 48 = 80 ⇒ area bound 10; CP of the chain at the
        // balance is near 10, so the final makespan is far below the
        // task-parallel 32.
        assert!(out.makespan() < 32.0);
    }

    #[test]
    fn serial_graph_stays_narrow() {
        let serial = SpeedupModel::amdahl(1.0).unwrap();
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::new(10.0, serial.clone()).unwrap());
        let b = g.add_task("b", ExecutionProfile::new(10.0, serial).unwrap());
        g.add_edge(a, b, 0.0).unwrap();
        let cluster = Cluster::new(8, 12.5);
        let out = Tsas::default().schedule(&g, &cluster).unwrap();
        assert_eq!(out.allocation.as_slice(), &[1, 1]);
        assert!((out.makespan() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(12.0));
        let b = g.add_task("b", ExecutionProfile::linear(20.0));
        g.add_edge(a, b, 30.0).unwrap();
        let cluster = Cluster::new(6, 12.5);
        let x = Tsas::default().schedule(&g, &cluster).unwrap();
        let y = Tsas::default().schedule(&g, &cluster).unwrap();
        assert_eq!(x.schedule, y.schedule);
        assert_eq!(x.allocation, y.allocation);
    }
}
