//! **CPA** — Critical Path and Allocation (Radulescu & van Gemund, ICPP
//! 2001), the low-cost two-phase baseline of §IV.
//!
//! *Allocation phase*: while the critical-path length `T_CP` exceeds the
//! average processor area `T_A = (1/P) Σ_t np(t)·et(t, np(t))`, widen the
//! critical-path task whose *per-processor work* drops the most, i.e. the
//! one maximizing
//! `et(t, np)/np − et(t, np+1)/(np+1)`.
//! The intuition: `T_CP` and `T_A` are both lower bounds on the makespan;
//! growing allocations shrinks `T_CP` but inflates `T_A`, and the sweet
//! spot is where they meet.
//!
//! *Scheduling phase*: plain b-level list scheduling onto the
//! earliest-available processors (no backfilling, no locality) — the same
//! placement backend as CPR, per the paper's characterization of both.

use locmps_core::{Allocation, CommModel, SchedError, Scheduler, SchedulerOutput, SearchCounters};
use locmps_platform::Cluster;
use locmps_taskgraph::TaskGraph;

use crate::listsched::{PlainListScheduler, ReadyRule};

/// The CPA scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpa;

impl Scheduler for Cpa {
    fn name(&self) -> &'static str {
        "CPA"
    }

    fn schedule(&self, g: &TaskGraph, cluster: &Cluster) -> Result<SchedulerOutput, SchedError> {
        g.validate().map_err(SchedError::Graph)?;
        let p = cluster.n_procs;
        let model = CommModel::new(cluster);
        let mut alloc = Allocation::ones(g.n_tasks());

        // Allocation phase.
        loop {
            let t_cp = g
                .critical_path(
                    |t| g.task(t).profile.time(alloc.np(t)),
                    |e| model.edge_estimate(g, &alloc, e),
                )
                .length;
            let t_a = alloc.total_area(g) / p as f64;
            if t_cp <= t_a {
                break;
            }
            let cp = g.critical_path(
                |t| g.task(t).profile.time(alloc.np(t)),
                |e| model.edge_estimate(g, &alloc, e),
            );
            let candidate = cp
                .tasks
                .iter()
                .copied()
                .filter(|&t| alloc.np(t) < p)
                .max_by(|&a, &b| {
                    let gain = |t| {
                        let np = alloc.np(t);
                        let prof = &g.task(t).profile;
                        prof.time(np) / np as f64 - prof.time(np + 1) / (np + 1) as f64
                    };
                    gain(a).total_cmp(&gain(b)).then(b.cmp(&a))
                });
            let Some(t) = candidate else { break };
            // A non-positive gain for the *best* candidate means widening
            // only inflates area without helping the CP: stop.
            let np = alloc.np(t);
            let prof = &g.task(t).profile;
            if prof.time(np) / np as f64 - prof.time(np + 1) / (np + 1) as f64 <= 0.0 {
                break;
            }
            alloc.widen(t, p);
        }

        // Scheduling phase.
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
    use locmps_taskgraph::TaskId;

    #[test]
    fn balances_cp_against_area() {
        // One long scalable chain plus small independent tasks: CPA widens
        // the chain until T_CP meets T_A rather than all the way to P.
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(64.0));
        let b = g.add_task("b", ExecutionProfile::linear(64.0));
        g.add_edge(a, b, 0.0).unwrap();
        for i in 0..4 {
            g.add_task(format!("s{i}"), ExecutionProfile::linear(8.0));
        }
        let cluster = Cluster::new(8, 12.5);
        let out = Cpa.schedule(&g, &cluster).unwrap();
        assert!(out.allocation.np(a) > 1, "the chain must widen");
        // T_A at the end: total work 160 / 8 = 20 (linear speedup keeps
        // area constant); chain stops near 2*64/np ≈ 20 -> np ≈ 6..8.
        assert!(out.makespan() < 64.0 + 64.0, "must beat pure task parallel");
        out.schedule
            .validate(&g, &locmps_core::CommModel::new(&cluster))
            .unwrap();
    }

    #[test]
    fn known_overallocation_on_saturated_tasks() {
        // Downey A=2, sigma=2 saturates at 4 processors (speedup 2), yet
        // the per-processor-work gain et/np − et'/(np+1) stays positive
        // past saturation, so CPA keeps widening until T_CP ≤ T_A. This
        // over-allocation is CPA's documented weakness (it motivated the
        // M-CPA/biCPA successors) and part of why LoC-MPS beats it — the
        // makespan still lands at the saturated time.
        let m = SpeedupModel::downey(2.0, 2.0).unwrap();
        let mut g = TaskGraph::new();
        let t = g.add_task("t", ExecutionProfile::new(30.0, m).unwrap());
        let cluster = Cluster::new(16, 12.5);
        let out = Cpa.schedule(&g, &cluster).unwrap();
        assert!(
            out.allocation.np(t) > 4,
            "CPA over-allocates, got {}",
            out.allocation.np(t)
        );
        assert!((out.makespan() - 15.0).abs() < 1e-9, "saturated time et=15");
    }

    #[test]
    fn negative_gain_stops_the_allocation_phase() {
        // Per-processor work et/np only *increases* when et grows
        // super-linearly in np — e.g. a profiled task that thrashes on two
        // processors. The best candidate's gain is then non-positive and
        // the allocation loop must bail out instead of spinning to P.
        use locmps_speedup::ProfiledSpeedup;
        let m = SpeedupModel::Table(ProfiledSpeedup::from_times(&[10.0, 25.0]).unwrap());
        let mut g = TaskGraph::new();
        let t = g.add_task("t", ExecutionProfile::new(10.0, m).unwrap());
        let cluster = Cluster::new(16, 12.5);
        let out = Cpa.schedule(&g, &cluster).unwrap();
        assert_eq!(
            out.allocation.np(t),
            1,
            "widening a thrashing task is never chosen"
        );
        assert!((out.makespan() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn single_linear_task_widens_fully() {
        let mut g = TaskGraph::new();
        g.add_task("t", ExecutionProfile::linear(32.0));
        let cluster = Cluster::new(4, 12.5);
        let out = Cpa.schedule(&g, &cluster).unwrap();
        // T_A stays 8 (constant area), T_CP falls until they meet at np=4.
        assert_eq!(out.allocation.np(TaskId(0)), 4);
        assert!((out.makespan() - 8.0).abs() < 1e-9);
        assert_eq!(Cpa.name(), "CPA");
    }
}
