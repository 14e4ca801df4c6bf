//! **LoCBS** — Locality Conscious Backfill Scheduling (Algorithm 2).
//!
//! Given a task graph and a processor allocation `np(t)`, LoCBS decides
//! *which* processors each task runs on and *when*:
//!
//! 1. ready tasks are served in priority order — highest
//!    `bottomL(t) + max_{e into t} wt(e)` first;
//! 2. for the chosen task, every *hole* of the 2-D resource chart that can
//!    hold `np(t)` processors is examined (backfilling); within each hole
//!    the processor subset with **maximum locality** for the task's input
//!    data is selected, the redistribution completion time is computed with
//!    the exact block-cyclic single-port model, and the placement with the
//!    **minimum finish time** wins;
//! 3. if the task starts later than its earliest (data-ready) start time,
//!    zero-weight *pseudo-edges* from the tasks that block it are added to
//!    a copy of the graph — the resulting *schedule-DAG* `G'` is what
//!    LoC-MPS computes critical paths on.
//!
//! The *no-backfill* variant (Figure 6's ablation) keeps only the last free
//! time of each processor instead of enumerating holes.

use locmps_platform::{CommOverlap, ProcId, ProcSet};
use locmps_taskgraph::{TaskGraph, TaskId};

use crate::allocation::Allocation;
use crate::commcost::CommModel;
use crate::locality::{input_locality_scores_into, select_max_locality_into};
use crate::schedule::{time_eps, Schedule, ScheduledTask};
use crate::scheduler::SchedError;
use crate::timeline::Timeline;

/// LoCBS configuration.
#[derive(Debug, Clone, Copy)]
pub struct LocbsOptions {
    /// `true`: full backfilling over schedule holes (the paper's default).
    /// `false`: the cheaper last-free-time variant of Figure 6.
    pub backfill: bool,
}

impl Default for LocbsOptions {
    fn default() -> Self {
        Self { backfill: true }
    }
}

/// Output of one LoCBS run.
#[derive(Debug, Clone)]
pub struct LocbsResult {
    /// Placement and timing for every task.
    pub schedule: Schedule,
    /// `G'`: the input graph plus pseudo-edges for induced dependences.
    pub schedule_dag: TaskGraph,
    /// The schedule length (== `schedule.makespan()`).
    pub makespan: f64,
}

/// The LoCBS scheduler: maps an (graph, allocation) pair to a schedule.
#[derive(Debug, Clone, Copy)]
pub struct Locbs<'a> {
    model: CommModel<'a>,
    opts: LocbsOptions,
}

/// One candidate placement under evaluation.
struct Placement {
    start: f64,
    compute_start: f64,
    finish: f64,
    /// Data-ready time on `procs` (`rct` under full overlap, the parents'
    /// last finish under no overlap): the pseudo-edge test's `est`.
    ready: f64,
    procs: ProcSet,
}

/// One position of a logged LoCBS pass.
#[derive(Debug)]
struct LoggedStep {
    /// The width the picked task (`entry.task`) was placed at.
    np: usize,
    entry: ScheduledTask,
    /// End of this step's blockers in [`PlacementLog::blockers`].
    blockers_end: usize,
}

/// The placements of a LoCBS pass in the order the pass made them: each
/// position's task, width and placement, and the tasks it took
/// pseudo-edges from.
///
/// [`Locbs::run_into_resumed`] reads a log as its resume source and
/// writes its own placements back into it. A placement depends only on
/// the graph, the model, the task's own width and what the positions
/// before it built, and the pick order depends only on the priorities,
/// so a log left by any pass of the same [`Locbs`] over the same data
/// graph is a valid source, whatever its allocation. A log of another
/// graph or another model is not.
#[derive(Debug, Default)]
pub struct PlacementLog {
    steps: Vec<LoggedStep>,
    /// The blocker of every pseudo-edge, in insertion order; step `k`
    /// added those from the end of step `k - 1` to its own `blockers_end`.
    blockers: Vec<TaskId>,
}

impl PlacementLog {
    /// An empty log: a pass resumed from it places every task.
    pub fn new() -> Self {
        Self::default()
    }

    /// Where the blockers of step `pos` start (the end of step `pos - 1`).
    fn blockers_start(&self, pos: usize) -> usize {
        pos.checked_sub(1).map_or(0, |k| self.steps[k].blockers_end)
    }

    /// Drops step `pos` and everything after it.
    fn truncate(&mut self, pos: usize) {
        if pos < self.steps.len() {
            let end = self.blockers_start(pos);
            self.steps.truncate(pos);
            self.blockers.truncate(end);
        }
    }
}

/// Reusable working memory for [`Locbs::run_into`].
///
/// Only buffers: every one is cleared and refilled by the pass that uses
/// it, so no value carries from one call to the next and one scratch may
/// serve any sequence of graphs, allocations and models. LoC-MPS reuses
/// one scratch for every probe and look-ahead pass of a search, which
/// saves the allocations. (A [`PlacementLog`] is not part of the scratch:
/// it is the caller's, passed to [`Locbs::run_into_resumed`].)
///
/// A pass fills them in this order: the validating sort (`order`, with
/// `unplaced_preds` as its working memory), `et(t, np(t))` once per task
/// (`et`), the priority inputs (`edge_est`, a bottom-level sweep into
/// `bottom`, then `priority`), and then the placement loop
/// (`unplaced_preds`, `ready`, `placed`, the chart and the per-candidate
/// buffers of `place`).
///
/// The sets `place` keeps per call, the best placement's processors and
/// the selection its transfer memo was priced for, are [`ProcSet`]s,
/// which hold up to 128 processors inline; on such clusters a warm
/// scratch lets a pass place every task without allocating.
#[derive(Debug, Default)]
pub struct LocbsScratch {
    order: Vec<TaskId>,
    unplaced_preds: Vec<usize>,
    et: Vec<f64>,
    edge_est: Vec<f64>,
    bottom: Vec<f64>,
    priority: Vec<f64>,
    ready: Vec<TaskId>,
    placed: Vec<Option<ScheduledTask>>,
    scores: Vec<f64>,
    sel_procs: Vec<ProcId>,
    free: ProcSet,
    sel: ProcSet,
    nb_times: Vec<(f64, f64)>,
    timeline: Timeline,
}

impl LocbsScratch {
    /// Fresh, empty working memory.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<'a> Locbs<'a> {
    /// Creates a scheduler over the given communication model.
    pub fn new(model: CommModel<'a>, opts: LocbsOptions) -> Self {
        Self { model, opts }
    }

    /// Runs Algorithm 2.
    ///
    /// # Errors
    /// Fails when the graph is invalid, the allocation vector does not
    /// cover the graph, some `np(t)` exceeds the cluster size, or some
    /// task's execution time is non-finite at its allocated width.
    pub fn run(&self, g: &TaskGraph, alloc: &Allocation) -> Result<LocbsResult, SchedError> {
        let mut dag = g.clone();
        let mut scratch = LocbsScratch::new();
        let (schedule, makespan) = self.run_into(&mut dag, alloc, &mut scratch)?;
        Ok(LocbsResult {
            schedule,
            schedule_dag: dag,
            makespan,
        })
    }

    /// In-place form of [`Locbs::run`] for callers that invoke LoCBS
    /// repeatedly on the same graph (the LoC-MPS refinement loop).
    ///
    /// `dag` is the task graph, possibly still carrying pseudo-edges from a
    /// previous run — they are stripped on entry and this run's pseudo-edges
    /// are recorded in their place, so on success `dag` *is* the
    /// schedule-DAG `G'` (no per-iteration graph clone). `scratch` lends
    /// its buffers; see [`LocbsScratch`].
    pub fn run_into(
        &self,
        dag: &mut TaskGraph,
        alloc: &Allocation,
        scratch: &mut LocbsScratch,
    ) -> Result<(Schedule, f64), SchedError> {
        Ok(self.pass(dag, alloc, scratch, None)?.0)
    }

    /// [`Locbs::run_into`] resumed from `log`, the placement log of an
    /// earlier pass of this scheduler over the same data graph (see
    /// [`PlacementLog`]). Also returns how many placements were copied
    /// from the log.
    ///
    /// While the task the pass picks and that task's width match the
    /// log's step at the same position, the logged placement and its
    /// pseudo-edges are copied instead of placed; the chart is still
    /// booked on every copied step. From the first mismatch on, the pass
    /// places as [`Locbs::run_into`] does and logs what it places. The
    /// schedule, the makespan and the schedule-DAG (pseudo-edge order
    /// included) are bit-identical to the unresumed pass, and the pass
    /// leaves its own log behind.
    ///
    /// # Errors
    /// Exactly those of [`Locbs::run_into`]; they leave `log` untouched.
    pub fn run_into_resumed(
        &self,
        dag: &mut TaskGraph,
        alloc: &Allocation,
        scratch: &mut LocbsScratch,
        log: &mut PlacementLog,
    ) -> Result<((Schedule, f64), u64), SchedError> {
        self.pass(dag, alloc, scratch, Some(log))
    }

    /// The pass behind [`Locbs::run_into`] and [`Locbs::run_into_resumed`];
    /// without a log it neither copies nor records placements.
    fn pass(
        &self,
        dag: &mut TaskGraph,
        alloc: &Allocation,
        scratch: &mut LocbsScratch,
        mut log: Option<&mut PlacementLog>,
    ) -> Result<((Schedule, f64), u64), SchedError> {
        dag.clear_pseudo_edges();
        crate::invariant!(
            dag.edges()
                .all(|(_, e)| e.kind == locmps_taskgraph::EdgeKind::Data),
            "schedule-DAG buffer must enter the placement loop pseudo-free"
        );
        // The validating sort; its order also feeds the bottom-level sweep.
        dag.topo_order_into(&mut scratch.order, &mut scratch.unplaced_preds)
            .map_err(SchedError::Graph)?;
        let p_total = self.model.cluster().n_procs;
        if alloc.len() != dag.n_tasks() {
            return Err(SchedError::AllocationMismatch {
                expected: dag.n_tasks(),
                got: alloc.len(),
            });
        }
        scratch.et.clear();
        for t in dag.task_ids() {
            if alloc.np(t) > p_total {
                return Err(SchedError::AllocationTooWide {
                    task: t,
                    np: alloc.np(t),
                    p: p_total,
                });
            }
            let et = dag.task(t).profile.time(alloc.np(t));
            if !et.is_finite() {
                return Err(SchedError::NonFiniteTime {
                    task: t,
                    np: alloc.np(t),
                });
            }
            scratch.et.push(et);
        }
        let et = &scratch.et;

        // Static priorities: bottom level + heaviest in-edge estimate
        // (Algorithm 2, step 4).
        scratch.edge_est.clear();
        scratch.edge_est.extend(
            dag.edge_ids()
                .map(|e| self.model.edge_estimate(dag, alloc, e)),
        );
        dag.bottom_levels_along(
            &scratch.order,
            |t| et[t.index()],
            |e| scratch.edge_est[e.index()],
            &mut scratch.bottom,
        );
        scratch.priority.clear();
        for t in dag.task_ids() {
            let heaviest_in = dag
                .in_edges(t)
                .map(|e| scratch.edge_est[e.index()])
                .fold(0.0f64, f64::max);
            scratch
                .priority
                .push(scratch.bottom[t.index()] + heaviest_in);
        }
        crate::invariant!(
            scratch.priority.len() == dag.n_tasks() && scratch.edge_est.len() == dag.n_edges(),
            "scratch priority/estimate buffers must cover the whole graph"
        );

        // The chart and the placements are moved out of the scratch for
        // the pass, so `place` can borrow them and the scratch together;
        // the end of the pass puts them back.
        let mut timeline = std::mem::take(&mut scratch.timeline);
        timeline.reset(p_total);
        let mut placed = std::mem::take(&mut scratch.placed);
        placed.clear();
        placed.resize(dag.n_tasks(), None);
        scratch.unplaced_preds.clear();
        scratch
            .unplaced_preds
            .extend(dag.task_ids().map(|t| dag.in_degree(t)));
        scratch.ready.clear();
        scratch.ready.extend(
            dag.task_ids()
                .filter(|t| scratch.unplaced_preds[t.index()] == 0),
        );

        // `pos` counts the steps taken; while `resuming`, every one of
        // them matched the log's step at the same position.
        let mut pos = 0usize;
        let mut replayed = 0u64;
        let mut resuming = log.is_some();
        while let Some(i) = pick_highest_priority(&scratch.ready, &scratch.priority) {
            let t = scratch.ready.swap_remove(i);
            let np = alloc.np(t);
            if let Some(log) = log.as_deref_mut().filter(|_| resuming) {
                let step = log.steps.get(pos);
                resuming = step.is_some_and(|s| s.entry.task == t && s.np == np);
                if !resuming {
                    log.truncate(pos);
                }
            }
            // A copied step takes the logged pseudo-edges; a placed one
            // keeps its data-ready time for the blocker test below.
            let (entry, est) = match log.as_deref().filter(|_| resuming) {
                Some(log) => {
                    let step = &log.steps[pos];
                    for &other in &log.blockers[log.blockers_start(pos)..step.blockers_end] {
                        dag.add_pseudo_edge(other, t)
                            .expect("pseudo edge endpoints exist");
                    }
                    replayed += 1;
                    (step.entry.clone(), None)
                }
                None => {
                    let p = self.place(dag, alloc, t, &placed, &timeline, scratch);
                    let entry = ScheduledTask {
                        task: t,
                        procs: p.procs,
                        start: p.start,
                        compute_start: p.compute_start,
                        finish: p.finish,
                    };
                    (entry, Some(p.ready))
                }
            };
            timeline.occupy(&entry.procs, entry.start, entry.finish);

            // Pseudo-edges: the task is resource-blocked when it occupies
            // its processors later than its earliest start time (est), the
            // data-ready time of the chosen subset. The tolerances are
            // bounded by half the intervals involved so a large makespan
            // cannot inflate them past real task durations (a blocker must
            // *end where the blocked task starts*, not merely within a
            // relative-eps band of it).
            if let Some(est) = est {
                let plen = entry.finish - entry.start;
                if entry.start > est + time_eps(entry.start).min(0.5 * plen) {
                    for o in placed.iter().flatten() {
                        let eps = time_eps(entry.start)
                            .min(0.5 * plen)
                            .min(0.5 * (o.finish - o.start));
                        if (o.finish - entry.start).abs() <= eps
                            && !o.procs.is_disjoint(&entry.procs)
                        {
                            dag.add_pseudo_edge(o.task, t)
                                .expect("pseudo edge endpoints exist");
                            if let Some(log) = log.as_deref_mut() {
                                log.blockers.push(o.task);
                            }
                        }
                    }
                }
                if let Some(log) = log.as_deref_mut() {
                    crate::invariant!(
                        log.steps.len() == pos,
                        "a placed step is logged at its own position"
                    );
                    log.steps.push(LoggedStep {
                        np,
                        entry: entry.clone(),
                        blockers_end: log.blockers.len(),
                    });
                }
            }
            pos += 1;

            placed[t.index()] = Some(entry);
            for s in dag.successors(t) {
                scratch.unplaced_preds[s.index()] -= 1;
                if scratch.unplaced_preds[s.index()] == 0 {
                    scratch.ready.push(s);
                }
            }
        }

        let entries: Vec<ScheduledTask> = placed
            .iter_mut()
            .map(|e| e.take().expect("DAG guarantees all tasks schedule"))
            .collect();
        let schedule = Schedule::from_entries(entries);
        let makespan = schedule.makespan();
        debug_assert!(dag.validate().is_ok(), "pseudo edges must keep G' acyclic");
        scratch.timeline = timeline;
        scratch.placed = placed;
        Ok(((schedule, makespan), replayed))
    }

    /// Finds the minimum-finish-time placement for `t` (Algorithm 2, steps
    /// 5–16), backfilling over holes or, in the no-backfill variant, after
    /// the last free times only.
    ///
    /// Candidate starts stream from the timeline's event-list cursor with
    /// the current best finish as the horizon, so candidates that cannot
    /// improve the placement are never enumerated, and every per-candidate
    /// buffer (free set, score vector, selection) lives in `scratch`.
    fn place(
        &self,
        g: &TaskGraph,
        alloc: &Allocation,
        t: TaskId,
        placed: &[Option<ScheduledTask>],
        timeline: &Timeline,
        scratch: &mut LocbsScratch,
    ) -> Placement {
        let np = alloc.np(t);
        let et = scratch.et[t.index()];
        let p_total = self.model.cluster().n_procs;
        let data_ready = g
            .in_edges(t)
            .map(|e| {
                placed[g.edge(e).src.index()]
                    .as_ref()
                    .expect("parents first")
                    .finish
            })
            .fold(0.0f64, f64::max);
        input_locality_scores_into(
            g,
            t,
            p_total,
            |p| &placed[p.index()].as_ref().expect("parents first").procs,
            &mut scratch.scores,
        );

        let mut cursor = timeline.candidates_after(data_ready, et);
        let mut nb_idx = 0usize;
        if !self.opts.backfill {
            // No-backfill: the only start considered is after the last free
            // time of the selected processors; seed with the global horizon
            // candidates computed from last-free-times.
            timeline.last_end_candidates_into(data_ready, et, &mut scratch.nb_times);
        }

        let full_overlap = self.model.cluster().overlap == CommOverlap::Full;
        let mut best: Option<Placement> = None;
        // The transfer costs below depend only on the *selected subset*
        // (parent placements are fixed), and consecutive candidates often
        // select the same processors — a one-entry memo skips the exact
        // block-cyclic walks entirely on those repeats.
        let mut memo_sel = ProcSet::new();
        let mut memo_cost = f64::NAN;
        loop {
            // No later hole can finish earlier than the current best.
            let horizon = best.as_ref().map_or(f64::INFINITY, |b| b.finish);
            let s = if self.opts.backfill {
                match cursor.next_below(horizon) {
                    Some(s) => s,
                    None => break,
                }
            } else {
                match scratch.nb_times.get(nb_idx).map(|&(s, _)| s) {
                    Some(s) if s < horizon => {
                        nb_idx += 1;
                        s
                    }
                    _ => break,
                }
            };
            if self.opts.backfill {
                timeline.free_set_into(s, s + et, &mut scratch.free);
            } else {
                // Only processors whose last booking has ended are eligible
                // — holes are invisible to this variant.
                scratch.free.clear();
                for p in 0..p_total as u32 {
                    if timeline.idle_from(p, s, et) {
                        scratch.free.insert(p);
                    }
                }
            }
            if scratch.free.len() < np {
                continue;
            }
            if !select_max_locality_into(
                &scratch.free,
                np,
                &scratch.scores,
                &mut scratch.sel_procs,
                &mut scratch.sel,
            ) {
                continue;
            }
            crate::invariant!(
                scratch.sel.len() == np,
                "locality selection must return exactly np processors"
            );
            let procs = &scratch.sel;

            // Under full overlap: the redistribution completion time on
            // this subset. Under no overlap: the inbound transfer total,
            // serialized inside the occupancy window (single-port at the
            // receiver).
            let comm = if memo_cost.is_finite() && memo_sel == *procs {
                memo_cost
            } else {
                let (mut rct, mut total) = (data_ready, 0.0);
                for e in g.in_edges(t) {
                    let edge = g.edge(e);
                    let src = placed[edge.src.index()].as_ref().expect("parents first");
                    let ct = self.model.transfer_time(&src.procs, procs, edge.volume);
                    rct = rct.max(src.finish + ct);
                    total += ct;
                }
                memo_sel.clone_from(procs);
                memo_cost = if full_overlap { rct } else { total };
                memo_cost
            };
            let (start, compute_start, finish, ready) = if full_overlap {
                let st = s.max(comm);
                (st, st, st + et, comm)
            } else {
                let st = s.max(data_ready);
                (st, st + comm, st + comm + et, data_ready)
            };

            // The window guess was [s, s+et); the real occupancy may have
            // shifted or grown — verify it on the actual interval.
            let feasible = if self.opts.backfill {
                timeline.is_set_free(procs, start, finish)
            } else {
                procs
                    .iter()
                    .all(|p| timeline.idle_from(p, start, finish - start))
            };
            if !feasible {
                continue;
            }
            let better = match &best {
                None => true,
                Some(b) => {
                    finish < b.finish - time_eps(finish)
                        || ((finish - b.finish).abs() <= time_eps(finish) && start < b.start)
                }
            };
            if better {
                match &mut best {
                    Some(b) => {
                        b.start = start;
                        b.compute_start = compute_start;
                        b.finish = finish;
                        b.ready = ready;
                        b.procs.clone_from(procs);
                    }
                    None => {
                        best = Some(Placement {
                            start,
                            compute_start,
                            finish,
                            ready,
                            procs: procs.clone(),
                        })
                    }
                }
            }
        }
        best.expect("the all-free horizon candidate always fits")
    }
}

/// Index of the highest-priority ready task (ties toward lower task id).
///
/// `total_cmp` keeps the comparison a total order: run-time inputs cannot
/// produce NaN priorities (non-finite execution times are rejected at
/// validation), but a comparison that *could* panic has no place in the
/// innermost scheduler loop.
fn pick_highest_priority(ready: &[TaskId], priority: &[f64]) -> Option<usize> {
    ready
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| {
            priority[a.index()]
                .total_cmp(&priority[b.index()])
                .then(b.cmp(a)) // lower id wins ties
        })
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmps_platform::Cluster;
    use locmps_speedup::{ExecutionProfile, ProfiledSpeedup, SpeedupModel};
    use locmps_taskgraph::EdgeKind;

    fn profiled(times: &[f64]) -> ExecutionProfile {
        ExecutionProfile::new(
            times[0],
            SpeedupModel::Table(ProfiledSpeedup::from_times(times).unwrap()),
        )
        .unwrap()
    }

    /// Figure 1: T1 -> {T2, T3} -> T4 on 4 processors with the allocation
    /// of Fig 1(b); T2 and T3 get serialized, yielding makespan 30 and a
    /// pseudo-edge between them.
    #[test]
    fn fig1_pseudo_edges_and_makespan() {
        let mut g = TaskGraph::new();
        // et on the allocated counts: T1: 10 on 4, T2: 7 on 3, T3: 5 on 2,
        // T4: 8 on 4. Fill profiles so time(np) matches.
        let t1 = g.add_task("T1", profiled(&[40.0, 20.0, 13.3, 10.0]));
        let t2 = g.add_task("T2", profiled(&[21.0, 10.5, 7.0]));
        let t3 = g.add_task("T3", profiled(&[10.0, 5.0]));
        let t4 = g.add_task("T4", profiled(&[32.0, 16.0, 10.7, 8.0]));
        g.add_edge(t1, t2, 0.0).unwrap();
        g.add_edge(t1, t3, 0.0).unwrap();
        g.add_edge(t2, t4, 0.0).unwrap();
        g.add_edge(t3, t4, 0.0).unwrap();
        let cluster = Cluster::new(4, 12.5);
        let model = CommModel::new(&cluster);
        let locbs = Locbs::new(model, LocbsOptions::default());
        let alloc = Allocation::from_vec(vec![4, 3, 2, 4]);
        let res = locbs.run(&g, &alloc).unwrap();
        assert!(
            (res.makespan - 30.0).abs() < 1e-9,
            "paper reports 30, got {}",
            res.makespan
        );
        // T2 (3 procs) and T3 (2 procs) cannot coexist on 4 processors:
        // exactly one pseudo-edge between them must appear in G'.
        let pseudo: Vec<_> = res
            .schedule_dag
            .edges()
            .filter(|(_, e)| e.kind == EdgeKind::Pseudo)
            .map(|(_, e)| (e.src, e.dst))
            .collect();
        assert_eq!(pseudo, vec![(t2, t3)]);
        res.schedule.validate(&g, &model).unwrap();
    }

    #[test]
    fn independent_tasks_run_concurrently() {
        let mut g = TaskGraph::new();
        g.add_task("a", ExecutionProfile::linear(10.0));
        g.add_task("b", ExecutionProfile::linear(10.0));
        let cluster = Cluster::new(2, 12.5);
        let model = CommModel::new(&cluster);
        let res = Locbs::new(model, LocbsOptions::default())
            .run(&g, &Allocation::ones(2))
            .unwrap();
        assert!((res.makespan - 10.0).abs() < 1e-9);
        res.schedule.validate(&g, &model).unwrap();
    }

    #[test]
    fn backfill_uses_holes_that_no_backfill_wastes() {
        // Wide task W (2 procs) forced to wait for chain head H; a small
        // independent task S fits in the hole next to H under backfill.
        //   H(1p, 10s) -> W(2p, 10s);  S(1p, 8s) independent.
        let mut g = TaskGraph::new();
        let h = g.add_task("H", ExecutionProfile::linear(10.0));
        let w = g.add_task("W", profiled(&[20.0, 10.0]));
        let s = g.add_task("S", ExecutionProfile::linear(8.0));
        g.add_edge(h, w, 0.0).unwrap();
        let _ = s;
        let cluster = Cluster::new(2, 12.5);
        let model = CommModel::new(&cluster);
        let alloc = Allocation::from_vec(vec![1, 2, 1]);
        let with = Locbs::new(model, LocbsOptions { backfill: true })
            .run(&g, &alloc)
            .unwrap();
        let without = Locbs::new(model, LocbsOptions { backfill: false })
            .run(&g, &alloc)
            .unwrap();
        // Backfill: S runs beside H during [0,8); W at [10,20): makespan 20.
        assert!((with.makespan - 20.0).abs() < 1e-9, "got {}", with.makespan);
        // Priorities put H (bottom level 20) first, then W, then S; the
        // no-backfill variant can only append S after W: makespan 28.
        assert!(without.makespan >= 27.9, "got {}", without.makespan);
        with.schedule.validate(&g, &model).unwrap();
        without.schedule.validate(&g, &model).unwrap();
    }

    #[test]
    fn locality_pulls_consumer_onto_producer_procs() {
        // a on some proc produces 100 MB for b; placing b on a's processor
        // avoids the transfer entirely.
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(10.0));
        let b = g.add_task("b", ExecutionProfile::linear(10.0));
        let c = g.add_task("c", ExecutionProfile::linear(10.0));
        g.add_edge(a, b, 100.0).unwrap();
        let _ = c;
        let cluster = Cluster::new(2, 12.5);
        let model = CommModel::new(&cluster);
        let res = Locbs::new(model, LocbsOptions::default())
            .run(&g, &Allocation::ones(3))
            .unwrap();
        let pa = &res.schedule.get(a).unwrap().procs;
        let pb = &res.schedule.get(b).unwrap().procs;
        assert_eq!(pa, pb, "consumer should follow its data");
        assert!((res.makespan - 20.0).abs() < 1e-9);
        res.schedule.validate(&g, &model).unwrap();
    }

    #[test]
    fn no_overlap_reserves_comm_window() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(10.0));
        let b = g.add_task("b", ExecutionProfile::linear(10.0));
        // Force a transfer by occupying a's processor with a filler chain so
        // locality can't collapse them... simpler: two procs, volume large,
        // but locality makes b land on a's proc and transfer vanishes. To
        // exercise the window we pin np(b)=2 so b must span both procs.
        g.add_edge(a, b, 125.0).unwrap();
        let cluster = Cluster::new(2, 12.5).without_overlap();
        let model = CommModel::new(&cluster);
        let res = Locbs::new(model, LocbsOptions::default())
            .run(&g, &Allocation::from_vec(vec![1, 2]))
            .unwrap();
        let eb = res.schedule.get(b).unwrap();
        assert!(eb.compute_start > eb.start, "comm window must be reserved");
        res.schedule.validate(&g, &model).unwrap();
    }

    #[test]
    fn priority_includes_heaviest_in_edge() {
        // Two consumers with identical bottom levels; y's inbound transfer
        // is far heavier, so Algorithm 2's priority (bottomL + heaviest
        // in-edge) must serve y first — it lands on the single free
        // processor at its data-ready time, x queues behind it.
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(10.0));
        let x = g.add_task("x", ExecutionProfile::linear(10.0));
        let y = g.add_task("y", ExecutionProfile::linear(10.0));
        g.add_edge(a, x, 1.0).unwrap();
        g.add_edge(a, y, 500.0).unwrap();
        let cluster = Cluster::new(1, 12.5);
        let model = CommModel::new(&cluster);
        let res = Locbs::new(model, LocbsOptions::default())
            .run(&g, &Allocation::ones(3))
            .unwrap();
        let sx = res.schedule.get(x).unwrap().compute_start;
        let sy = res.schedule.get(y).unwrap().compute_start;
        assert!(
            sy < sx,
            "heavy-in-edge task must be prioritized: y at {sy}, x at {sx}"
        );
        res.schedule.validate(&g, &model).unwrap();
    }

    #[test]
    fn multiple_blockers_all_get_pseudo_edges() {
        // Two independent 1-proc tasks finish simultaneously and jointly
        // release the 2 processors a waiting wide task needs: both must be
        // recorded as pseudo-predecessors in G'.
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(10.0));
        let b = g.add_task("b", ExecutionProfile::linear(10.0));
        let w = g.add_task("w", profiled(&[20.0, 10.0]));
        let _ = (a, b);
        let cluster = Cluster::new(2, 12.5);
        let model = CommModel::new(&cluster);
        let res = Locbs::new(model, LocbsOptions::default())
            .run(&g, &Allocation::from_vec(vec![1, 1, 2]))
            .unwrap();
        let pseudo: Vec<_> = res
            .schedule_dag
            .edges()
            .filter(|(_, e)| e.kind == EdgeKind::Pseudo)
            .map(|(_, e)| (e.src, e.dst))
            .collect();
        assert_eq!(pseudo.len(), 2, "both finishers block w: {pseudo:?}");
        assert!(pseudo.iter().all(|&(_, dst)| dst == w));
        assert!((res.makespan - 20.0).abs() < 1e-9);
    }

    /// Figure 1 with every time scaled by 1e8: the pseudo-edge blocker test
    /// compares `o.finish` to the placement start under a tolerance bounded
    /// by the interval lengths, so makespans in the 1e9 range must produce
    /// exactly the same serialization (a purely relative eps would be ~1e3
    /// here — wide enough to misattribute blockers).
    #[test]
    fn fig1_pseudo_edges_survive_large_time_scales() {
        const S: f64 = 1.0e8;
        let mut g = TaskGraph::new();
        let t1 = g.add_task("T1", profiled(&[40.0 * S, 20.0 * S, 13.3 * S, 10.0 * S]));
        let t2 = g.add_task("T2", profiled(&[21.0 * S, 10.5 * S, 7.0 * S]));
        let t3 = g.add_task("T3", profiled(&[10.0 * S, 5.0 * S]));
        let t4 = g.add_task("T4", profiled(&[32.0 * S, 16.0 * S, 10.7 * S, 8.0 * S]));
        g.add_edge(t1, t2, 0.0).unwrap();
        g.add_edge(t1, t3, 0.0).unwrap();
        g.add_edge(t2, t4, 0.0).unwrap();
        g.add_edge(t3, t4, 0.0).unwrap();
        let cluster = Cluster::new(4, 12.5);
        let model = CommModel::new(&cluster);
        let locbs = Locbs::new(model, LocbsOptions::default());
        let res = locbs
            .run(&g, &Allocation::from_vec(vec![4, 3, 2, 4]))
            .unwrap();
        assert!(
            (res.makespan - 30.0 * S).abs() < 1.0,
            "got {}",
            res.makespan
        );
        let pseudo: Vec<_> = res
            .schedule_dag
            .edges()
            .filter(|(_, e)| e.kind == EdgeKind::Pseudo)
            .map(|(_, e)| (e.src, e.dst))
            .collect();
        assert_eq!(pseudo, vec![(t2, t3)]);
        res.schedule.validate(&g, &model).unwrap();
    }

    /// The multiple-blockers case at a 1e8 time scale: both simultaneous
    /// finishers must still be detected as pseudo-predecessors.
    #[test]
    fn multiple_blockers_survive_large_time_scales() {
        const S: f64 = 1.0e8;
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(10.0 * S));
        let b = g.add_task("b", ExecutionProfile::linear(10.0 * S));
        let w = g.add_task("w", profiled(&[20.0 * S, 10.0 * S]));
        let _ = (a, b);
        let cluster = Cluster::new(2, 12.5);
        let model = CommModel::new(&cluster);
        let res = Locbs::new(model, LocbsOptions::default())
            .run(&g, &Allocation::from_vec(vec![1, 1, 2]))
            .unwrap();
        let pseudo: Vec<_> = res
            .schedule_dag
            .edges()
            .filter(|(_, e)| e.kind == EdgeKind::Pseudo)
            .map(|(_, e)| (e.src, e.dst))
            .collect();
        assert_eq!(pseudo.len(), 2, "both finishers block w: {pseudo:?}");
        assert!(pseudo.iter().all(|&(_, dst)| dst == w));
        assert!((res.makespan - 20.0 * S).abs() < 1.0);
    }

    #[test]
    fn non_finite_execution_time_is_an_error_not_a_panic() {
        // seq ~1e308 with a large per-processor overhead overflows
        // time(2) to +inf; the scheduler must refuse the input instead of
        // feeding NaN/inf into priorities.
        let m = SpeedupModel::Linear.with_overhead(10.0).unwrap();
        let mut g = TaskGraph::new();
        let t = g.add_task("huge", ExecutionProfile::new(1.0e308, m).unwrap());
        assert!(
            g.task(t).profile.time(2).is_infinite(),
            "premise: time(2) overflows"
        );
        let cluster = Cluster::new(2, 12.5);
        let model = CommModel::new(&cluster);
        let locbs = Locbs::new(model, LocbsOptions::default());
        match locbs.run(&g, &Allocation::from_vec(vec![2])) {
            Err(SchedError::NonFiniteTime { task, np: 2 }) => assert_eq!(task, t),
            other => panic!("expected NonFiniteTime, got {other:?}"),
        }
        // The same profile is fine at np = 1, where nothing overflows.
        assert!(locbs.run(&g, &Allocation::ones(1)).is_ok());
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(1.0));
        let cluster = Cluster::new(2, 12.5);
        let model = CommModel::new(&cluster);
        let locbs = Locbs::new(model, LocbsOptions::default());
        assert!(matches!(
            locbs.run(&g, &Allocation::ones(5)),
            Err(SchedError::AllocationMismatch { .. })
        ));
        assert!(matches!(
            locbs.run(&g, &Allocation::from_vec(vec![3])),
            Err(SchedError::AllocationTooWide { task, np: 3, p: 2 }) if task == a
        ));
    }

    #[test]
    fn run_into_with_reused_scratch_matches_fresh_runs() {
        // One dag + scratch carried across differently-shaped allocations
        // must behave exactly like a fresh `run` every time — including the
        // pseudo-edges left in the dag.
        let mut g = TaskGraph::new();
        let a = g.add_task("a", profiled(&[30.0, 16.0, 9.0, 6.0]));
        let b = g.add_task("b", profiled(&[24.0, 13.0, 8.0, 6.5]));
        let c = g.add_task("c", profiled(&[28.0, 15.0, 9.0, 7.0]));
        let d = g.add_task("d", profiled(&[20.0, 11.0, 7.0, 5.5]));
        g.add_edge(a, b, 300.0).unwrap();
        g.add_edge(a, c, 10.0).unwrap();
        g.add_edge(b, d, 250.0).unwrap();
        g.add_edge(c, d, 10.0).unwrap();
        let cluster = Cluster::new(4, 12.5);
        let model = CommModel::new(&cluster);
        let locbs = Locbs::new(model, LocbsOptions::default());
        let mut dag = g.clone();
        let mut scratch = LocbsScratch::new();
        for alloc in [
            Allocation::ones(4),
            Allocation::from_vec(vec![2, 1, 3, 4]),
            Allocation::from_vec(vec![4, 4, 4, 4]),
            Allocation::from_vec(vec![1, 3, 1, 2]),
        ] {
            let fresh = locbs.run(&g, &alloc).unwrap();
            let (schedule, makespan) = locbs.run_into(&mut dag, &alloc, &mut scratch).unwrap();
            assert_eq!(schedule, fresh.schedule);
            assert_eq!(makespan, fresh.makespan);
            assert_eq!(dag, fresh.schedule_dag);
        }
    }

    #[test]
    fn comm_blind_schedule_ignores_volumes() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(10.0));
        let b = g.add_task("b", ExecutionProfile::linear(10.0));
        g.add_edge(a, b, 10_000.0).unwrap();
        let cluster = Cluster::new(2, 12.5);
        let blind = CommModel::blind(&cluster);
        let res = Locbs::new(blind, LocbsOptions::default())
            .run(&g, &Allocation::ones(2))
            .unwrap();
        assert!(
            (res.makespan - 20.0).abs() < 1e-9,
            "blind model sees no transfer"
        );
    }
}
