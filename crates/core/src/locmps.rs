//! **LoC-MPS** — the iterative allocation-and-scheduling loop (Algorithm 1).
//!
//! Starting from the pure task-parallel allocation, each iteration:
//!
//! 1. computes the critical path of the *schedule-DAG* `G'` (the graph plus
//!    pseudo-edges from the last LoCBS run) under the current allocation;
//! 2. if computation dominates the CP, widens the **best candidate task**:
//!    among the CP tasks still widenable (`np < min(P, Pbest)`), rank by
//!    execution-time gain `et(np) − et(np+1)`, inspect the top fraction,
//!    and take the one with the lowest *concurrency ratio* (§III.C);
//! 3. otherwise widens the narrower endpoint of the **heaviest CP edge**
//!    (both endpoints when tied), raising its aggregate transfer bandwidth
//!    (§III.D);
//! 4. re-schedules with LoCBS and tracks the best makespan seen.
//!
//! A **bounded look-ahead** (default depth 20, §III.E) lets the search walk
//! through temporarily worse schedules; if a look-ahead fails to improve,
//! its entry point is **marked** and skipped by future searches; a success
//! commits the allocation and unmarks everything.
//!
//! At scale the dominant cost is the LoCBS passes run inside look-ahead
//! branches. Lossless accelerations, all switched by
//! [`LocMpsConfig::prune`] (on by default), cut that work while keeping
//! every schedule bit-identical; a pass they do not skip always runs to
//! its last placement:
//!
//! * a corner-restart probe whose allocation's admissible lower bound
//!   ([`allocation_lower_bound`]) cannot beat the incumbent is skipped;
//! * a look-ahead pass whose allocation was already placed is answered
//!   from an allocation-keyed memo;
//! * a look-ahead step at an allocation that an earlier walk already
//!   refined takes the successor that walk recorded in the memo instead
//!   of calling `refine` again;
//! * every pass resumes from the placement log of the pass before it
//!   ([`Locbs::run_into_resumed`]), copying the placements up to the
//!   first position where the picked task or its width differs instead
//!   of placing them again.
//!
//! The graph work around the passes is recomputed only where it can have
//! changed: each `refine` step sorts `G'` into buffers it keeps and reuses
//! an edge's exact transfer price while the edge's groups and volume are
//! those it was priced with.
//!
//! The bookkeeping around the passes copies into buffers the search keeps
//! instead of allocating: a look-ahead walk reads each pass's schedule
//! where the memo keeps it, refills one branch best in place, and holds
//! the branch best's schedule-DAG as its pseudo-edge list; `G'` is rebuilt
//! from that list only when the branch commits, and from a memo entry's
//! list only when a walk must refine an allocation it reached through a
//! memo hit.
//!
//! Deterministic [`SearchCounters`] in the output report the work done and
//! the work skipped; the search is sequential, so they are pure functions
//! of the input and CI pins their exact values.

use std::collections::{HashMap, HashSet};

use locmps_platform::{Cluster, ProcSet};
use locmps_taskgraph::{
    ConcurrencyInfo, CriticalPath, EdgeId, EdgeKind, Levels, TaskGraph, TaskId,
};

use crate::allocation::Allocation;
use crate::bounds::allocation_lower_bound;
use crate::commcost::CommModel;
use crate::locbs::{Locbs, LocbsOptions, LocbsResult, LocbsScratch, PlacementLog};
use crate::schedule::{time_eps, Schedule};
use crate::scheduler::{SchedError, Scheduler, SchedulerOutput, SearchCounters};

/// Fraction of top-gain CP tasks inspected for the concurrency-ratio
/// tie-break (paper: 10 %).
const TOP_FRACTION: f64 = 0.10;

/// Tunables of Algorithm 1. [`Default`] reproduces the paper's settings.
#[derive(Debug, Clone, Copy)]
pub struct LocMpsConfig {
    /// Look-ahead bound (paper: "a bound of 20 iterations was found to
    /// yield good results").
    pub lookahead_depth: usize,
    /// Schedule with full backfilling (`true`, the paper's default) or the
    /// cheaper last-free-time variant (Figure 6's ablation).
    pub backfill: bool,
    /// `false` turns off the communication model entirely — that is the
    /// **iCASLB** baseline \[4\], which this paper extends.
    pub comm_aware: bool,
    /// Hard cap on outer commit/mark rounds (safety net; the algorithm
    /// terminates on its own, this guards against pathological inputs).
    pub max_rounds: usize,
    /// Probe the uniform "data-parallel corner" allocations (`np = P, P/2,
    /// P/4`, clamped per task by `Pbest`) and re-run the search from any
    /// that beats the committed solution. An extension of the paper's
    /// Figure 3 argument: the bounded look-ahead is meant to reach the
    /// data-parallel optimum, but on larger graphs at high CCR the valley
    /// can exceed any fixed depth.
    pub corner_starts: bool,
    /// Skip search work whose outcome is already provable or already
    /// computed: corner probes whose allocation lower bound cannot beat
    /// the incumbent are skipped, look-ahead passes and look-ahead
    /// refinement steps are answered from an allocation-keyed memo, and
    /// every LoCBS pass resumes from the previous pass's placement log
    /// ([`Locbs::run_into_resumed`]); no pass stops before its last
    /// placement. Lossless — the schedule, allocation and schedule-DAG are
    /// bit-identical either way — so this defaults to on; `false` exists
    /// as the reference for the equivalence property tests and for
    /// measuring the win itself.
    pub prune: bool,
}

impl Default for LocMpsConfig {
    fn default() -> Self {
        Self {
            lookahead_depth: 20,
            backfill: true,
            comm_aware: true,
            max_rounds: 10_000,
            corner_starts: true,
            prune: true,
        }
    }
}

impl LocMpsConfig {
    /// The iCASLB baseline configuration: LoC-MPS with the communication
    /// model disabled.
    pub fn icaslb() -> Self {
        Self {
            comm_aware: false,
            ..Self::default()
        }
    }

    /// Greedy configuration (no look-ahead, no corner restarts): only
    /// strictly improving moves are kept — used to demonstrate the
    /// Figure 3 local-minimum trap.
    pub fn greedy() -> Self {
        Self {
            lookahead_depth: 1,
            corner_starts: false,
            ..Self::default()
        }
    }

    /// No-backfill ablation (Figure 6).
    pub fn no_backfill() -> Self {
        Self {
            backfill: false,
            ..Self::default()
        }
    }

    /// The exhaustive reference: no corner bound, no memo of passes or
    /// walk steps, no prefix replay. Produces bit-identical schedules to
    /// [`Default`] while running every LoCBS pass, placing every task of
    /// it from scratch and refining at every walk step — the baseline the
    /// equivalence property tests and the `BENCH_locmps` report compare
    /// against.
    pub fn exhaustive() -> Self {
        Self {
            prune: false,
            ..Self::default()
        }
    }
}

/// A refinement move: the task it widens, or the edge whose endpoints it
/// widens. A round marks the move its failed look-ahead started from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Entry {
    Task(TaskId),
    Edge(EdgeId),
}

/// One memoized LoCBS pass: everything a look-ahead step consumes. Walks
/// read the schedule and the pseudo-edges here in place; a hit copies
/// neither.
struct MemoEntry {
    schedule: Schedule,
    /// The pseudo-edges the pass added, in insertion order, so a walk can
    /// rebuild the exact schedule-DAG the pass left behind.
    pseudo: Vec<(TaskId, TaskId)>,
    makespan: f64,
    /// `None` until a walk refines this allocation, then what
    /// `refine(.., None)` returned: the move it made, or `None` when
    /// nothing was left to refine.
    next: Option<Option<Entry>>,
}

/// Allocation-keyed memo of look-ahead passes and of the walk steps taken
/// from them.
///
/// [`Locbs::run_into`] strips all pseudo-edges on entry, so a pass is a
/// pure function of the data graph and the allocation — two branches that
/// reach the same allocation get the same schedule, the same makespan and
/// the same pseudo-edges. Failed look-ahead rounds re-walk the search
/// space from one incumbent with different entry points, and those walks
/// merge onto shared allocation trajectories after a step or two, so most
/// of their passes are replays.
///
/// A walk's `refine(.., None)` reads only the allocation, that pass's
/// schedule and `G'`, and exact transfer prices, so its move is a pure
/// function of the allocation as well: an entry records it the first time
/// a walk refines the allocation, and every later walk through the entry
/// follows it instead of refining again.
///
/// Because hits are exact, entries never expire: commits move the
/// incumbent but the winning branch's tail states — and the restarts from
/// other corners — revisit earlier allocations constantly, so the memo is
/// kept for the whole search. Its footprint is bounded by the number of
/// distinct allocations placed, i.e. by the executed-pass counter the memo
/// itself keeps small.
#[derive(Default)]
struct PassMemo {
    /// The index in `entries` of each placed allocation.
    index: HashMap<Vec<usize>, usize>,
    entries: Vec<MemoEntry>,
}

/// Where a look-ahead walk's latest pass is kept.
#[derive(Clone, Copy)]
enum Kept {
    /// In `SearchState::schedule`, with its `G'` in `SearchState::dag`:
    /// the walk without a memo.
    Own,
    /// In the memo entry at index `at`. `SearchState::dag` holds its `G'`
    /// only when `placed`: the pass ran instead of being a memo hit.
    Memo { at: usize, placed: bool },
}

/// The immutable per-run context threaded through the search: the problem,
/// the placer and the precomputed metadata.
struct SearchCtx<'a> {
    g: &'a TaskGraph,
    locbs: &'a Locbs<'a>,
    conc: &'a ConcurrencyInfo,
    pbest: &'a [usize],
    model: &'a CommModel<'a>,
    p_total: usize,
}

/// The mutable state of one search, owned by one [`Scheduler::schedule`]
/// call: the work tally, the pass memo, the placement log, the refine
/// weight tables and transfer prices, the schedule-DAG buffer and LoCBS
/// scratch that every probe and look-ahead pass re-schedules into, and
/// the look-ahead walk's schedule and branch best.
///
/// After warm-up a look-ahead step allocates only what a memo insert
/// keeps: the pass's schedule (moved in), the allocation key and the
/// pseudo-edge list. A memo hit copies nothing; a new branch best is
/// copied into `branch` through allocation-reusing `clone_from`.
#[derive(Default)]
struct SearchState {
    counters: SearchCounters,
    /// `Some` exactly when [`LocMpsConfig::prune`] is on.
    memo: Option<PassMemo>,
    /// The placement log every pass resumes from and rewrites;
    /// `Some` exactly when [`LocMpsConfig::prune`] is on.
    log: Option<PlacementLog>,
    weights: Weights,
    /// `G'` of the latest pass, or of the memo entry last replayed into it.
    dag: TaskGraph,
    scratch: LocbsScratch,
    /// The schedule of the walk's latest pass when there is no memo to
    /// keep it.
    schedule: Schedule,
    branch: BranchBest,
}

impl SearchState {
    /// Makes the walk's latest pass, at `alloc` with `makespan` and kept
    /// where `kept` says, its branch best.
    fn keep_branch_best(&mut self, alloc: &Allocation, makespan: f64, kept: Kept) {
        let b = &mut self.branch;
        b.alloc.clone_from(alloc);
        match (kept, &self.memo) {
            (Kept::Memo { at, .. }, Some(memo)) => {
                let entry = &memo.entries[at];
                b.schedule.clone_from(&entry.schedule);
                b.pseudo.clone_from(&entry.pseudo);
            }
            _ => {
                b.schedule.clone_from(&self.schedule);
                b.pseudo.clear();
                b.pseudo.extend(pseudo_edges(&self.dag));
            }
        }
        b.makespan = makespan;
    }
}

/// The best pass of one look-ahead walk: its allocation, schedule and
/// makespan, and its schedule-DAG as the pseudo-edges the pass added, in
/// insertion order. [`LocMps::search`] rebuilds `G'` from them only when
/// the branch commits, through [`replay_pseudo_edges`].
#[derive(Default)]
struct BranchBest {
    alloc: Allocation,
    schedule: Schedule,
    pseudo: Vec<(TaskId, TaskId)>,
    makespan: f64,
}

/// `dag`'s pseudo-edges in insertion order.
fn pseudo_edges(dag: &TaskGraph) -> impl Iterator<Item = (TaskId, TaskId)> + '_ {
    dag.edges()
        .filter(|(_, e)| e.kind == EdgeKind::Pseudo)
        .map(|(_, e)| (e.src, e.dst))
}

/// Makes `dag` its data graph plus `pseudo`, added in order: the
/// schedule-DAG, pseudo-edge order included, of the pass that added them.
fn replay_pseudo_edges(dag: &mut TaskGraph, pseudo: &[(TaskId, TaskId)]) -> Result<(), SchedError> {
    dag.clear_pseudo_edges();
    for &(src, dst) in pseudo {
        dag.add_pseudo_edge(src, dst).map_err(SchedError::Graph)?;
    }
    Ok(())
}

/// One [`LocMps::refine`] step's weights and the buffers of its critical
/// path: `et(np)` per task, the transfer time per edge of `G'`, the
/// topological order of `G'` with the sort's working memory, the levels
/// swept along it, the critical path and its widenable tasks. The step
/// refills all of them. `prices` and `reused` are the exception: they
/// carry across the steps of one search.
#[derive(Default)]
struct Weights {
    node: Vec<f64>,
    edge: Vec<f64>,
    order: Vec<TaskId>,
    in_deg: Vec<usize>,
    levels: Levels,
    cp: CriticalPath,
    /// The candidate tasks of [`LocMps::best_candidate_task`] with their
    /// gains.
    cands: Vec<(TaskId, f64)>,
    /// Per edge id of `G'`, the last exact transfer price and what it was
    /// computed from.
    prices: Vec<Price>,
    /// Prices taken from `prices` instead of the transfer kernel.
    reused: u64,
}

/// An edge's last exact transfer price, with the kernel's inputs: the
/// source and destination groups and the volume.
#[derive(Default)]
struct Price {
    src: ProcSet,
    dst: ProcSet,
    volume: f64,
    time: f64,
}

impl Price {
    /// `model.transfer_time(src, dst, volume)`, from the kernel only when
    /// an input differs from this entry's (then recorded here); a reused
    /// price counts in `reused`. Transfers the kernel answers before any
    /// group work (no volume, or a communication-blind model) are neither
    /// recorded nor counted. A fresh entry has volume 0, so it never
    /// matches.
    fn get(
        &mut self,
        model: &CommModel<'_>,
        src: &ProcSet,
        dst: &ProcSet,
        volume: f64,
        reused: &mut u64,
    ) -> f64 {
        if volume <= 0.0 || !model.is_comm_aware() {
            return model.transfer_time(src, dst, volume);
        }
        if self.volume.to_bits() == volume.to_bits() && self.src == *src && self.dst == *dst {
            *reused += 1;
            return self.time;
        }
        self.time = model.transfer_time(src, dst, volume);
        self.src.clone_from(src);
        self.dst.clone_from(dst);
        self.volume = volume;
        self.time
    }
}

/// The LoC-MPS scheduler.
#[derive(Debug, Clone, Default)]
pub struct LocMps {
    config: LocMpsConfig,
}

impl LocMps {
    /// Creates the scheduler with the given configuration.
    pub fn new(config: LocMpsConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LocMpsConfig {
        &self.config
    }

    /// Best candidate task on the critical path (§III.C): filter widenable,
    /// rank by gain, inspect the top `⌈10 %⌉`, pick minimum concurrency
    /// ratio. `cands` is the buffer the ranking is refilled into.
    fn best_candidate_task(
        &self,
        ctx: &SearchCtx<'_>,
        cp: &CriticalPath,
        alloc: &Allocation,
        marked: Option<&HashSet<Entry>>,
        cands: &mut Vec<(TaskId, f64)>,
    ) -> Option<TaskId> {
        let (conc, pbest) = (ctx.conc, ctx.pbest);
        cands.clear();
        cands.extend(
            cp.tasks
                .iter()
                .copied()
                .filter(|&t| alloc.np(t) < ctx.p_total.min(pbest[t.index()]))
                .filter(|&t| marked.is_none_or(|m| !m.contains(&Entry::Task(t))))
                .map(|t| (t, ctx.g.task(t).profile.gain(alloc.np(t)))),
        );
        if cands.is_empty() {
            return None;
        }
        cands.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        // At least one: `cands` is not empty.
        let k = (TOP_FRACTION * cands.len() as f64).ceil() as usize;
        cands[..k]
            .iter()
            .copied()
            .min_by(|a, b| {
                conc.ratio(a.0)
                    .total_cmp(&conc.ratio(b.0))
                    .then(b.1.total_cmp(&a.1))
                    .then(a.0.cmp(&b.0))
            })
            .map(|(t, _)| t)
    }

    /// Heaviest widenable data edge on the critical path (§III.D), weighed
    /// by the caller's edge-cost function.
    fn best_candidate_edge(
        &self,
        dag: &TaskGraph,
        cp: &CriticalPath,
        alloc: &Allocation,
        edge_w: impl Fn(EdgeId) -> f64,
        p_total: usize,
        marked: Option<&HashSet<Entry>>,
    ) -> Option<EdgeId> {
        cp.edges
            .iter()
            .copied()
            .filter(|&e| {
                let edge = dag.edge(e);
                edge.kind == EdgeKind::Data
                    && edge.volume > 0.0
                    && (alloc.np(edge.src) < p_total || alloc.np(edge.dst) < p_total)
            })
            .filter(|&e| marked.is_none_or(|m| !m.contains(&Entry::Edge(e))))
            .max_by(|&a, &b| {
                edge_w(a).total_cmp(&edge_w(b)).then(b.cmp(&a)) // lower id wins ties
            })
    }

    /// Applies the refinement move `step` to `alloc`: a task grows by one
    /// processor; an edge of `dag` widens per Algorithm 1 steps 21–27, the
    /// narrower endpoint growing, both when tied.
    fn widen(dag: &TaskGraph, alloc: &mut Allocation, step: Entry, p_total: usize) {
        let e = match step {
            Entry::Task(t) => return alloc.widen(t, p_total),
            Entry::Edge(e) => dag.edge(e),
        };
        use std::cmp::Ordering;
        match alloc.np(e.src).cmp(&alloc.np(e.dst)) {
            Ordering::Greater => alloc.widen(e.dst, p_total),
            Ordering::Less => alloc.widen(e.src, p_total),
            Ordering::Equal => {
                alloc.widen(e.dst, p_total);
                alloc.widen(e.src, p_total);
            }
        }
    }

    /// One refinement step on `alloc` guided by the CP of `dag`: the move
    /// to make, for [`LocMps::widen`] to apply, or `None` when nothing on
    /// the critical path can be refined.
    ///
    /// Edge weights are "the communication cost to redistribute data
    /// between the processor groups associated with each task/endpoint"
    /// (§III.B): the previous LoCBS pass decided those groups, so the cost
    /// is the exact single-port block-cyclic transfer time between them —
    /// an edge whose endpoints share a layout weighs nothing, exactly as
    /// it executes. (The paper's `d/(min(np)·bw)` closed form is the
    /// group-agnostic stand-in; it remains the planning estimate inside
    /// LoCBS's priorities where groups are not yet placed.) Each weight is
    /// computed once per step into `w`, and every later read uses that table;
    /// an edge whose groups and volume are those of its previous pricing
    /// takes that price instead of the kernel's (see [`Price`]). `G'` is
    /// sorted into `w`'s buffers and its critical path swept along that
    /// order into them.
    fn refine(
        &self,
        ctx: &SearchCtx<'_>,
        w: &mut Weights,
        dag: &TaskGraph,
        schedule: &Schedule,
        alloc: &Allocation,
        marked: Option<&HashSet<Entry>>,
    ) -> Option<Entry> {
        let (g, model, p_total) = (ctx.g, ctx.model, ctx.p_total);
        w.node.clear();
        w.node
            .extend(g.task_ids().map(|t| g.task(t).profile.time(alloc.np(t))));
        w.edge.clear();
        if w.prices.len() < dag.n_edges() {
            w.prices.resize_with(dag.n_edges(), Price::default);
        }
        for (e, price) in dag.edge_ids().zip(&mut w.prices) {
            let edge = dag.edge(e);
            w.edge
                .push(match (schedule.get(edge.src), schedule.get(edge.dst)) {
                    (Some(s), Some(d)) => {
                        price.get(model, &s.procs, &d.procs, edge.volume, &mut w.reused)
                    }
                    _ => model.edge_estimate(dag, alloc, e),
                });
        }
        dag.topo_order_into(&mut w.order, &mut w.in_deg)
            .expect("schedule-DAGs are acyclic");
        let node_w = |t: TaskId| w.node[t.index()];
        let edge_w = |e: EdgeId| w.edge[e.index()];
        dag.critical_path_along_into(&w.order, node_w, edge_w, &mut w.levels, &mut w.cp);
        let cp = &w.cp;
        let tcomp = cp.computation_cost(node_w);
        let tcomm = cp.communication_cost(edge_w);

        // Computation dominated: the best task, else the heaviest edge.
        // Communication dominated: the edge, else the task.
        let task = self.best_candidate_task(ctx, cp, alloc, marked, &mut w.cands);
        if tcomp <= tcomm || task.is_none() {
            if let Some(e) = self.best_candidate_edge(dag, cp, alloc, edge_w, p_total, marked) {
                return Some(Entry::Edge(e));
            }
        }
        task.map(Entry::Task)
    }
}

impl Scheduler for LocMps {
    fn name(&self) -> &'static str {
        match (self.config.comm_aware, self.config.backfill) {
            (true, true) => "LoC-MPS",
            (true, false) => "LoC-MPS/no-backfill",
            (false, _) => "iCASLB",
        }
    }

    fn schedule(&self, g: &TaskGraph, cluster: &Cluster) -> Result<SchedulerOutput, SchedError> {
        g.validate().map_err(SchedError::Graph)?;
        let p_total = cluster.n_procs;
        let model = if self.config.comm_aware {
            CommModel::new(cluster)
        } else {
            CommModel::blind(cluster)
        };
        let locbs = Locbs::new(
            model,
            LocbsOptions {
                backfill: self.config.backfill,
            },
        );
        let conc = ConcurrencyInfo::compute(g);
        let pbest: Vec<usize> = g
            .task_ids()
            .map(|t| g.task(t).profile.pbest(p_total))
            .collect();
        let ctx = SearchCtx {
            g,
            locbs: &locbs,
            conc: &conc,
            pbest: &pbest,
            model: &model,
            p_total,
        };
        // Every pass strips the pseudo-edges `dag` carries on entry, so
        // one copy of the graph serves the whole search.
        let mut st = SearchState {
            memo: self.config.prune.then(PassMemo::default),
            log: self.config.prune.then(PlacementLog::new),
            dag: g.clone(),
            ..SearchState::default()
        };

        // Steps 1–4: pure task-parallel start.
        let mut best_alloc = Allocation::ones(g.n_tasks());
        let (schedule, makespan) = Self::pass(&ctx, &mut st, &best_alloc)?;
        let mut best = LocbsResult {
            schedule,
            schedule_dag: st.dag.clone(),
            makespan,
        };
        self.search(&ctx, &mut st, &mut best_alloc, &mut best)?;

        // Wide-corner restarts (extension, see `LocMpsConfig::corner_starts`):
        // Figure 3 shows the data-parallel corner can be the optimum and the
        // bounded look-ahead exists to reach it; on larger graphs at high
        // CCR the valley between the committed solution and that corner can
        // exceed the look-ahead depth, so the uniform allocations are probed
        // directly and the search re-run from any that wins.
        if self.config.corner_starts {
            for denom in [1usize, 2, 4] {
                let width = (p_total / denom).max(1);
                // Two flavours per width: the plain uniform allocation
                // (identical group layouts ⇒ zero redistribution, the DATA
                // corner proper) and the Pbest-clamped one (never give a
                // task more processors than help it, at the cost of some
                // layout misalignment).
                let plain = Allocation::uniform(g.n_tasks(), width);
                let mut clamped = plain.clone();
                for t in g.task_ids() {
                    clamped.set(t, width.min(pbest[t.index()]));
                }
                for alloc in [plain, clamped] {
                    // A corner only matters if its probe beats the incumbent
                    // by more than the commit epsilon. The allocation-level
                    // bound settles many corners without placing a single
                    // task; it compares against the incumbent itself, so
                    // floating-point noise in the bound cannot veto a real
                    // winner.
                    if self.config.prune
                        && allocation_lower_bound(g, &alloc, p_total) >= best.makespan
                    {
                        st.counters.branches_pruned += 1;
                        continue;
                    }
                    // Only a winning probe copies its schedule-DAG out of
                    // the search's buffer.
                    let (schedule, makespan) = Self::pass(&ctx, &mut st, &alloc)?;
                    if makespan < best.makespan - time_eps(best.makespan) {
                        let mut corner_alloc = alloc;
                        let mut corner_best = LocbsResult {
                            schedule,
                            schedule_dag: st.dag.clone(),
                            makespan,
                        };
                        self.search(&ctx, &mut st, &mut corner_alloc, &mut corner_best)?;
                        if corner_best.makespan < best.makespan - time_eps(best.makespan) {
                            best_alloc = corner_alloc;
                            best = corner_best;
                        }
                    }
                }
            }
        }

        Ok(SchedulerOutput {
            schedule: best.schedule,
            allocation: best_alloc,
            schedule_dag: Some(best.schedule_dag),
            counters: SearchCounters {
                transfers_reused: st.weights.reused,
                ..st.counters
            },
        })
    }
}

impl LocMps {
    /// One LoCBS pass into the search's buffers, resumed from the previous
    /// pass's placement log when the search keeps one.
    fn pass(
        ctx: &SearchCtx<'_>,
        st: &mut SearchState,
        alloc: &Allocation,
    ) -> Result<(Schedule, f64), SchedError> {
        let (result, work) =
            ctx.locbs
                .pass(&mut st.dag, alloc, &mut st.scratch, st.log.as_mut())?;
        st.counters.locbs_passes += 1;
        st.counters.placements_replayed += work.replayed;
        st.counters.candidates_examined += work.candidates_examined;
        Ok(result)
    }

    /// One bounded look-ahead trajectory (steps 10–35) from `alloc`, the
    /// state the round's entry move just produced; `alloc` is walked in
    /// place. Leaves the best (allocation, schedule) seen along the way in
    /// `st.branch` and returns its makespan.
    ///
    /// Every iteration re-schedules in place into the search's buffers via
    /// [`LocMps::pass`] (stripping the previous iteration's pseudo-edges
    /// instead of cloning the graph; with pruning on, copying the
    /// placements it shares with the previous pass from its log).
    ///
    /// With pruning on, repeated allocations (branch walks merge quickly
    /// once they leave their entry point) are answered from the memo, both
    /// their pass and, through [`LocMps::walk_step`], their refinement.
    fn lookahead_branch(
        &self,
        ctx: &SearchCtx<'_>,
        st: &mut SearchState,
        alloc: &mut Allocation,
    ) -> Result<f64, SchedError> {
        let (makespan, mut kept) = Self::branch_pass(ctx, st, alloc)?;
        st.keep_branch_best(alloc, makespan, kept);

        for _ in 1..self.config.lookahead_depth.max(1) {
            if !self.walk_step(ctx, st, alloc, kept)? {
                break;
            }
            let best = st.branch.makespan;
            let (makespan, next) = Self::branch_pass(ctx, st, alloc)?;
            kept = next;
            if makespan < best - time_eps(best) {
                st.keep_branch_best(alloc, makespan, kept);
            }
        }
        Ok(st.branch.makespan)
    }

    /// Moves the walk from `alloc`, whose pass is kept where `kept` says,
    /// to its successor: `refine(.., None)`'s move, applied in place.
    /// Returns `false` when nothing is left to refine.
    ///
    /// With the memo on, the move is the one the memo entry recorded when
    /// a walk first refined this allocation, and `refine` runs only for an
    /// entry that has none yet (its answer is then recorded). A pass that
    /// was a memo hit left `st.dag` as it was, so `refine` first rebuilds
    /// the entry's `G'` there. The move's edge id is read from `st.dag`
    /// whether or not it was rebuilt: every `G'` of one search numbers the
    /// data edges alike (pseudo-edges come after them, see
    /// [`TaskGraph::clear_pseudo_edges`]), and refinement moves only name
    /// data edges.
    fn walk_step(
        &self,
        ctx: &SearchCtx<'_>,
        st: &mut SearchState,
        alloc: &mut Allocation,
        kept: Kept,
    ) -> Result<bool, SchedError> {
        let step = match (kept, &mut st.memo) {
            (Kept::Memo { at, placed }, Some(memo)) => {
                let entry = &mut memo.entries[at];
                match entry.next {
                    Some(step) => {
                        st.counters.successors_reused += 1;
                        step
                    }
                    None => {
                        if !placed {
                            replay_pseudo_edges(&mut st.dag, &entry.pseudo)?;
                        }
                        let step = self.refine(
                            ctx,
                            &mut st.weights,
                            &st.dag,
                            &entry.schedule,
                            alloc,
                            None,
                        );
                        entry.next = Some(step);
                        step
                    }
                }
            }
            _ => self.refine(ctx, &mut st.weights, &st.dag, &st.schedule, alloc, None),
        };
        let Some(step) = step else {
            return Ok(false);
        };
        Self::widen(&st.dag, alloc, step, ctx.p_total);
        Ok(true)
    }

    /// One look-ahead [`LocMps::pass`], answered from the memo when this
    /// allocation was already placed; a hit touches neither `st.dag` nor
    /// `st.schedule`. Returns the makespan and where the pass is kept.
    fn branch_pass(
        ctx: &SearchCtx<'_>,
        st: &mut SearchState,
        alloc: &Allocation,
    ) -> Result<(f64, Kept), SchedError> {
        if let Some(memo) = &st.memo {
            if let Some(&at) = memo.index.get(alloc.as_slice()) {
                st.counters.pass_memo_hits += 1;
                let kept = Kept::Memo { at, placed: false };
                return Ok((memo.entries[at].makespan, kept));
            }
        }
        let (schedule, makespan) = Self::pass(ctx, st, alloc)?;
        let kept = match &mut st.memo {
            Some(memo) => {
                let mut pseudo = Vec::with_capacity(pseudo_edges(&st.dag).count());
                pseudo.extend(pseudo_edges(&st.dag));
                let at = memo.entries.len();
                memo.entries.push(MemoEntry {
                    schedule,
                    pseudo,
                    makespan,
                    next: None,
                });
                memo.index.insert(alloc.as_slice().to_vec(), at);
                Kept::Memo { at, placed: true }
            }
            None => {
                st.schedule = schedule;
                Kept::Own
            }
        };
        Ok((makespan, kept))
    }

    /// The outer commit/mark loop of Algorithm 1, refining `best_alloc` /
    /// `best` in place from wherever they currently point. Each round
    /// enters one look-ahead at the best unmarked candidate; a success
    /// commits and unmarks everything, a failure marks that entry.
    ///
    /// A commit swaps the branch best's allocation and schedule in and
    /// rebuilds `best.schedule_dag` from its pseudo-edge list: the same
    /// graph, edge order included, as a copy of the branch's `G'`.
    fn search(
        &self,
        ctx: &SearchCtx<'_>,
        st: &mut SearchState,
        best_alloc: &mut Allocation,
        best: &mut LocbsResult,
    ) -> Result<(), SchedError> {
        let mut marked: HashSet<Entry> = HashSet::new();
        let mut alloc = Allocation::default();
        for _round in 0..self.config.max_rounds {
            alloc.clone_from(best_alloc);
            let Some(entry) = self.refine(
                ctx,
                &mut st.weights,
                &best.schedule_dag,
                &best.schedule,
                &alloc,
                Some(&marked),
            ) else {
                return Ok(()); // nothing on the CP can be refined at all
            };
            Self::widen(&best.schedule_dag, &mut alloc, entry, ctx.p_total);
            let makespan = self.lookahead_branch(ctx, st, &mut alloc)?;
            if makespan < best.makespan - time_eps(best.makespan) {
                // Step 39: improvement found; commit and reset the marks.
                std::mem::swap(best_alloc, &mut st.branch.alloc);
                std::mem::swap(&mut best.schedule, &mut st.branch.schedule);
                replay_pseudo_edges(&mut best.schedule_dag, &st.branch.pseudo)?;
                best.makespan = makespan;
                marked.clear();
                st.counters.commits += 1;
            } else {
                // Step 37: a failed look-ahead; remember its entry.
                marked.insert(entry);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmps_speedup::{ExecutionProfile, ProfiledSpeedup, SpeedupModel};

    fn profiled(times: &[f64]) -> ExecutionProfile {
        ExecutionProfile::new(
            times[0],
            SpeedupModel::Table(ProfiledSpeedup::from_times(times).unwrap()),
        )
        .unwrap()
    }

    #[test]
    fn single_task_gets_its_pbest() {
        let mut g = TaskGraph::new();
        g.add_task("t", ExecutionProfile::linear(32.0));
        let cluster = Cluster::new(4, 12.5);
        let out = LocMps::default().schedule(&g, &cluster).unwrap();
        assert_eq!(out.allocation.np(TaskId(0)), 4);
        assert!((out.makespan() - 8.0).abs() < 1e-9);
        out.schedule
            .validate(&g, &CommModel::new(&cluster))
            .unwrap();
    }

    #[test]
    fn respects_pbest_bound() {
        // U-shaped execution time: widening past pbest would *hurt*; the
        // candidate filter (np < min(P, Pbest)) must stop there.
        let m = SpeedupModel::Linear.with_overhead(0.05).unwrap();
        let mut g = TaskGraph::new();
        g.add_task("t", ExecutionProfile::new(20.0, m).unwrap());
        let cluster = Cluster::new(16, 12.5);
        let out = LocMps::default().schedule(&g, &cluster).unwrap();
        let pbest = g.task(TaskId(0)).profile.pbest(16);
        assert!(out.allocation.np(TaskId(0)) <= pbest);
        assert!((out.makespan() - g.task(TaskId(0)).profile.time(pbest)).abs() < 1e-6);
    }

    /// Figure 2: T1, T3, T4 feed T2; on 3 processors the greedy gain choice
    /// (T1) is inferior to the concurrency-ratio choice (T2 on all 3),
    /// whose schedule reaches the paper's makespan of 15.
    #[test]
    fn fig2_concurrency_ratio_choice() {
        let mut g = TaskGraph::new();
        let t1 = g.add_task("T1", profiled(&[10.0, 7.0, 5.0]));
        let t2 = g.add_task("T2", profiled(&[8.0, 6.0, 5.0]));
        let t3 = g.add_task("T3", profiled(&[9.0, 7.0, 5.0]));
        let t4 = g.add_task("T4", profiled(&[7.0, 5.0, 4.0]));
        g.add_edge(t1, t2, 0.0).unwrap();
        g.add_edge(t3, t2, 0.0).unwrap();
        g.add_edge(t4, t2, 0.0).unwrap();
        let cluster = Cluster::new(3, 12.5);
        let out = LocMps::default().schedule(&g, &cluster).unwrap();
        assert!(
            out.makespan() <= 15.0 + 1e-9,
            "paper reaches 15, got {}",
            out.makespan()
        );
        assert_eq!(
            out.allocation.np(t2),
            3,
            "T2 should be widened to all processors"
        );
        out.schedule
            .validate(&g, &CommModel::new(&cluster))
            .unwrap();
    }

    /// Figure 3: two independent tasks with linear speedup on 4 processors.
    /// The greedy (no look-ahead) search is trapped at makespan 40; the
    /// bounded look-ahead escapes to the pure data-parallel optimum of 30.
    #[test]
    fn fig3_lookahead_escapes_local_minimum() {
        let build = || {
            let mut g = TaskGraph::new();
            g.add_task("T1", ExecutionProfile::linear(40.0));
            g.add_task("T2", ExecutionProfile::linear(80.0));
            g
        };
        let cluster = Cluster::new(4, 12.5);
        let greedy = LocMps::new(LocMpsConfig::greedy())
            .schedule(&build(), &cluster)
            .unwrap();
        assert!(
            (greedy.makespan() - 40.0).abs() < 1e-6,
            "greedy should be trapped at 40, got {}",
            greedy.makespan()
        );
        let full = LocMps::default().schedule(&build(), &cluster).unwrap();
        assert!(
            (full.makespan() - 30.0).abs() < 1e-6,
            "look-ahead should reach the data-parallel optimum 30, got {}",
            full.makespan()
        );
        assert_eq!(full.allocation.as_slice(), &[4, 4]);
    }

    #[test]
    fn widens_heavy_edges_when_communication_dominates() {
        // Two tasks with negligible computation but a huge transfer; the
        // only way to shrink the CP is widening the edge endpoints.
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(1.0));
        let b = g.add_task("b", ExecutionProfile::linear(1.0));
        g.add_edge(a, b, 1000.0).unwrap();
        let cluster = Cluster::new(4, 12.5);
        let out = LocMps::default().schedule(&g, &cluster).unwrap();
        // Widening helps both the aggregate estimate and the placement;
        // the allocation must not stay at the pure task-parallel (1, 1).
        assert!(
            out.allocation.np(a) > 1 || out.allocation.np(b) > 1,
            "edge widening never triggered: {:?}",
            out.allocation.as_slice()
        );
        out.schedule
            .validate(&g, &CommModel::new(&cluster))
            .unwrap();
    }

    #[test]
    fn icaslb_plans_without_communication() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(10.0));
        let b = g.add_task("b", ExecutionProfile::linear(10.0));
        g.add_edge(a, b, 10_000.0).unwrap();
        let cluster = Cluster::new(2, 12.5);
        let icaslb = LocMps::new(LocMpsConfig::icaslb());
        assert_eq!(icaslb.name(), "iCASLB");
        let out = icaslb.schedule(&g, &cluster).unwrap();
        // Its own (blind) claim ignores the transfer entirely.
        out.schedule
            .validate(&g, &CommModel::blind(&cluster))
            .unwrap();
    }

    #[test]
    fn never_worse_than_pure_task_parallel_start() {
        // LoC-MPS starts at TASK and only commits improvements.
        let mut g = TaskGraph::new();
        let a = g.add_task("a", profiled(&[30.0, 16.0, 11.0]));
        let b = g.add_task("b", profiled(&[20.0, 12.0, 9.0]));
        let c = g.add_task("c", profiled(&[25.0, 14.0, 10.0]));
        g.add_edge(a, b, 5.0).unwrap();
        g.add_edge(a, c, 5.0).unwrap();
        let cluster = Cluster::new(4, 12.5);
        let model = CommModel::new(&cluster);
        let task_parallel = Locbs::new(model, LocbsOptions::default())
            .run(&g, &Allocation::ones(3))
            .unwrap();
        let out = LocMps::default().schedule(&g, &cluster).unwrap();
        assert!(out.makespan() <= task_parallel.makespan + 1e-9);
        out.schedule.validate(&g, &model).unwrap();
    }
}
