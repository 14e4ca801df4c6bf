//! Deterministic fault injection and pluggable recovery.
//!
//! A [`FaultPlan`] is a *script* of adversities — permanent processor
//! failures, transient slowdowns, and task crashes at a fraction of their
//! runtime — injected into the [`RuntimeEngine`](crate::RuntimeEngine)
//! event loop. Plans are plain data: parsed from a compact spec string
//! ([`FaultPlan::parse`]), generated from a seed
//! ([`FaultPlan::random_proc_failures`]), or built by hand. Identical
//! plans give bit-identical executions, so resilience experiments are
//! exactly reproducible.
//!
//! What happens *after* a fault is decided by a [`RecoveryPolicy`]:
//!
//! * [`FailStop`] — the baseline: any task failure aborts the run (the
//!   engine still drains in-flight tasks so the trace is complete);
//! * [`RetryShrink`] — re-molds each failed task onto the surviving free
//!   processors (shrinking its width) and adopts tasks the base policy
//!   can no longer place, without discarding the rest of the plan;
//! * [`Remold`] — re-runs LoC-MPS on the residual DAG over the surviving
//!   cluster and follows the fresh plan from then on; [`Remold::replan`]
//!   schedules the residual DAG as given, the learning flavour against
//!   profiles a [`PerfModelStore`](crate::PerfModelStore) corrected from
//!   straggler alarms.

use locmps_core::{locality, LocMps, ResidualDag, ScheduledTask, Scheduler};
use locmps_platform::{Cluster, ProcId, ProcSet};
use locmps_sim::seeding;
use locmps_taskgraph::{Levels, TaskGraph, TaskId};
use serde::{Deserialize, Serialize};

use crate::engine::{TraceEvent, TraceEventKind};

/// One scripted adversity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Fault {
    /// Processor `proc` fails permanently at time `at`; tasks running on
    /// it at that moment are killed.
    ProcFail {
        /// The failing processor.
        proc: ProcId,
        /// Failure time.
        at: f64,
    },
    /// Processor `proc` runs `factor`× slower during `[from, until)`.
    /// Attempts overlapping the window progress at the reduced rate for
    /// exactly the overlapping portion (piecewise-rate integration, see
    /// [`FaultPlan::finish_after`]) — windows opening or closing while an
    /// attempt is in flight stretch only the covered part.
    Slowdown {
        /// The degraded processor.
        proc: ProcId,
        /// Window start.
        from: f64,
        /// Window end (exclusive).
        until: f64,
        /// Slowdown multiplier (≥ 1).
        factor: f64,
    },
    /// Task `task` crashes after `at_frac` of its realized compute time,
    /// on each of its first `attempts` attempts.
    Crash {
        /// The crashing task.
        task: TaskId,
        /// Crash point as a fraction of compute time, in `(0, 1)`.
        at_frac: f64,
        /// How many attempts crash before one succeeds.
        attempts: u32,
    },
}

/// A typed error building or parsing a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// A fault field fails validation.
    Invalid {
        /// Which constraint was violated.
        what: &'static str,
    },
    /// A spec item could not be parsed.
    Parse {
        /// The offending item, verbatim.
        item: String,
        /// What was expected.
        reason: &'static str,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::Invalid { what } => write!(f, "invalid fault: {what}"),
            FaultError::Parse { item, reason } => {
                write!(f, "cannot parse fault `{item}`: {reason}")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// A validated script of [`Fault`]s.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan (no adversity; executions match the plain engine).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one fault after validating its fields.
    ///
    /// A negative zero passes the range checks (`-0.0 < 0.0` is false)
    /// but would render as `-0` in [`FaultPlan::to_spec`], where the
    /// leading sign collides with the `T0-T1` window separator and breaks
    /// the `to_spec → parse` round-trip; the sign is dropped here so a
    /// stored plan is always exactly re-parseable.
    ///
    /// # Errors
    /// [`FaultError::Invalid`] when a time is negative or non-finite, a
    /// slowdown window is empty or its factor below 1, or a crash
    /// fraction lies outside `(0, 1)` / has zero attempts.
    pub fn push(&mut self, fault: Fault) -> Result<(), FaultError> {
        let mut fault = fault;
        let bad = |what| Err(FaultError::Invalid { what });
        match &mut fault {
            Fault::ProcFail { at, .. } => {
                if !at.is_finite() || *at < 0.0 {
                    return bad("failure time must be finite and non-negative");
                }
                *at += 0.0; // normalizes -0.0 to +0.0
            }
            Fault::Slowdown {
                from,
                until,
                factor,
                ..
            } => {
                if !from.is_finite() || !until.is_finite() || *from < 0.0 || *until <= *from {
                    return bad("slowdown window must be finite with from < until");
                }
                if !factor.is_finite() || *factor < 1.0 {
                    return bad("slowdown factor must be finite and >= 1");
                }
                *from += 0.0; // normalizes -0.0 to +0.0
            }
            Fault::Crash {
                at_frac, attempts, ..
            } => {
                if !at_frac.is_finite() || *at_frac <= 0.0 || *at_frac >= 1.0 {
                    return bad("crash fraction must lie strictly inside (0, 1)");
                }
                if *attempts == 0 {
                    return bad("crash attempts must be >= 1");
                }
            }
        }
        self.faults.push(fault);
        Ok(())
    }

    /// Parses a comma-separated spec, e.g.
    /// `"fail:1@8,slow:0@2-9x3,crash:4@0.5x2"`:
    ///
    /// * `fail:P@T` — processor `P` fails at time `T`;
    /// * `slow:P@T0-T1xF` — processor `P` is `F`× slower in `[T0, T1)`;
    /// * `crash:T@F` or `crash:T@FxN` — task `T` crashes at fraction `F`
    ///   of its compute time on its first `N` attempts (default 1).
    ///
    /// Crash attempt counts may exceed the engine's per-task attempt
    /// budget (`OnlineConfig::max_attempts`): a plan like
    /// `crash:T@0.5x999999` does not livelock — once the budget is spent
    /// the run aborts with an `AttemptsExhausted` trace event.
    ///
    /// # Errors
    /// [`FaultError::Parse`] on malformed items, [`FaultError::Invalid`]
    /// on out-of-range fields.
    pub fn parse(spec: &str) -> Result<Self, FaultError> {
        let mut plan = FaultPlan::new();
        for item in spec.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let err = |reason| FaultError::Parse {
                item: item.to_string(),
                reason,
            };
            let (kind, rest) = item
                .split_once(':')
                .ok_or_else(|| err("expected kind:spec"))?;
            let (target, when) = rest
                .split_once('@')
                .ok_or_else(|| err("expected target@timing"))?;
            match kind {
                "fail" => {
                    let proc: ProcId = target.parse().map_err(|_| err("bad processor id"))?;
                    let at: f64 = when.parse().map_err(|_| err("bad failure time"))?;
                    plan.push(Fault::ProcFail { proc, at })?;
                }
                "slow" => {
                    let proc: ProcId = target.parse().map_err(|_| err("bad processor id"))?;
                    let (window, factor) = when
                        .split_once('x')
                        .ok_or_else(|| err("expected T0-T1xF"))?;
                    let (from, until) = window
                        .split_once('-')
                        .ok_or_else(|| err("expected T0-T1xF"))?;
                    let from: f64 = from.parse().map_err(|_| err("bad window start"))?;
                    let until: f64 = until.parse().map_err(|_| err("bad window end"))?;
                    let factor: f64 = factor.parse().map_err(|_| err("bad slowdown factor"))?;
                    plan.push(Fault::Slowdown {
                        proc,
                        from,
                        until,
                        factor,
                    })?;
                }
                "crash" => {
                    let task: u32 = target.parse().map_err(|_| err("bad task id"))?;
                    let (frac, attempts) = match when.split_once('x') {
                        Some((f, n)) => (f, n.parse().map_err(|_| err("bad attempt count"))?),
                        None => (when, 1u32),
                    };
                    let at_frac: f64 = frac.parse().map_err(|_| err("bad crash fraction"))?;
                    plan.push(Fault::Crash {
                        task: TaskId(task),
                        at_frac,
                        attempts,
                    })?;
                }
                _ => return Err(err("unknown kind (fail|slow|crash)")),
            }
        }
        Ok(plan)
    }

    /// A seeded plan of `count` distinct permanent processor failures at
    /// times inside `(0, horizon)`, always sparing at least one processor
    /// of the `n_procs` so recovery has somewhere to go. Draws are keyed
    /// by `(seed, index)` ([`seeding::keyed_unit`]) — pure data, no RNG
    /// state.
    pub fn random_proc_failures(seed: u64, n_procs: usize, count: usize, horizon: f64) -> Self {
        let count = count.min(n_procs.saturating_sub(1));
        let mut candidates: Vec<ProcId> = (0..n_procs as ProcId).collect();
        let mut plan = FaultPlan::new();
        for i in 0..count {
            let pick = (seeding::keyed_unit(seed, 2 * i as u64) * candidates.len() as f64) as usize;
            let proc = candidates.remove(pick.min(candidates.len() - 1));
            let at = horizon.max(0.0) * (0.1 + 0.8 * seeding::keyed_unit(seed, 2 * i as u64 + 1));
            plan.push(Fault::ProcFail { proc, at })
                .expect("keyed draws stay finite and non-negative");
        }
        plan
    }

    /// Whether the plan contains no faults at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The scripted faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// The scripted permanent processor failures as `(proc, at)` pairs.
    pub fn proc_failures(&self) -> impl Iterator<Item = (ProcId, f64)> + '_ {
        self.faults.iter().filter_map(|f| match f {
            Fault::ProcFail { proc, at } => Some((*proc, *at)),
            _ => None,
        })
    }

    /// The compound slowdown multiplier for launching a task on `procs`
    /// at time `now`: per processor, active windows multiply; across the
    /// set the task runs at the slowest member's speed (max).
    pub fn slowdown_factor(&self, procs: &ProcSet, now: f64) -> f64 {
        let mut worst = 1.0f64;
        for p in procs.iter() {
            let mut f = 1.0;
            for fault in &self.faults {
                if let Fault::Slowdown {
                    proc,
                    from,
                    until,
                    factor,
                } = fault
                {
                    if *proc == p && now >= *from && now < *until {
                        f *= factor;
                    }
                }
            }
            worst = worst.max(f);
        }
        worst
    }

    /// Whether attempt number `attempt` (0-based) of `task` is scripted
    /// to crash, and at which fraction of its compute time.
    pub fn crash_fraction(&self, task: TaskId, attempt: u32) -> Option<f64> {
        self.faults.iter().find_map(|f| match f {
            Fault::Crash {
                task: t,
                at_frac,
                attempts,
            } if *t == task && attempt < *attempts => Some(*at_frac),
            _ => None,
        })
    }

    /// The wall-clock time at which `work` seconds of nominal compute,
    /// started at `from` on `procs`, complete under the plan's slowdown
    /// windows.
    ///
    /// The compound factor ([`FaultPlan::slowdown_factor`]) is treated as
    /// a piecewise-constant rate: a window opening or closing mid-attempt
    /// stretches exactly the covered portion. With no window touching the
    /// attempt this is exactly `from + work` (bit-identical to the
    /// fault-free engine), and an attempt fully inside one window takes
    /// exactly `work × factor`.
    pub fn finish_after(&self, procs: &ProcSet, from: f64, work: f64) -> f64 {
        if work <= 0.0 {
            return from;
        }
        let cuts = self.slow_cuts(procs, from);
        if cuts.is_empty() && self.slowdown_factor(procs, from) == 1.0 {
            return from + work;
        }
        let mut t = from;
        let mut left = work;
        for &c in &cuts {
            let f = self.slowdown_factor(procs, t);
            // Nominal work the segment [t, c) can absorb at this rate.
            let capacity = (c - t) / f;
            if capacity >= left {
                return t + left * f;
            }
            left -= capacity;
            t = c;
        }
        t + left * self.slowdown_factor(procs, t)
    }

    /// The nominal compute seconds absorbed by `procs` over the wall-clock
    /// interval `[from, until)` — the exact inverse of
    /// [`FaultPlan::finish_after`]: for any positive `work`,
    /// `nominal_work_between(procs, from, finish_after(procs, from, work))`
    /// recovers `work` (up to float rounding).
    ///
    /// This is the slowdown-window correction used when feeding *observed*
    /// attempt durations back into a performance model: an attempt
    /// stretched by a scripted slowdown did not reveal anything about the
    /// task's profile, only about the window, so the observation must be
    /// deflated segment by segment before it is ingested.
    pub fn nominal_work_between(&self, procs: &ProcSet, from: f64, until: f64) -> f64 {
        if until <= from {
            return 0.0;
        }
        let cuts = self.slow_cuts(procs, from);
        if cuts.is_empty() && self.slowdown_factor(procs, from) == 1.0 {
            // Bit-identical to the fault-free reading, mirroring
            // `finish_after`'s fast path.
            return until - from;
        }
        let mut t = from;
        let mut work = 0.0;
        for &c in &cuts {
            if c >= until {
                break;
            }
            work += (c - t) / self.slowdown_factor(procs, t);
            t = c;
        }
        work + (until - t) / self.slowdown_factor(procs, t)
    }

    /// Sorted, deduplicated times after `from` at which the compound
    /// slowdown factor of `procs` can change (window edges).
    fn slow_cuts(&self, procs: &ProcSet, from: f64) -> Vec<f64> {
        let mut cuts: Vec<f64> = Vec::new();
        for fault in &self.faults {
            if let Fault::Slowdown {
                proc,
                from: w0,
                until: w1,
                ..
            } = fault
            {
                if procs.contains(*proc) {
                    if *w0 > from {
                        cuts.push(*w0);
                    }
                    if *w1 > from {
                        cuts.push(*w1);
                    }
                }
            }
        }
        cuts.sort_by(f64::total_cmp);
        cuts.dedup();
        cuts
    }

    /// Renders the plan back into the spec grammar [`FaultPlan::parse`]
    /// accepts; `parse(plan.to_spec())` reproduces the plan **bit for
    /// bit** for every plan [`FaultPlan::push`] admits. This is how the
    /// chaos harness prints minimized reproducers, so exactness matters:
    /// floats print through Rust's `Display`, the shortest decimal that
    /// parses back to the identical bits (never exponential notation, so
    /// no `e±` can collide with the grammar's separators), and `push`
    /// normalizes the one admissible value with a troublesome rendering,
    /// `-0.0`, whose `-0` text would break the `T0-T1` window split.
    pub fn to_spec(&self) -> String {
        let items: Vec<String> = self
            .faults
            .iter()
            .map(|f| match f {
                Fault::ProcFail { proc, at } => format!("fail:{proc}@{at}"),
                Fault::Slowdown {
                    proc,
                    from,
                    until,
                    factor,
                } => format!("slow:{proc}@{from}-{until}x{factor}"),
                Fault::Crash {
                    task,
                    at_frac,
                    attempts,
                } => {
                    if *attempts == 1 {
                        format!("crash:{}@{}", task.0, at_frac)
                    } else {
                        format!("crash:{}@{}x{}", task.0, at_frac, attempts)
                    }
                }
            })
            .collect();
        items.join(",")
    }
}

/// What the engine should do with one failed task attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Give up: stop launching work, drain in-flight tasks, return a
    /// partial trace.
    Abort,
    /// Put the task back into the ready set for another attempt.
    Retry,
}

/// What recovery wants done about a suspected straggler attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StragglerAction {
    /// Leave it running; the duplicate-free trace is unchanged.
    Ignore,
    /// Ask the engine for a speculative duplicate on idle processors.
    /// The engine still enforces the global `max_speculative` budget, the
    /// per-task attempt budget, and needs free processors — the request
    /// is dropped silently when any of those fail.
    Speculate,
}

/// Read-only execution state handed to a [`RecoveryPolicy`].
pub struct RecoveryCtx<'a> {
    /// The application graph.
    pub g: &'a TaskGraph,
    /// The (original) cluster.
    pub cluster: &'a Cluster,
    /// Processors still alive.
    pub alive: &'a ProcSet,
    /// Current simulation time.
    pub now: f64,
    /// Per task: completed successfully.
    pub done: &'a [bool],
    /// Per task: an attempt is executing right now.
    pub running: &'a [bool],
    /// Per task: placement of the finished or in-flight attempt, if any.
    pub placed: &'a [Option<ScheduledTask>],
}

/// Decides how execution continues after faults.
///
/// The engine consults the policy on every failure and once per dispatch
/// round (after the base [`OnlinePolicy`](crate::OnlinePolicy) has
/// launched, or instead of it when [`RecoveryPolicy::overrides_dispatch`]
/// is true). Recovery launches obey the same rules as policy launches:
/// disjoint subsets of the free processors, ready tasks only.
pub trait RecoveryPolicy {
    /// Display name for reports.
    fn name(&self) -> &str;

    /// One-time setup before execution starts.
    fn prepare(&mut self, _g: &TaskGraph, _cluster: &Cluster) {}

    /// A processor just failed permanently (its victims are reported to
    /// [`RecoveryPolicy::on_task_failure`] individually, right after).
    fn on_proc_failure(&mut self, _ctx: &RecoveryCtx<'_>, _proc: ProcId) {}

    /// A task attempt just died (scripted crash or killed by a processor
    /// failure), leaving the task with no attempt in flight. Returns what
    /// the engine should do with it.
    fn on_task_failure(&mut self, _ctx: &RecoveryCtx<'_>, _task: TaskId) -> RecoveryAction {
        RecoveryAction::Abort
    }

    /// The watchdog flagged `attempt` of `task` as running past its
    /// deadline (`OnlineConfig::straggler_threshold` × the noise-free
    /// estimate). The default ignores it; [`Hedged`] answers with
    /// [`StragglerAction::Speculate`].
    fn on_straggler(
        &mut self,
        _ctx: &RecoveryCtx<'_>,
        _task: TaskId,
        _attempt: u32,
    ) -> StragglerAction {
        StragglerAction::Ignore
    }

    /// When true, the base policy is no longer consulted and
    /// [`RecoveryPolicy::dispatch_recovery`] owns all launch decisions.
    fn overrides_dispatch(&self) -> bool {
        false
    }

    /// Offered the still-unlaunched `ready` tasks and `free` processors
    /// once per dispatch round; returns extra launches. `stall` is true
    /// when nothing is running and the round has launched nothing — the
    /// last chance to make progress before the engine aborts the run.
    fn dispatch_recovery(
        &mut self,
        _ctx: &RecoveryCtx<'_>,
        _ready: &[TaskId],
        _free: &ProcSet,
        _stall: bool,
        _log: &mut Vec<TraceEvent>,
    ) -> Vec<(TaskId, ProcSet)> {
        Vec::new()
    }
}

/// Baseline recovery: the first task failure aborts the run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FailStop;

impl RecoveryPolicy for FailStop {
    fn name(&self) -> &str {
        "fail-stop"
    }
}

/// Re-molds failed tasks onto the surviving processors.
///
/// Every failed task is retried; retried (and stall-stranded) tasks are
/// placed by LoCBS's run-time rule — highest bottom level first, width
/// `min(Pbest, free)`, on the locality-maximal free subset given where
/// their finished parents actually ran. The base policy keeps driving
/// the untouched part of the plan.
#[derive(Default)]
pub struct RetryShrink {
    levels: Option<Levels>,
    orphaned: Vec<bool>,
}

impl RetryShrink {
    /// A fresh policy (state is built in `prepare`).
    pub fn new() -> Self {
        Self::default()
    }
}

impl RecoveryPolicy for RetryShrink {
    fn name(&self) -> &str {
        "retry-shrink"
    }

    fn prepare(&mut self, g: &TaskGraph, _cluster: &Cluster) {
        self.levels = Some(g.levels(|t| g.task(t).profile.time(1), |_| 0.0));
        self.orphaned = vec![false; g.n_tasks()];
    }

    fn on_task_failure(&mut self, _ctx: &RecoveryCtx<'_>, task: TaskId) -> RecoveryAction {
        self.orphaned[task.index()] = true;
        RecoveryAction::Retry
    }

    fn dispatch_recovery(
        &mut self,
        ctx: &RecoveryCtx<'_>,
        ready: &[TaskId],
        free: &ProcSet,
        stall: bool,
        _log: &mut Vec<TraceEvent>,
    ) -> Vec<(TaskId, ProcSet)> {
        let levels = self.levels.as_ref().expect("prepare ran");
        let mut mine: Vec<TaskId> = ready
            .iter()
            .copied()
            .filter(|t| self.orphaned[t.index()])
            .collect();
        if stall && mine.is_empty() {
            // The base policy can make no progress (e.g. the plan wants
            // dead processors): adopt whatever is stranded.
            mine = ready.to_vec();
            for &t in &mine {
                self.orphaned[t.index()] = true;
            }
        }
        mine.sort_by(|&a, &b| {
            levels.bottom[b.index()]
                .total_cmp(&levels.bottom[a.index()])
                .then(a.cmp(&b))
        });
        let mut remaining = free.clone();
        let mut launches = Vec::new();
        let (unplaced, mut scores) = (ProcSet::new(), Vec::new());
        for t in mine {
            if remaining.is_empty() {
                break;
            }
            let np = ctx
                .g
                .task(t)
                .profile
                .pbest(ctx.cluster.n_procs)
                .min(remaining.len())
                .max(1);
            locality::input_locality_scores_into(
                ctx.g,
                t,
                ctx.cluster.n_procs,
                |p| {
                    ctx.placed[p.index()]
                        .as_ref()
                        .map_or(&unplaced, |e| &e.procs)
                },
                &mut scores,
            );
            let Some(procs) = locality::select_max_locality(&remaining, np, &scores) else {
                break;
            };
            remaining = remaining.difference(&procs);
            launches.push((t, procs));
        }
        launches
    }
}

/// Re-runs LoC-MPS on the residual DAG over the surviving processors.
///
/// On the first failure the policy takes over dispatch entirely: the
/// pending tasks (not done, not running) are extracted as a
/// [`ResidualDag`], the pool of usable processors is compacted into a
/// dense sub-cluster, the default LoC-MPS is re-run, and the resulting
/// plan — mapped back to real processor ids — is followed until the next
/// failure dirties it again.
///
/// The constructor decides whether the policy learns:
///
/// * [`Remold::replan`] (`replan`) schedules the residual DAG as given
///   over every survivor and leaves straggler alarms unanswered.
/// * [`Remold::locmps`] and [`Remold::with_store`] (`remold`) re-schedule
///   against profiles *corrected* by a
///   [`PerfModelStore`](crate::PerfModelStore), and straggler alarms both
///   teach the store (elapsed wall-clock as a lower bound on the attempt's
///   true runtime) and trigger a re-mold — processor counts change, not
///   just placement. Processors hosting suspected-straggler attempts are
///   quarantined: subsequent re-molds schedule the pending work onto the
///   alive-and-unsuspected processors only (falling back to all survivors
///   when everything is suspect), so systematically degraded processors
///   stop receiving new tasks. Launch widths therefore never exceed the
///   survivor capacity by construction.
pub struct Remold {
    /// Whether straggler alarms teach `store` and trigger re-molds;
    /// `false` is the frozen `replan` flavour.
    learns: bool,
    store: crate::perfmodel::PerfModelStore,
    active: bool,
    dirty: bool,
    plan: Vec<Option<(f64, ProcSet)>>,
    suspect: ProcSet,
}

impl Remold {
    /// Re-molds with an empty store.
    pub fn locmps() -> Self {
        Self::with_store(crate::perfmodel::PerfModelStore::new())
    }

    /// Re-molds against a pre-seeded performance-model store (e.g. one
    /// persisted from earlier runs), enabling cross-run learning.
    pub fn with_store(store: crate::perfmodel::PerfModelStore) -> Self {
        Self {
            learns: true,
            store,
            active: false,
            dirty: false,
            plan: Vec::new(),
            suspect: ProcSet::new(),
        }
    }

    /// The frozen flavour: replans with the default LoC-MPS over every
    /// survivor, never learns, and ignores straggler alarms.
    pub fn replan() -> Self {
        Self {
            learns: false,
            ..Self::locmps()
        }
    }

    /// Read access to the store (e.g. to inspect learned corrections);
    /// always empty for [`Remold::replan`].
    pub fn store(&self) -> &crate::perfmodel::PerfModelStore {
        &self.store
    }

    /// Consumes the policy, returning the store with everything learned
    /// during the run — the caller persists it or seeds the next run.
    pub fn into_store(self) -> crate::perfmodel::PerfModelStore {
        self.store
    }

    fn remold(&mut self, ctx: &RecoveryCtx<'_>, log: &mut Vec<TraceEvent>) {
        for slot in &mut self.plan {
            *slot = None;
        }
        // Quarantine suspects; if every survivor is suspect the run must
        // still make progress, so fall back to the full alive set.
        let healthy = ctx.alive.difference(&self.suspect);
        let pool = if healthy.is_empty() {
            ctx.alive.clone()
        } else {
            healthy
        };
        let n_pool = pool.len();
        if n_pool == 0 {
            return;
        }
        let corrected;
        let g = if self.learns {
            corrected = self.store.corrected_graph(ctx.g, n_pool);
            &corrected
        } else {
            ctx.g
        };
        let Some(res) =
            ResidualDag::extract(g, |t| !ctx.done[t.index()] && !ctx.running[t.index()])
        else {
            return;
        };
        let dense = Cluster {
            n_procs: n_pool,
            ..ctx.cluster.clone()
        };
        let pool_ids = pool.to_vec();
        let Ok(out) = LocMps::default().schedule(&res.graph, &dense) else {
            // Leave the plan empty; the engine's stall handling aborts.
            return;
        };
        for (ri, &parent) in res.to_parent.iter().enumerate() {
            let entry = out
                .schedule
                .get(TaskId(ri as u32))
                .expect("residual plan covers the residual graph");
            let mut procs = ProcSet::new();
            for p in entry.procs.iter() {
                procs.insert(pool_ids[p as usize]);
            }
            self.plan[parent.index()] = Some((entry.start, procs));
        }
        log.push(TraceEvent {
            time: ctx.now,
            kind: TraceEventKind::Replan {
                pending: res.graph.n_tasks(),
                procs: n_pool,
            },
        });
    }
}

impl RecoveryPolicy for Remold {
    fn name(&self) -> &str {
        if self.learns {
            "remold"
        } else {
            "replan"
        }
    }

    fn prepare(&mut self, g: &TaskGraph, _cluster: &Cluster) {
        self.plan = vec![None; g.n_tasks()];
    }

    fn on_proc_failure(&mut self, _ctx: &RecoveryCtx<'_>, _proc: ProcId) {
        self.active = true;
        self.dirty = true;
    }

    fn on_task_failure(&mut self, _ctx: &RecoveryCtx<'_>, _task: TaskId) -> RecoveryAction {
        self.active = true;
        self.dirty = true;
        RecoveryAction::Retry
    }

    fn on_straggler(
        &mut self,
        ctx: &RecoveryCtx<'_>,
        task: TaskId,
        _attempt: u32,
    ) -> StragglerAction {
        if !self.learns {
            return StragglerAction::Ignore;
        }
        // Learn from the alarm: the attempt has already consumed
        // `now - compute_start` wall-clock seconds, a *lower bound* on
        // the task's runtime at this width (the FaultPlan is not visible
        // here, so no slowdown deflation — the post-run
        // `PerfModelStore::ingest_trace` supplies the corrected number;
        // this in-run observation only has to push the re-mold away from
        // the slow pool, and the store's saturating ratio ingestion keeps
        // it bounded). Degenerate observations (zero-length windows) are
        // rejected by the store, never a panic.
        if let Some(entry) = ctx.placed[task.index()].as_ref() {
            let np = entry.procs.len();
            let observed = ctx.now - entry.compute_start;
            let predicted = ctx.g.task(task).profile.time(np);
            let _ = self
                .store
                .observe(&ctx.g.task(task).name, np, predicted, observed);
            self.suspect = self.suspect.union(&entry.procs);
        }
        self.active = true;
        self.dirty = true;
        StragglerAction::Ignore
    }

    fn overrides_dispatch(&self) -> bool {
        self.active
    }

    fn dispatch_recovery(
        &mut self,
        ctx: &RecoveryCtx<'_>,
        ready: &[TaskId],
        free: &ProcSet,
        stall: bool,
        log: &mut Vec<TraceEvent>,
    ) -> Vec<(TaskId, ProcSet)> {
        if !self.active {
            return Vec::new();
        }
        if self.dirty {
            self.remold(ctx, log);
            self.dirty = false;
        }
        let mut order: Vec<TaskId> = ready.to_vec();
        order.sort_by(|&a, &b| {
            let sa = self.plan[a.index()].as_ref().map_or(f64::INFINITY, |p| p.0);
            let sb = self.plan[b.index()].as_ref().map_or(f64::INFINITY, |p| p.0);
            sa.total_cmp(&sb).then(a.cmp(&b))
        });
        let mut remaining = free.clone();
        let mut launches = Vec::new();
        for t in order {
            if let Some((_, procs)) = &self.plan[t.index()] {
                if !procs.is_empty() && procs.is_subset(&remaining) {
                    remaining = remaining.difference(procs);
                    launches.push((t, procs.clone()));
                }
            }
        }
        if launches.is_empty() && stall && !remaining.is_empty() {
            // Safety net for plans invalidated between re-molds: mold the
            // first ready task onto the lowest free survivors so the run
            // keeps making progress instead of aborting.
            if let Some(&t) = ready.first() {
                let np = ctx
                    .g
                    .task(t)
                    .profile
                    .pbest(ctx.cluster.n_procs)
                    .min(remaining.len())
                    .max(1);
                launches.push((t, remaining.iter().take(np).collect()));
            }
        }
        launches
    }
}

/// Adds speculative re-execution to any inner recovery policy.
///
/// Every hook delegates to the wrapped policy; only
/// [`RecoveryPolicy::on_straggler`] is overridden to always request a
/// duplicate. The report name is `hedged-<inner>`.
pub struct Hedged {
    inner: Box<dyn RecoveryPolicy>,
    name: String,
}

impl Hedged {
    /// Wraps `inner`, answering every straggler alarm with
    /// [`StragglerAction::Speculate`].
    pub fn new(inner: Box<dyn RecoveryPolicy>) -> Self {
        let name = format!("hedged-{}", inner.name());
        Self { inner, name }
    }
}

impl RecoveryPolicy for Hedged {
    fn name(&self) -> &str {
        &self.name
    }

    fn prepare(&mut self, g: &TaskGraph, cluster: &Cluster) {
        self.inner.prepare(g, cluster);
    }

    fn on_proc_failure(&mut self, ctx: &RecoveryCtx<'_>, proc: ProcId) {
        self.inner.on_proc_failure(ctx, proc);
    }

    fn on_task_failure(&mut self, ctx: &RecoveryCtx<'_>, task: TaskId) -> RecoveryAction {
        self.inner.on_task_failure(ctx, task)
    }

    fn on_straggler(
        &mut self,
        _ctx: &RecoveryCtx<'_>,
        _task: TaskId,
        _attempt: u32,
    ) -> StragglerAction {
        StragglerAction::Speculate
    }

    fn overrides_dispatch(&self) -> bool {
        self.inner.overrides_dispatch()
    }

    fn dispatch_recovery(
        &mut self,
        ctx: &RecoveryCtx<'_>,
        ready: &[TaskId],
        free: &ProcSet,
        stall: bool,
        log: &mut Vec<TraceEvent>,
    ) -> Vec<(TaskId, ProcSet)> {
        self.inner.dispatch_recovery(ctx, ready, free, stall, log)
    }
}

/// Builds a recovery policy from its report name: `failstop`/`fail-stop`,
/// `retryshrink`/`retry-shrink`, `replan`, `remold`, or any of those
/// behind a `hedged-` prefix (e.g. `hedged-replan`). Returns `None` for
/// unknown names.
pub fn recovery_by_name(name: &str) -> Option<Box<dyn RecoveryPolicy>> {
    recovery_with_store(name, crate::perfmodel::PerfModelStore::new())
}

/// [`recovery_by_name`] with a `remold` recovery, plain or behind
/// `hedged-`, seeded from `store` ([`Remold::with_store`]); every other
/// recovery ignores the store.
pub fn recovery_with_store(
    name: &str,
    store: crate::perfmodel::PerfModelStore,
) -> Option<Box<dyn RecoveryPolicy>> {
    if let Some(inner) = name.strip_prefix("hedged-") {
        return recovery_with_store(inner, store)
            .map(|p| Box::new(Hedged::new(p)) as Box<dyn RecoveryPolicy>);
    }
    match name {
        "failstop" | "fail-stop" => Some(Box::new(FailStop)),
        "retryshrink" | "retry-shrink" => Some(Box::new(RetryShrink::new())),
        "replan" => Some(Box::new(Remold::replan())),
        "remold" => Some(Box::new(Remold::with_store(store))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_every_kind() {
        let plan = FaultPlan::parse("fail:1@8, slow:0@2-9x3, crash:4@0.5x2, crash:7@0.25").unwrap();
        assert_eq!(plan.faults().len(), 4);
        assert_eq!(plan.proc_failures().collect::<Vec<_>>(), vec![(1, 8.0)]);
        assert_eq!(plan.crash_fraction(TaskId(4), 0), Some(0.5));
        assert_eq!(plan.crash_fraction(TaskId(4), 1), Some(0.5));
        assert_eq!(plan.crash_fraction(TaskId(4), 2), None);
        assert_eq!(plan.crash_fraction(TaskId(7), 0), Some(0.25));
        assert_eq!(plan.crash_fraction(TaskId(7), 1), None);
        assert_eq!(plan.crash_fraction(TaskId(5), 0), None);
    }

    #[test]
    fn parse_rejects_malformed_and_invalid() {
        assert!(FaultPlan::parse("nope:1@2").is_err());
        assert!(FaultPlan::parse("fail:x@2").is_err());
        assert!(FaultPlan::parse("fail:1@-2").is_err());
        assert!(FaultPlan::parse("slow:1@5-2x3").is_err());
        assert!(FaultPlan::parse("slow:1@2-5x0.5").is_err());
        assert!(FaultPlan::parse("crash:1@1.5").is_err());
        assert!(FaultPlan::parse("crash:1@0.5x0").is_err());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn slowdown_compounds_per_proc_and_maxes_across_set() {
        let plan = FaultPlan::parse("slow:0@0-10x2,slow:0@5-10x3,slow:1@0-10x4").unwrap();
        let p0 = ProcSet::single(0);
        assert_eq!(plan.slowdown_factor(&p0, 2.0), 2.0);
        assert_eq!(plan.slowdown_factor(&p0, 7.0), 6.0, "windows compound");
        assert_eq!(plan.slowdown_factor(&p0, 10.0), 1.0, "until is exclusive");
        let mut both = ProcSet::single(0);
        both.insert(1);
        assert_eq!(plan.slowdown_factor(&both, 2.0), 4.0, "slowest member");
    }

    #[test]
    fn to_spec_roundtrips_through_parse() {
        let spec = "fail:1@8,slow:0@2-9x3,crash:4@0.5x2,crash:7@0.25";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.to_spec(), spec);
        assert_eq!(FaultPlan::parse(&plan.to_spec()).unwrap(), plan);
        assert_eq!(FaultPlan::new().to_spec(), "");
    }

    /// Regression: `-0.0` passes the `< 0.0` range checks but used to be
    /// stored un-normalized, so `to_spec` printed `slow:0@-0-1x2` — whose
    /// leading `-` the window parser reads as the `T0-T1` separator,
    /// making the minimized reproducer of a chaos failure unparseable.
    #[test]
    fn negative_zero_round_trips_exactly() {
        let mut plan = FaultPlan::new();
        plan.push(Fault::Slowdown {
            proc: 0,
            from: -0.0,
            until: 1.0,
            factor: 2.0,
        })
        .unwrap();
        plan.push(Fault::ProcFail { proc: 1, at: -0.0 }).unwrap();
        let spec = plan.to_spec();
        let back = FaultPlan::parse(&spec).expect(&spec);
        assert_eq!(back, plan, "{spec}");
        assert_eq!(spec, "slow:0@0-1x2,fail:1@0");
    }

    /// Shortest-form `Display` must survive the grammar for adversarial
    /// magnitudes: huge, subnormal, and maximally-precise mantissas all
    /// round-trip to the identical bits.
    #[test]
    fn to_spec_is_exact_for_adversarial_floats() {
        let times = [
            0.0,
            5e-324,            // smallest subnormal
            f64::MIN_POSITIVE, // smallest normal
            0.1,
            1.0 / 3.0,
            2.0 + 6.0 * 0.7234567891234567, // a keyed-draw-shaped factor
            1e300,
            f64::MAX,
        ];
        for (i, &t) in times.iter().enumerate() {
            let mut plan = FaultPlan::new();
            plan.push(Fault::ProcFail { proc: 0, at: t }).unwrap();
            // `from + 1.0` must exceed `from`, so fold huge magnitudes
            // into a range where +1.0 is representable; the modulo keeps
            // the mantissa adversarial.
            let from = t % 1e15;
            plan.push(Fault::Slowdown {
                proc: 1,
                from,
                until: from + 1.0,
                factor: 1.0 + t.min(1e12),
            })
            .unwrap();
            let frac = (t % 1.0).clamp(0.25, 0.75);
            plan.push(Fault::Crash {
                task: TaskId(i as u32),
                at_frac: frac,
                attempts: 1 + i as u32,
            })
            .unwrap();
            let spec = plan.to_spec();
            let back = FaultPlan::parse(&spec).expect(&spec);
            assert_eq!(back, plan, "lossy round-trip for {t:e}: {spec}");
        }
    }

    /// The random generator's plans must obey the same validation (and
    /// normalization) as hand-built ones: every generated plan re-parses
    /// from its own spec.
    #[test]
    fn random_plans_round_trip_through_spec() {
        for seed in 0..32u64 {
            let plan = FaultPlan::random_proc_failures(seed, 8, 5, 100.0);
            let spec = plan.to_spec();
            assert_eq!(FaultPlan::parse(&spec).expect(&spec), plan, "{spec}");
        }
    }

    #[test]
    fn finish_after_integrates_piecewise_rates() {
        let plan = FaultPlan::parse("slow:0@10-20x4").unwrap();
        let p0 = ProcSet::single(0);
        // Entirely before the window: unaffected, and exactly from+work.
        assert_eq!(plan.finish_after(&p0, 0.0, 5.0), 5.0);
        // Entirely inside the window: work × factor.
        assert_eq!(plan.finish_after(&p0, 10.0, 2.0), 18.0);
        // Window opens AND closes mid-attempt: 10 nominal seconds at
        // full rate, [10, 20) absorbs 2.5 more at factor 4, and the
        // remaining 2.5 finish at full rate — 22.5 total.
        assert!((plan.finish_after(&p0, 0.0, 15.0) - 22.5).abs() < 1e-12);
        // Window closes mid-attempt: 2.5 nominal seconds absorbed by
        // [10, 20), the rest at full rate after 20.
        assert!((plan.finish_after(&p0, 10.0, 7.5) - 25.0).abs() < 1e-12);
        // Unrelated processor: unaffected.
        assert_eq!(plan.finish_after(&ProcSet::single(1), 0.0, 15.0), 15.0);
        // Compounding windows still integrate segment by segment.
        let stacked = FaultPlan::parse("slow:0@0-10x2,slow:0@5-10x3").unwrap();
        // [0,5) at 2x absorbs 2.5, [5,10) at 6x absorbs 5/6, rest at 1x.
        let done_inside = 2.5 + 5.0 / 6.0;
        let want = 10.0 + (4.0 - done_inside);
        assert!((stacked.finish_after(&p0, 0.0, 4.0) - want).abs() < 1e-12);
    }

    #[test]
    fn recovery_by_name_resolves_plain_and_hedged() {
        for (spec, want) in [
            ("failstop", "fail-stop"),
            ("fail-stop", "fail-stop"),
            ("retryshrink", "retry-shrink"),
            ("replan", "replan"),
            ("hedged-retryshrink", "hedged-retry-shrink"),
            ("hedged-replan", "hedged-replan"),
            ("hedged-failstop", "hedged-fail-stop"),
        ] {
            let p = recovery_by_name(spec).unwrap_or_else(|| panic!("{spec} must resolve"));
            assert_eq!(p.name(), want);
        }
        assert!(recovery_by_name("nope").is_none());
        assert!(recovery_by_name("hedged-nope").is_none());
    }

    #[test]
    fn crash_storm_terminates_via_attempts_exhausted() {
        use crate::engine::{OnlineConfig, RuntimeEngine, TraceEventKind};
        use crate::policy::GreedyOneProc;
        use locmps_speedup::ExecutionProfile;

        let mut g = TaskGraph::new();
        g.add_task("doomed", ExecutionProfile::linear(10.0));
        g.add_task("fine", ExecutionProfile::linear(4.0));
        let cluster = Cluster::new(2, 12.5);
        // Livelock-shaped plan: every attempt of task 0 crashes, forever.
        let faults = FaultPlan::parse("crash:0@0.5x999999").unwrap();
        let trace = RuntimeEngine::new(&g, &cluster, OnlineConfig::default()).run_with_faults(
            &mut GreedyOneProc,
            &faults,
            &mut RetryShrink::new(),
        );
        assert!(trace.aborted && !trace.is_complete());
        assert_eq!(trace.completed, 1, "the healthy task still finishes");
        let cfg = OnlineConfig::default();
        assert!(
            trace.events.iter().any(|e| matches!(
                e.kind,
                TraceEventKind::AttemptsExhausted { task: TaskId(0), attempts }
                    if attempts == cfg.max_attempts
            )),
            "budget-spent abort must be recorded: {:#?}",
            trace.events
        );
        // Partial trace: every start is still closed by finish or crash.
        let starts = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::TaskStart { .. }))
            .count();
        let closes = trace
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    TraceEventKind::TaskFinish { .. } | TraceEventKind::TaskCrash { .. }
                )
            })
            .count();
        assert_eq!(starts, closes);
        // max_attempts starts + crashes for task 0, a retry between each,
        // one start + finish for task 1, one exhausted + one abort.
        let expected = cfg.max_attempts as usize * 2 + (cfg.max_attempts as usize - 1) + 4;
        assert_eq!(trace.events.len(), expected);
    }

    #[test]
    fn random_failures_are_distinct_seeded_and_spare_one_proc() {
        let a = FaultPlan::random_proc_failures(7, 4, 10, 100.0);
        assert_eq!(a.faults().len(), 3, "clamped to n_procs - 1");
        let mut procs: Vec<ProcId> = a.proc_failures().map(|(p, _)| p).collect();
        procs.sort_unstable();
        procs.dedup();
        assert_eq!(procs.len(), 3, "distinct processors");
        for (_, at) in a.proc_failures() {
            assert!(at > 0.0 && at < 100.0);
        }
        assert_eq!(a, FaultPlan::random_proc_failures(7, 4, 10, 100.0));
        assert_ne!(a, FaultPlan::random_proc_failures(8, 4, 10, 100.0));
    }
}
