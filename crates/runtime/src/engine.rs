//! The event-driven execution engine.
//!
//! Discrete events are task completions, scripted task crashes, and
//! scripted processor failures; at every event (and at time 0) the policy
//! is offered the current ready set and free processors and returns
//! launch decisions. Realized task durations are the profile time on the
//! granted processor count multiplied by a seeded, per-task log-normal
//! factor (keyed by `TaskId`, see [`locmps_sim::seeding`]) — identical
//! across policies for fair comparison.
//!
//! Faults come from a [`FaultPlan`] and are survived (or not) according
//! to a [`RecoveryPolicy`]; everything that
//! happens is recorded in the trace's structured event log, which the
//! `locmps-analysis` LM3xx diagnostics audit after the fact.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use locmps_core::{locality, CommModel, Schedule, ScheduledTask};
use locmps_platform::{Cluster, CommOverlap, ProcId, ProcSet};
use locmps_sim::seeding;
use locmps_taskgraph::{TaskGraph, TaskId};
use serde::Serialize;

use crate::fault::{
    FailStop, FaultPlan, RecoveryAction, RecoveryCtx, RecoveryPolicy, StragglerAction,
};
use crate::policy::OnlinePolicy;

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct OnlineConfig {
    /// Seed of the per-task duration perturbation.
    pub seed: u64,
    /// Coefficient of variation of the log-normal duration noise
    /// (0 disables perturbation).
    pub exec_cv: f64,
    /// Watchdog stretch threshold: a primary attempt still running
    /// `straggler_threshold ×` its noise-free estimate past its compute
    /// start is suspected as a straggler
    /// ([`TraceEventKind::StragglerSuspected`]) and
    /// `RecoveryPolicy::on_straggler` fires once for it. The default
    /// `f64::INFINITY` disables the watchdog entirely — no deadline
    /// events enter the heap, so traces stay bit-identical to the
    /// watchdog-free engine.
    pub straggler_threshold: f64,
    /// Global cap on speculative duplicates in flight at once.
    pub max_speculative: usize,
    /// Per-task budget of launched attempts (speculative duplicates
    /// included). When a failure leaves a task with no attempt in flight
    /// and its budget spent, the run aborts via
    /// [`TraceEventKind::AttemptsExhausted`] instead of retrying forever
    /// — adversarial plans like `crash:T@0.5x999999` terminate.
    pub max_attempts: u32,
    /// Base delay of the deterministic exponential retry backoff: the
    /// requeue after a task's k-th failed attempt waits
    /// `backoff × 2^(k-1)` before the task re-enters the ready set.
    /// `0.0` (the default) requeues immediately, matching the
    /// backoff-free engine bit for bit.
    pub backoff: f64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            exec_cv: 0.0,
            straggler_threshold: f64::INFINITY,
            max_speculative: 2,
            max_attempts: 16,
            backoff: 0.0,
        }
    }
}

/// A rejected [`OnlineConfig`] field: the typed form of the engine's
/// admission checks, shared by every front end (CLI flags, the serve
/// daemon's JSON boundary) so a bad configuration is refused *before* it
/// can poison the event heap with a non-finite key.
#[derive(Debug, Clone, PartialEq)]
pub enum OnlineConfigError {
    /// A float field is `NaN`/`±inf` where a finite value is required.
    NonFinite {
        /// Which field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A float field is negative.
    Negative {
        /// Which field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// `straggler_threshold` at or below 1 would alarm on every task
    /// before its noise-free estimate elapses.
    ThresholdTooLow {
        /// The rejected value.
        value: f64,
    },
    /// `max_attempts == 0` could never launch anything.
    ZeroAttempts,
}

impl std::fmt::Display for OnlineConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonFinite { field, value } => {
                write!(f, "{field} must be finite (got {value})")
            }
            Self::Negative { field, value } => {
                write!(f, "{field} must be >= 0 (got {value})")
            }
            Self::ThresholdTooLow { value } => write!(
                f,
                "straggler_threshold must be > 1 (got {value}; alarms would beat the estimate)"
            ),
            Self::ZeroAttempts => write!(f, "max_attempts must be >= 1"),
        }
    }
}

impl std::error::Error for OnlineConfigError {}

impl OnlineConfig {
    /// Checks every field the engine's arithmetic depends on.
    ///
    /// `straggler_threshold = +inf` is legal (it disables the watchdog);
    /// every other float must be finite, `backoff` and `exec_cv`
    /// non-negative, and `max_attempts` at least 1. The engine saturates
    /// backoff delays at [`MAX_RETRY_DELAY`] as defense in depth, but
    /// front ends should reject bad configurations here, with a typed
    /// error, instead of running with silently clamped semantics.
    ///
    /// # Errors
    /// The first [`OnlineConfigError`] found, field by field.
    pub fn validate(&self) -> Result<(), OnlineConfigError> {
        if !self.exec_cv.is_finite() {
            return Err(OnlineConfigError::NonFinite {
                field: "exec_cv",
                value: self.exec_cv,
            });
        }
        if self.exec_cv < 0.0 {
            return Err(OnlineConfigError::Negative {
                field: "exec_cv",
                value: self.exec_cv,
            });
        }
        // NaN is rejected by the same arm as a too-low threshold.
        if self.straggler_threshold.is_nan() || self.straggler_threshold <= 1.0 {
            return Err(OnlineConfigError::ThresholdTooLow {
                value: self.straggler_threshold,
            });
        }
        if !self.backoff.is_finite() {
            return Err(OnlineConfigError::NonFinite {
                field: "backoff",
                value: self.backoff,
            });
        }
        if self.backoff < 0.0 {
            return Err(OnlineConfigError::Negative {
                field: "backoff",
                value: self.backoff,
            });
        }
        if self.max_attempts == 0 {
            return Err(OnlineConfigError::ZeroAttempts);
        }
        Ok(())
    }
}

// Engine inputs and outputs cross thread boundaries in the serve daemon
// (jobs are executed on a worker pool and traces shared across
// connections); keep them plain owned data.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<OnlineConfig>();
    assert_send_sync::<ExecutionTrace>();
    assert_send_sync::<TraceEvent>();
};

/// Saturation bound on one retry-backoff delay. The exponent of
/// `backoff × 2^(k-1)` is already clamped, but a huge (finite) base —
/// `backoff ≥ ~4.2e299` at the exponent cap — would still overflow the
/// product to `+inf` and push a non-finite key into the event heap, where
/// it corrupts the total event order and every downstream makespan. Any
/// delay is therefore capped here: far beyond any plausible simulated
/// time, yet small enough that `now + delay` stays finite across a full
/// attempt budget.
pub const MAX_RETRY_DELAY: f64 = 1e18;

/// One entry of the structured execution log, in processing order.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceEvent {
    /// Simulation time at which the event happened.
    pub time: f64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// The event kinds a trace records.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum TraceEventKind {
    /// An attempt of a task was launched.
    TaskStart {
        /// The launched task.
        task: TaskId,
        /// 0-based attempt number.
        attempt: u32,
        /// Processors granted to this attempt.
        procs: ProcSet,
    },
    /// An attempt completed successfully.
    TaskFinish {
        /// The finished task.
        task: TaskId,
        /// The attempt that finished.
        attempt: u32,
    },
    /// An attempt died — scripted crash or killed by a processor failure.
    TaskCrash {
        /// The failed task.
        task: TaskId,
        /// The attempt that died.
        attempt: u32,
        /// Compute work lost with it (processor-seconds).
        lost: f64,
    },
    /// A processor failed permanently.
    ProcDown {
        /// The failed processor.
        proc: ProcId,
    },
    /// Recovery requeued a failed task for another attempt.
    Retry {
        /// The requeued task.
        task: TaskId,
        /// The attempt number it will run as.
        attempt: u32,
    },
    /// Recovery re-planned the residual DAG over the survivors.
    Replan {
        /// Tasks in the residual DAG.
        pending: usize,
        /// Surviving processors planned over.
        procs: usize,
    },
    /// The watchdog flagged an attempt as running past its deadline.
    StragglerSuspected {
        /// The suspected task.
        task: TaskId,
        /// The attempt past its deadline.
        attempt: u32,
    },
    /// A speculative duplicate of a straggling attempt was launched.
    SpeculativeLaunch {
        /// The hedged task.
        task: TaskId,
        /// Attempt number of the duplicate.
        attempt: u32,
        /// Processors granted to the duplicate.
        procs: ProcSet,
    },
    /// A speculative duplicate finished first and won its race.
    SpeculativeWin {
        /// The task whose duplicate won.
        task: TaskId,
        /// The winning attempt.
        attempt: u32,
    },
    /// A redundant attempt was killed after a sibling finished first.
    AttemptKilled {
        /// The task.
        task: TaskId,
        /// The killed attempt.
        attempt: u32,
        /// Duplicate compute work thrown away (processor-seconds).
        wasted: f64,
    },
    /// A task spent its whole attempt budget
    /// (`OnlineConfig::max_attempts`); the run aborts.
    AttemptsExhausted {
        /// The task that ran out of attempts.
        task: TaskId,
        /// Attempts launched (= the budget).
        attempts: u32,
    },
    /// The run gave up; in-flight tasks were drained first.
    Abort {
        /// Tasks that never completed.
        unfinished: Vec<TaskId>,
    },
}

/// The outcome of one online execution.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExecutionTrace {
    /// As-executed placements and times of every *completed* task (a
    /// partial schedule when the run aborted).
    pub schedule: Schedule,
    /// Completion time of the last finished task.
    pub makespan: f64,
    /// Number of dispatch rounds the policy was consulted.
    pub dispatch_rounds: usize,
    /// Structured log of everything that happened, in processing order.
    pub events: Vec<TraceEvent>,
    /// Tasks in the application graph.
    pub n_tasks: usize,
    /// Tasks that completed successfully.
    pub completed: usize,
    /// Whether the run gave up before completing every task.
    pub aborted: bool,
}

impl ExecutionTrace {
    /// Whether every task of the graph completed.
    pub fn is_complete(&self) -> bool {
        self.completed == self.n_tasks
    }

    /// Total compute work lost to failed attempts (processor-seconds).
    pub fn work_lost(&self) -> f64 {
        self.events
            .iter()
            .map(|e| match e.kind {
                TraceEventKind::TaskCrash { lost, .. } => lost,
                _ => 0.0,
            })
            .sum()
    }

    /// Number of re-attempted launches (starts with `attempt > 0`).
    pub fn retries(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::TaskStart { attempt, .. } if attempt > 0))
            .count()
    }

    /// Number of processors that failed during the run.
    pub fn procs_lost(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::ProcDown { .. }))
            .count()
    }

    /// Number of residual-DAG replans recovery performed.
    pub fn replans(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::Replan { .. }))
            .count()
    }

    /// Number of watchdog straggler alarms.
    pub fn stragglers_suspected(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::StragglerSuspected { .. }))
            .count()
    }

    /// Number of speculative duplicates launched.
    pub fn speculative_launches(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::SpeculativeLaunch { .. }))
            .count()
    }

    /// Number of races a speculative duplicate won.
    pub fn speculative_wins(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::SpeculativeWin { .. }))
            .count()
    }

    /// Duplicate compute work discarded by loser kills
    /// (processor-seconds).
    pub fn wasted_duplicate_work(&self) -> f64 {
        self.events
            .iter()
            .map(|e| match e.kind {
                TraceEventKind::AttemptKilled { wasted, .. } => wasted,
                _ => 0.0,
            })
            .sum()
    }

    /// The task that spent its whole attempt budget, if the run died
    /// that way.
    pub fn attempts_exhausted(&self) -> Option<TaskId> {
        self.events.iter().find_map(|e| match e.kind {
            TraceEventKind::AttemptsExhausted { task, .. } => Some(task),
            _ => None,
        })
    }
}

/// Ordered f64 wrapper for the event heap.
#[derive(Clone, Copy, PartialEq)]
struct Time(f64);
impl Eq for Time {}
impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Heap event ranks: at equal times, completions resolve before scripted
/// crashes, processor failures come after those (a task finishing exactly
/// when its processor dies counts as finished), watchdog alarms resolve
/// only once every same-instant failure has (an attempt killed exactly at
/// its deadline is not a straggler), and backoff retry releases come
/// last. With no faults, an infinite straggler threshold and zero
/// backoff, only `RANK_FINISH` events exist and the order reduces to the
/// classic `(time, task)` — such executions are bit-identical to the
/// pre-fault engine.
const RANK_FINISH: u8 = 0;
const RANK_CRASH: u8 = 1;
const RANK_PROC_FAIL: u8 = 2;
const RANK_WATCHDOG: u8 = 3;
const RANK_RETRY: u8 = 4;

type Ev = Reverse<(Time, u8, u32, u32)>;

/// One in-flight attempt of a task. A task has at most two: the primary
/// and one speculative duplicate.
struct Flight {
    att: u32,
    entry: ScheduledTask,
    speculative: bool,
}

/// Mutable execution state, factored out so event handlers and the
/// dispatch loop can share it.
struct Exec<'a> {
    g: &'a TaskGraph,
    cluster: &'a Cluster,
    model: CommModel<'a>,
    cfg: OnlineConfig,
    faults: &'a FaultPlan,
    remaining: Vec<usize>,
    ready: Vec<TaskId>,
    free: ProcSet,
    alive: ProcSet,
    /// Representative placement per task: the primary attempt while the
    /// task runs, the winning attempt once it is done, `None` after its
    /// last attempt died. Successor arrivals and `RecoveryCtx` read it.
    placed: Vec<Option<ScheduledTask>>,
    done: Vec<bool>,
    running: Vec<bool>,
    /// In-flight attempts per task (primary first).
    flights: Vec<Vec<Flight>>,
    /// Attempts launched so far per task — the next attempt number, and
    /// the quantity bounded by `OnlineConfig::max_attempts`.
    next_attempt: Vec<u32>,
    /// Speculative duplicates currently in flight (global).
    spec_inflight: usize,
    /// Backoff retries queued in the heap but not yet released.
    pending_retries: usize,
    running_count: usize,
    completed: usize,
    events: BinaryHeap<Ev>,
    now: f64,
    dispatch_rounds: usize,
    log: Vec<TraceEvent>,
    aborted: bool,
    any_failure: bool,
}

impl<'a> Exec<'a> {
    fn ctx(&self) -> RecoveryCtx<'_> {
        RecoveryCtx {
            g: self.g,
            cluster: self.cluster,
            alive: &self.alive,
            now: self.now,
            done: &self.done,
            running: &self.running,
            placed: &self.placed,
        }
    }

    /// Whether a popped event refers to state that no longer exists.
    fn is_stale(&self, rank: u8, id: u32, att: u32) -> bool {
        match rank {
            RANK_PROC_FAIL => !self.alive.contains(id),
            // Retry releases are paired with `pending_retries` and must
            // always be processed so the counter stays balanced.
            RANK_RETRY => false,
            _ => {
                let t = TaskId(id);
                !self.flights[t.index()].iter().any(|f| f.att == att)
            }
        }
    }

    /// Start/compute-start/finish of launching `t` on `procs` now, plus
    /// the nominal compute work (noise applied, slowdowns not — those are
    /// integrated piecewise by [`FaultPlan::finish_after`]).
    ///
    /// Timing mirrors the simulator's model: transfers start at each
    /// parent's finish (full overlap) or serialize inside the occupancy
    /// window (no overlap).
    fn timing(&self, t: TaskId, procs: &ProcSet) -> (f64, f64, f64, f64) {
        let np = procs.len();
        let work = self.g.task(t).profile.time(np)
            * seeding::exec_factor(self.cfg.seed, t, self.cfg.exec_cv);
        let mut arrivals = self.now;
        let mut comm_total = 0.0;
        for e in self.g.in_edges(t) {
            let edge = self.g.edge(e);
            let src = self.placed[edge.src.index()]
                .as_ref()
                .expect("parents finished before the task became ready");
            let ct = self.model.transfer_time(&src.procs, procs, edge.volume);
            comm_total += ct;
            arrivals = arrivals.max(src.finish + ct);
        }
        let (start, compute_start) = match self.cluster.overlap {
            CommOverlap::Full => (self.now, arrivals.max(self.now)),
            CommOverlap::None => (self.now, self.now + comm_total),
        };
        let finish = self.faults.finish_after(procs, compute_start, work);
        (start, compute_start, finish, work)
    }

    /// Pushes the end event of a freshly launched attempt — its scripted
    /// crash (at the piecewise-stretched time of `frac × work` nominal
    /// compute) or its finish — and arms the watchdog when configured.
    /// `timing` is the `(compute_start, finish, work)` triple of the
    /// attempt, as computed by [`Exec::timing`].
    fn push_attempt_events(
        &mut self,
        t: TaskId,
        a: u32,
        procs: &ProcSet,
        timing: (f64, f64, f64),
        speculative: bool,
    ) {
        let (compute_start, finish, work) = timing;
        let end = match self.faults.crash_fraction(t, a) {
            Some(frac) => {
                let at = self.faults.finish_after(procs, compute_start, frac * work);
                self.events.push(Reverse((Time(at), RANK_CRASH, t.0, a)));
                at
            }
            None => {
                self.events
                    .push(Reverse((Time(finish), RANK_FINISH, t.0, a)));
                finish
            }
        };
        // Deadline from the noise-free, slowdown-free estimate. Only
        // primaries are watched, and alarms that could never catch the
        // attempt alive are not queued at all.
        if self.cfg.straggler_threshold.is_finite() && !speculative {
            let expected = self.g.task(t).profile.time(procs.len());
            let deadline = compute_start + self.cfg.straggler_threshold * expected;
            if deadline < end {
                self.events
                    .push(Reverse((Time(deadline), RANK_WATCHDOG, t.0, a)));
            }
        }
    }

    /// Launches the primary attempt of ready task `t` on `procs` at the
    /// current time.
    fn launch(&mut self, t: TaskId, procs: ProcSet) {
        assert!(
            self.ready.contains(&t),
            "policy launched a non-ready task {t}"
        );
        assert!(!procs.is_empty(), "policy launched {t} on no processors");
        assert!(
            procs.is_subset(&self.free),
            "policy launched {t} on busy processors"
        );
        self.ready.retain(|&r| r != t);
        self.free = self.free.difference(&procs);

        let (start, compute_start, finish, work) = self.timing(t, &procs);
        let a = self.next_attempt[t.index()];
        self.next_attempt[t.index()] += 1;
        let entry = ScheduledTask {
            task: t,
            procs: procs.clone(),
            start,
            compute_start,
            finish,
        };
        self.placed[t.index()] = Some(entry.clone());
        self.flights[t.index()].push(Flight {
            att: a,
            entry,
            speculative: false,
        });
        self.running[t.index()] = true;
        self.running_count += 1;
        self.log.push(TraceEvent {
            time: self.now,
            kind: TraceEventKind::TaskStart {
                task: t,
                attempt: a,
                procs: procs.clone(),
            },
        });
        self.push_attempt_events(t, a, &procs, (compute_start, finish, work), false);
    }

    /// Launches a speculative duplicate of straggling task `t` on the
    /// locality-maximal idle processors, if the speculation budget, the
    /// attempt budget and the free set allow one. At most one duplicate
    /// per task.
    fn try_speculate(&mut self, t: TaskId) {
        let ti = t.index();
        if self.aborted
            || self.spec_inflight >= self.cfg.max_speculative
            || self.next_attempt[ti] >= self.cfg.max_attempts
            || self.flights[ti].is_empty()
            || self.flights[ti].iter().any(|f| f.speculative)
            || self.free.is_empty()
        {
            return;
        }
        let np = self
            .g
            .task(t)
            .profile
            .pbest(self.cluster.n_procs)
            .min(self.free.len())
            .max(1);
        let (unplaced, mut scores) = (ProcSet::new(), Vec::new());
        locality::input_locality_scores_into(
            self.g,
            t,
            self.cluster.n_procs,
            |p| {
                self.placed[p.index()]
                    .as_ref()
                    .map_or(&unplaced, |e| &e.procs)
            },
            &mut scores,
        );
        let Some(procs) = locality::select_max_locality(&self.free, np, &scores) else {
            return;
        };
        self.free = self.free.difference(&procs);
        let (start, compute_start, finish, work) = self.timing(t, &procs);
        let a = self.next_attempt[ti];
        self.next_attempt[ti] += 1;
        self.flights[ti].push(Flight {
            att: a,
            entry: ScheduledTask {
                task: t,
                procs: procs.clone(),
                start,
                compute_start,
                finish,
            },
            speculative: true,
        });
        self.spec_inflight += 1;
        self.log.push(TraceEvent {
            time: self.now,
            kind: TraceEventKind::SpeculativeLaunch {
                task: t,
                attempt: a,
                procs: procs.clone(),
            },
        });
        self.push_attempt_events(t, a, &procs, (compute_start, finish, work), true);
    }

    /// Completes attempt `att` of `t`: first finish wins, every other
    /// in-flight attempt of the task is killed deterministically and its
    /// duplicate work logged as wasted.
    fn finish(&mut self, t: TaskId, att: u32) {
        let ti = t.index();
        let pos = self.flights[ti]
            .iter()
            .position(|f| f.att == att)
            .expect("live finish events map to in-flight attempts");
        let winner = self.flights[ti].remove(pos);
        if winner.speculative {
            self.spec_inflight -= 1;
        }
        for p in winner.entry.procs.iter() {
            if self.alive.contains(p) {
                self.free.insert(p);
            }
        }
        self.done[ti] = true;
        self.completed += 1;
        self.log.push(TraceEvent {
            time: self.now,
            kind: TraceEventKind::TaskFinish {
                task: t,
                attempt: att,
            },
        });
        if winner.speculative {
            self.log.push(TraceEvent {
                time: self.now,
                kind: TraceEventKind::SpeculativeWin {
                    task: t,
                    attempt: att,
                },
            });
        }
        for loser in std::mem::take(&mut self.flights[ti]) {
            if loser.speculative {
                self.spec_inflight -= 1;
            }
            for p in loser.entry.procs.iter() {
                if self.alive.contains(p) {
                    self.free.insert(p);
                }
            }
            let wasted =
                (self.now - loser.entry.compute_start).max(0.0) * loser.entry.procs.len() as f64;
            self.log.push(TraceEvent {
                time: self.now,
                kind: TraceEventKind::AttemptKilled {
                    task: t,
                    attempt: loser.att,
                    wasted,
                },
            });
        }
        self.placed[ti] = Some(winner.entry);
        self.running[ti] = false;
        self.running_count -= 1;
        for s in self.g.successors(t) {
            self.remaining[s.index()] -= 1;
            if self.remaining[s.index()] == 0 {
                self.ready.push(s);
            }
        }
    }

    /// Kills attempt `att` of `t` (scripted crash or processor failure),
    /// freeing its surviving processors and logging the lost work.
    /// Returns true when the task now has no attempt in flight (only
    /// then is recovery consulted — a surviving duplicate carries on).
    fn fail_attempt(&mut self, t: TaskId, att: u32) -> bool {
        let ti = t.index();
        let pos = self.flights[ti]
            .iter()
            .position(|f| f.att == att)
            .expect("live failure events map to in-flight attempts");
        let victim = self.flights[ti].remove(pos);
        if victim.speculative {
            self.spec_inflight -= 1;
        }
        for p in victim.entry.procs.iter() {
            if self.alive.contains(p) {
                self.free.insert(p);
            }
        }
        let lost =
            (self.now - victim.entry.compute_start).max(0.0) * victim.entry.procs.len() as f64;
        self.any_failure = true;
        self.log.push(TraceEvent {
            time: self.now,
            kind: TraceEventKind::TaskCrash {
                task: t,
                attempt: att,
                lost,
            },
        });
        if self.flights[ti].is_empty() {
            self.placed[ti] = None;
            self.running[ti] = false;
            self.running_count -= 1;
            true
        } else {
            // The surviving attempt (a promoted duplicate, or the
            // primary outliving its duplicate) now represents the task.
            self.placed[ti] = Some(self.flights[ti][0].entry.clone());
            false
        }
    }

    /// Takes processor `p` down, killing every attempt running on it.
    /// Returns the tasks left with *no* attempt in flight, in task-id
    /// order — tasks whose duplicate survived are not failures.
    fn kill_proc(&mut self, p: ProcId) -> Vec<TaskId> {
        self.alive.remove(p);
        self.free.remove(p);
        self.any_failure = true;
        self.log.push(TraceEvent {
            time: self.now,
            kind: TraceEventKind::ProcDown { proc: p },
        });
        let victims: Vec<(TaskId, u32)> = self
            .g
            .task_ids()
            .flat_map(|t| {
                self.flights[t.index()]
                    .iter()
                    .filter(|f| f.entry.procs.contains(p))
                    .map(move |f| (t, f.att))
                    .collect::<Vec<_>>()
            })
            .collect();
        let mut orphaned = Vec::new();
        for (t, att) in victims {
            if self.fail_attempt(t, att) {
                orphaned.push(t);
            }
        }
        orphaned
    }
}

/// The online execution engine.
pub struct RuntimeEngine<'a> {
    g: &'a TaskGraph,
    cluster: &'a Cluster,
    cfg: OnlineConfig,
}

impl<'a> RuntimeEngine<'a> {
    /// Creates an engine for one application on one cluster.
    pub fn new(g: &'a TaskGraph, cluster: &'a Cluster, cfg: OnlineConfig) -> Self {
        Self { g, cluster, cfg }
    }

    /// Executes the application under `policy` with no faults.
    ///
    /// Equivalent to [`RuntimeEngine::run_with_faults`] with an empty
    /// [`FaultPlan`] and [`FailStop`] recovery.
    ///
    /// # Panics
    /// Panics if the graph is invalid or the policy launches a task on an
    /// empty/busy processor set (policy bugs must be loud).
    pub fn run(&self, policy: &mut dyn OnlinePolicy) -> ExecutionTrace {
        self.run_with_faults(policy, &FaultPlan::new(), &mut FailStop)
    }

    /// Executes the application under `policy`, injecting `faults` and
    /// recovering per `recovery`.
    ///
    /// The returned trace always accounts for every launched attempt:
    /// even when the run aborts, in-flight tasks are drained first, so
    /// each `TaskStart` in the event log is closed by a `TaskFinish` or
    /// `TaskCrash`.
    ///
    /// # Panics
    /// Panics if the graph is invalid, the policy or recovery launches a
    /// task on an empty/busy processor set, or a *fault-free* execution
    /// stalls (with faults in play a stall is an honest outcome — the run
    /// aborts and the trace says so; without them it is a policy bug and
    /// must be loud).
    pub fn run_with_faults(
        &self,
        policy: &mut dyn OnlinePolicy,
        faults: &FaultPlan,
        recovery: &mut dyn RecoveryPolicy,
    ) -> ExecutionTrace {
        self.g
            .validate()
            .expect("online execution needs a valid DAG");
        policy.prepare(self.g, self.cluster);
        recovery.prepare(self.g, self.cluster);

        let n = self.g.n_tasks();
        let mut exec = Exec {
            g: self.g,
            cluster: self.cluster,
            model: CommModel::new(self.cluster),
            cfg: self.cfg,
            faults,
            remaining: self.g.task_ids().map(|t| self.g.in_degree(t)).collect(),
            ready: Vec::new(),
            free: ProcSet::all(self.cluster.n_procs),
            alive: ProcSet::all(self.cluster.n_procs),
            placed: vec![None; n],
            done: vec![false; n],
            running: vec![false; n],
            flights: std::iter::repeat_with(Vec::new).take(n).collect(),
            next_attempt: vec![0; n],
            spec_inflight: 0,
            pending_retries: 0,
            running_count: 0,
            completed: 0,
            events: BinaryHeap::new(),
            now: 0.0,
            dispatch_rounds: 0,
            log: Vec::new(),
            aborted: false,
            any_failure: false,
        };
        exec.ready = self
            .g
            .task_ids()
            .filter(|&t| exec.remaining[t.index()] == 0)
            .collect();
        for (p, at) in faults.proc_failures() {
            if (p as usize) < self.cluster.n_procs {
                exec.events.push(Reverse((Time(at), RANK_PROC_FAIL, p, 0)));
            }
        }

        while exec.completed < n && !exec.aborted {
            // Offer the policy everything that is ready right now.
            exec.ready.sort(); // deterministic presentation order
            exec.dispatch_rounds += 1;
            if !recovery.overrides_dispatch() {
                let launches =
                    policy.dispatch(exec.now, &exec.ready, &exec.free, self.g, self.cluster);
                for (t, procs) in launches {
                    exec.launch(t, procs);
                }
            }
            let stall = exec.running_count == 0;
            let extra = {
                let ctx = RecoveryCtx {
                    g: exec.g,
                    cluster: exec.cluster,
                    alive: &exec.alive,
                    now: exec.now,
                    done: &exec.done,
                    running: &exec.running,
                    placed: &exec.placed,
                };
                recovery.dispatch_recovery(&ctx, &exec.ready, &exec.free, stall, &mut exec.log)
            };
            for (t, procs) in extra {
                exec.launch(t, procs);
            }
            if exec.running_count == 0 && exec.pending_retries == 0 {
                // Nothing in flight, nothing launched, and no backoff
                // retry will re-arm the ready set. Queued processor
                // failures cannot unblock anything, so the run is stuck.
                if faults.is_empty() && !exec.any_failure {
                    panic!(
                        "deadlock: {} ready tasks, {} free procs",
                        exec.ready.len(),
                        exec.free.len()
                    );
                }
                exec.aborted = true;
                break;
            }

            // Advance to the next live event, then drain its time slice.
            loop {
                let Reverse((Time(time), rank, id, att)) =
                    exec.events.pop().expect("running attempts imply events");
                if exec.is_stale(rank, id, att) {
                    continue;
                }
                exec.now = time;
                Self::process(&mut exec, recovery, rank, id, att);
                break;
            }
            while let Some(&Reverse((Time(t2), rank, id, att))) = exec.events.peek() {
                if t2 > exec.now {
                    break;
                }
                exec.events.pop();
                if exec.is_stale(rank, id, att) {
                    continue;
                }
                Self::process(&mut exec, recovery, rank, id, att);
            }
        }

        if exec.aborted {
            // Drain in-flight work so every started attempt resolves in
            // the log (no recovery consultation: the decision is final).
            while let Some(Reverse((Time(time), rank, id, att))) = exec.events.pop() {
                if exec.is_stale(rank, id, att) {
                    continue;
                }
                exec.now = time;
                match rank {
                    RANK_PROC_FAIL => {
                        exec.kill_proc(id);
                    }
                    RANK_CRASH => {
                        exec.fail_attempt(TaskId(id), att);
                    }
                    RANK_FINISH => exec.finish(TaskId(id), att),
                    // No new work is launched while draining: watchdog
                    // alarms and retry releases are moot.
                    _ => {}
                }
            }
            let unfinished: Vec<TaskId> = self
                .g
                .task_ids()
                .filter(|&t| !exec.done[t.index()])
                .collect();
            exec.log.push(TraceEvent {
                time: exec.now,
                kind: TraceEventKind::Abort { unfinished },
            });
        }

        let schedule = Schedule::from_entries(exec.placed.into_iter().flatten().collect());
        let makespan = schedule.makespan();
        ExecutionTrace {
            schedule,
            makespan,
            dispatch_rounds: exec.dispatch_rounds,
            events: exec.log,
            n_tasks: n,
            completed: exec.completed,
            aborted: exec.aborted,
        }
    }

    /// Handles one live event, consulting recovery about failures and
    /// stragglers.
    fn process(
        exec: &mut Exec<'_>,
        recovery: &mut dyn RecoveryPolicy,
        rank: u8,
        id: u32,
        att: u32,
    ) {
        match rank {
            RANK_FINISH => exec.finish(TaskId(id), att),
            RANK_CRASH => {
                if exec.fail_attempt(TaskId(id), att) {
                    Self::consult(exec, recovery, TaskId(id));
                }
            }
            RANK_PROC_FAIL => {
                let orphaned = exec.kill_proc(id);
                {
                    let ctx = exec.ctx();
                    recovery.on_proc_failure(&ctx, id);
                }
                for t in orphaned {
                    Self::consult(exec, recovery, t);
                }
            }
            RANK_WATCHDOG => {
                // The attempt is still in flight (staleness filtered it
                // otherwise), so it blew its deadline.
                let t = TaskId(id);
                exec.log.push(TraceEvent {
                    time: exec.now,
                    kind: TraceEventKind::StragglerSuspected {
                        task: t,
                        attempt: att,
                    },
                });
                let action = {
                    let ctx = exec.ctx();
                    recovery.on_straggler(&ctx, t, att)
                };
                if action == StragglerAction::Speculate {
                    exec.try_speculate(t);
                }
            }
            _ => {
                // RANK_RETRY: the backoff elapsed; re-arm the task.
                exec.pending_retries -= 1;
                let t = TaskId(id);
                if !exec.done[t.index()] && exec.flights[t.index()].is_empty() {
                    exec.ready.push(t);
                }
            }
        }
    }

    /// Asks recovery what to do with a task left with no attempt in
    /// flight, enforcing the attempt budget and the retry backoff.
    fn consult(exec: &mut Exec<'_>, recovery: &mut dyn RecoveryPolicy, t: TaskId) {
        if exec.aborted {
            return;
        }
        let action = {
            let ctx = exec.ctx();
            recovery.on_task_failure(&ctx, t)
        };
        match action {
            RecoveryAction::Retry => {
                let launched = exec.next_attempt[t.index()];
                if launched >= exec.cfg.max_attempts {
                    exec.log.push(TraceEvent {
                        time: exec.now,
                        kind: TraceEventKind::AttemptsExhausted {
                            task: t,
                            attempts: launched,
                        },
                    });
                    exec.aborted = true;
                    return;
                }
                exec.log.push(TraceEvent {
                    time: exec.now,
                    kind: TraceEventKind::Retry {
                        task: t,
                        attempt: launched,
                    },
                });
                if exec.cfg.backoff > 0.0 {
                    // k-th failure (launched ≥ 1 here) waits 2^(k-1)
                    // base delays; the exponent is clamped for any
                    // budget, and the product is saturated at
                    // MAX_RETRY_DELAY so a huge base cannot overflow to
                    // a non-finite heap key (see MAX_RETRY_DELAY).
                    let exp = (launched - 1).min(32) as i32;
                    let delay = (exec.cfg.backoff * f64::powi(2.0, exp)).min(MAX_RETRY_DELAY);
                    exec.events
                        .push(Reverse((Time(exec.now + delay), RANK_RETRY, t.0, launched)));
                    exec.pending_retries += 1;
                } else {
                    exec.ready.push(t);
                }
            }
            RecoveryAction::Abort => exec.aborted = true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, Remold, RetryShrink};
    use crate::policy::{GreedyOneProc, OnlineLocbs, PlanFollower};
    use locmps_core::{LocMps, Scheduler};
    use locmps_speedup::ExecutionProfile;

    fn chain2() -> TaskGraph {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(10.0));
        let b = g.add_task("b", ExecutionProfile::linear(10.0));
        g.add_edge(a, b, 0.0).unwrap();
        g
    }

    #[test]
    fn greedy_executes_a_chain_sequentially() {
        let g = chain2();
        let cluster = Cluster::new(2, 12.5);
        let engine = RuntimeEngine::new(&g, &cluster, OnlineConfig::default());
        let trace = engine.run(&mut GreedyOneProc);
        assert!((trace.makespan - 20.0).abs() < 1e-9);
        assert!(trace.dispatch_rounds >= 2);
        assert!(trace.is_complete() && !trace.aborted);
        assert_eq!(trace.events.len(), 4, "2 starts + 2 finishes");
        assert_eq!(trace.work_lost(), 0.0);
    }

    #[test]
    fn plan_follower_matches_offline_without_noise() {
        let g = locmps_workloads::synthetic::synthetic_graph(
            &locmps_workloads::synthetic::SyntheticConfig {
                n_tasks: 12,
                ccr: 0.3,
                seed: 5,
                ..Default::default()
            },
        );
        let cluster = Cluster::new(6, 12.5);
        let offline = LocMps::default().schedule(&g, &cluster).unwrap();
        let engine = RuntimeEngine::new(&g, &cluster, OnlineConfig::default());
        let trace = engine.run(&mut PlanFollower::locmps());
        // Following the plan with exact durations reproduces its makespan
        // (the engine may only ever do at least as well as the plan's
        // timing on each step, and never better than its critical path).
        assert!(
            (trace.makespan - offline.makespan()).abs() < 1e-6 * offline.makespan()
                || trace.makespan < offline.makespan(),
            "online {} vs offline {}",
            trace.makespan,
            offline.makespan()
        );
    }

    #[test]
    fn online_locbs_executes_valid_schedules_under_noise() {
        let g = locmps_workloads::tce::ccsd_t1_graph(&locmps_workloads::tce::TceConfig {
            n_occ: 12,
            n_virt: 48,
            ..Default::default()
        });
        let cluster = Cluster::new(8, 50.0);
        for seed in 0..5 {
            let engine = RuntimeEngine::new(
                &g,
                &cluster,
                OnlineConfig {
                    seed,
                    exec_cv: 0.2,
                    ..OnlineConfig::default()
                },
            );
            let trace = engine.run(&mut OnlineLocbs::default());
            assert!(trace.makespan.is_finite() && trace.makespan > 0.0);
            // No processor is double-booked in the trace.
            let mut by_proc: Vec<Vec<(f64, f64)>> = vec![Vec::new(); cluster.n_procs];
            for e in trace.schedule.entries() {
                for p in e.procs.iter() {
                    by_proc[p as usize].push((e.start, e.finish));
                }
            }
            for list in &mut by_proc {
                list.sort_by(|a, b| a.0.total_cmp(&b.0));
                for w in list.windows(2) {
                    assert!(w[1].0 + 1e-9 >= w[0].1, "overlapping intervals");
                }
            }
        }
    }

    #[test]
    fn same_seed_same_trace_for_each_policy() {
        let g = chain2();
        let cluster = Cluster::new(2, 12.5);
        let cfg = OnlineConfig {
            seed: 9,
            exec_cv: 0.3,
            ..OnlineConfig::default()
        };
        let a = RuntimeEngine::new(&g, &cluster, cfg).run(&mut OnlineLocbs::default());
        let b = RuntimeEngine::new(&g, &cluster, cfg).run(&mut OnlineLocbs::default());
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a, b, "whole traces are bit-identical");
    }

    #[test]
    fn failstop_aborts_on_crash_but_drains_in_flight() {
        // Two independent tasks; one crashes halfway. FailStop aborts,
        // but the surviving task's completion is still in the trace.
        let mut g = TaskGraph::new();
        g.add_task("a", ExecutionProfile::linear(10.0));
        g.add_task("b", ExecutionProfile::linear(30.0));
        let cluster = Cluster::new(2, 12.5);
        let faults = FaultPlan::parse("crash:0@0.5").unwrap();
        let trace = RuntimeEngine::new(&g, &cluster, OnlineConfig::default()).run_with_faults(
            &mut GreedyOneProc,
            &faults,
            &mut FailStop,
        );
        assert!(trace.aborted && !trace.is_complete());
        assert_eq!(trace.completed, 1);
        assert!(
            trace.events.iter().any(|e| matches!(
                e.kind,
                TraceEventKind::TaskCrash { task: TaskId(0), lost, .. } if (lost - 5.0).abs() < 1e-9
            )),
            "crash at 50% of 10s on 1 proc loses 5 proc-seconds: {:#?}",
            trace.events
        );
        assert!(matches!(
            trace.events.last().map(|e| &e.kind),
            Some(TraceEventKind::Abort { unfinished }) if unfinished == &vec![TaskId(0)]
        ));
    }

    #[test]
    fn retry_shrink_survives_crashes_and_proc_failure() {
        let g = chain2();
        let cluster = Cluster::new(2, 12.5);
        let mut plan = FaultPlan::new();
        plan.push(Fault::Crash {
            task: TaskId(0),
            at_frac: 0.5,
            attempts: 1,
        })
        .unwrap();
        plan.push(Fault::ProcFail { proc: 0, at: 2.0 }).unwrap();
        let trace = RuntimeEngine::new(&g, &cluster, OnlineConfig::default()).run_with_faults(
            &mut GreedyOneProc,
            &plan,
            &mut RetryShrink::new(),
        );
        assert!(trace.is_complete(), "events: {:#?}", trace.events);
        assert!(!trace.aborted);
        assert!(trace.retries() >= 1);
        assert_eq!(trace.procs_lost(), 1);
        assert!(trace.work_lost() > 0.0);
        // The crashed+killed chain still completes, only later.
        assert!(trace.makespan > 20.0);
    }

    #[test]
    fn replan_reschedules_residual_dag_after_proc_failure() {
        let g = locmps_workloads::synthetic::synthetic_graph(
            &locmps_workloads::synthetic::SyntheticConfig {
                n_tasks: 14,
                ccr: 0.4,
                seed: 11,
                ..Default::default()
            },
        );
        let cluster = Cluster::new(6, 50.0);
        let base = RuntimeEngine::new(&g, &cluster, OnlineConfig::default())
            .run(&mut PlanFollower::locmps());
        let faults = FaultPlan::parse(&format!("fail:2@{}", base.makespan * 0.3)).unwrap();
        let trace = RuntimeEngine::new(&g, &cluster, OnlineConfig::default()).run_with_faults(
            &mut PlanFollower::locmps(),
            &faults,
            &mut Remold::replan(),
        );
        assert!(trace.is_complete(), "events: {:#?}", trace.events);
        assert_eq!(trace.replans(), 1);
        assert!(trace.makespan >= base.makespan, "5 procs can't beat 6");
        // The dead processor hosts nothing after its failure.
        for e in &trace.events {
            if let TraceEventKind::TaskStart { procs, .. } = &e.kind {
                if e.time > base.makespan * 0.3 {
                    assert!(!procs.contains(2), "started on dead proc at {}", e.time);
                }
            }
        }
    }

    #[test]
    fn slowdown_stretches_affected_tasks_only() {
        let mut g = TaskGraph::new();
        g.add_task("a", ExecutionProfile::linear(10.0));
        g.add_task("b", ExecutionProfile::linear(10.0));
        let cluster = Cluster::new(2, 12.5);
        // The window fully covers the attempt, so the whole compute runs
        // at the reduced rate.
        let faults = FaultPlan::parse("slow:0@0-100x3").unwrap();
        let trace = RuntimeEngine::new(&g, &cluster, OnlineConfig::default()).run_with_faults(
            &mut GreedyOneProc,
            &faults,
            &mut FailStop,
        );
        assert!(trace.is_complete());
        let a = trace.schedule.get(TaskId(0)).unwrap();
        let b = trace.schedule.get(TaskId(1)).unwrap();
        assert!((a.finish - 30.0).abs() < 1e-9, "slowed 3x: {}", a.finish);
        assert!((b.finish - 10.0).abs() < 1e-9, "unaffected: {}", b.finish);
    }

    #[test]
    fn slowdown_window_opening_mid_attempt_stretches_only_the_tail() {
        let mut g = TaskGraph::new();
        g.add_task("a", ExecutionProfile::linear(10.0));
        let cluster = Cluster::new(1, 12.5);
        // The attempt runs [0, 10) nominally; a 4x window opens at t=6.
        // 6s of work at full rate, the remaining 4 nominal seconds take
        // 16s — finish at 22, not the launch-time-sampled 10 (factor 1)
        // or 40 (factor 4).
        let faults = FaultPlan::parse("slow:0@6-100x4").unwrap();
        let trace = RuntimeEngine::new(&g, &cluster, OnlineConfig::default()).run_with_faults(
            &mut GreedyOneProc,
            &faults,
            &mut FailStop,
        );
        assert!(trace.is_complete());
        let a = trace.schedule.get(TaskId(0)).unwrap();
        assert!((a.finish - 22.0).abs() < 1e-9, "piecewise: {}", a.finish);

        // And a window closing mid-attempt releases the tail: 4x over
        // [0, 8) absorbs 2 nominal seconds, the rest finishes at full
        // rate — 8 + 8 = 16.
        let faults = FaultPlan::parse("slow:0@0-8x4").unwrap();
        let trace = RuntimeEngine::new(&g, &cluster, OnlineConfig::default()).run_with_faults(
            &mut GreedyOneProc,
            &faults,
            &mut FailStop,
        );
        let a = trace.schedule.get(TaskId(0)).unwrap();
        assert!(
            (a.finish - 16.0).abs() < 1e-9,
            "tail released: {}",
            a.finish
        );
    }

    #[test]
    fn hedged_speculation_beats_a_slowed_straggler() {
        let mut g = TaskGraph::new();
        g.add_task("a", ExecutionProfile::linear(10.0));
        let cluster = Cluster::new(2, 12.5);
        // GreedyOneProc launches on proc 0, which is 10x degraded for the
        // whole run; proc 1 idles. The watchdog fires at 2x the 10s
        // estimate, the duplicate lands on proc 1 and finishes at
        // 20 + 10 = 30 while the primary would run until 100.
        let faults = FaultPlan::parse("slow:0@0-1000x10").unwrap();
        let cfg = OnlineConfig {
            straggler_threshold: 2.0,
            ..OnlineConfig::default()
        };
        let hedged = RuntimeEngine::new(&g, &cluster, cfg).run_with_faults(
            &mut GreedyOneProc,
            &faults,
            &mut crate::fault::Hedged::new(Box::new(FailStop)),
        );
        assert!(hedged.is_complete() && !hedged.aborted);
        assert_eq!(hedged.stragglers_suspected(), 1);
        assert_eq!(hedged.speculative_launches(), 1);
        assert_eq!(hedged.speculative_wins(), 1);
        assert!((hedged.makespan - 30.0).abs() < 1e-9, "{}", hedged.makespan);
        // The loser was killed at t=30 after 30s on one proc.
        assert!((hedged.wasted_duplicate_work() - 30.0).abs() < 1e-9);
        assert!(
            hedged.events.iter().any(|e| matches!(
                e.kind,
                TraceEventKind::AttemptKilled {
                    task: TaskId(0),
                    attempt: 0,
                    ..
                }
            )),
            "primary killed after the duplicate won: {:#?}",
            hedged.events
        );
        // The same run without hedging crawls to 100.
        let plain = RuntimeEngine::new(&g, &cluster, cfg).run_with_faults(
            &mut GreedyOneProc,
            &faults,
            &mut FailStop,
        );
        assert!((plain.makespan - 100.0).abs() < 1e-9, "{}", plain.makespan);
        assert_eq!(plain.stragglers_suspected(), 1, "watchdog still fires");
        assert_eq!(plain.speculative_launches(), 0);
    }

    #[test]
    fn primary_crash_promotes_the_surviving_duplicate() {
        let mut g = TaskGraph::new();
        g.add_task("a", ExecutionProfile::linear(10.0));
        let cluster = Cluster::new(2, 12.5);
        // Primary on slowed proc 0 crashes at t=25 (25% of its compute,
        // stretched 10x); the duplicate launched at t=20 on proc 1
        // survives, carries the task without any recovery consultation
        // (FailStop never gets asked), and wins at t=30.
        let faults = FaultPlan::parse("slow:0@0-1000x10,crash:0@0.25").unwrap();
        let cfg = OnlineConfig {
            straggler_threshold: 2.0,
            ..OnlineConfig::default()
        };
        let trace = RuntimeEngine::new(&g, &cluster, cfg).run_with_faults(
            &mut GreedyOneProc,
            &faults,
            &mut crate::fault::Hedged::new(Box::new(FailStop)),
        );
        assert!(trace.is_complete() && !trace.aborted, "{:#?}", trace.events);
        assert_eq!(trace.speculative_launches(), 1);
        // The duplicate's attempt number is 1, and its win is recorded.
        assert_eq!(trace.speculative_wins(), 1);
        assert!(trace.events.iter().any(|e| matches!(
            e.kind,
            TraceEventKind::TaskCrash {
                task: TaskId(0),
                attempt: 0,
                ..
            }
        )));
        assert!((trace.makespan - 30.0).abs() < 1e-9, "{}", trace.makespan);
    }

    #[test]
    fn backoff_delays_retries_exponentially() {
        let mut g = TaskGraph::new();
        g.add_task("a", ExecutionProfile::linear(10.0));
        let cluster = Cluster::new(1, 12.5);
        // Crashes at 50% on the first two attempts, succeeds on the third.
        let faults = FaultPlan::parse("crash:0@0.5x2").unwrap();
        let run = |backoff: f64| {
            let cfg = OnlineConfig {
                backoff,
                ..OnlineConfig::default()
            };
            RuntimeEngine::new(&g, &cluster, cfg).run_with_faults(
                &mut GreedyOneProc,
                &faults,
                &mut RetryShrink::new(),
            )
        };
        let immediate = run(0.0);
        assert!(immediate.is_complete());
        assert!((immediate.makespan - 20.0).abs() < 1e-9, "5 + 5 + 10");
        let delayed = run(2.0);
        assert!(delayed.is_complete());
        // First retry waits 2, second waits 4: 5 + 2 + 5 + 4 + 10 = 26.
        assert!(
            (delayed.makespan - 26.0).abs() < 1e-9,
            "{}",
            delayed.makespan
        );
        assert_eq!(delayed.retries(), 2);
    }

    /// Regression: with a huge (but finite) base delay and an attempt
    /// budget near the exponent cap, `backoff × 2^(k-1)` used to overflow
    /// to `+inf` around the 29th retry, pushing a non-finite key into the
    /// event heap — every later event (and the makespan) reported `inf`.
    /// The saturated delay keeps the whole trace finite and ordered.
    #[test]
    fn huge_backoff_saturates_instead_of_overflowing_the_heap() {
        let mut g = TaskGraph::new();
        g.add_task("a", ExecutionProfile::linear(10.0));
        let cluster = Cluster::new(1, 12.5);
        // Crashes on every one of the budgeted attempts, so the run walks
        // the full backoff ladder before aborting.
        let faults = FaultPlan::parse("crash:0@0.5x64").unwrap();
        let cfg = OnlineConfig {
            backoff: 1e300,
            max_attempts: 40,
            ..OnlineConfig::default()
        };
        cfg.validate().expect("finite backoff is admissible");
        let trace = RuntimeEngine::new(&g, &cluster, cfg).run_with_faults(
            &mut GreedyOneProc,
            &faults,
            &mut RetryShrink::new(),
        );
        assert!(trace.aborted, "budget must run out");
        assert!(
            trace.makespan.is_finite(),
            "makespan overflowed: {}",
            trace.makespan
        );
        let mut prev = 0.0;
        for e in &trace.events {
            assert!(e.time.is_finite(), "non-finite event time: {e:?}");
            assert!(e.time >= prev, "event order lost at {e:?}");
            prev = e.time;
        }
        assert!(matches!(
            trace.events.last().map(|e| &e.kind),
            Some(TraceEventKind::AttemptsExhausted { .. } | TraceEventKind::Abort { .. })
        ));
    }

    #[test]
    fn validate_rejects_the_fields_the_heap_depends_on() {
        assert!(OnlineConfig::default().validate().is_ok());
        let bad = |cfg: OnlineConfig| cfg.validate().unwrap_err();
        assert!(matches!(
            bad(OnlineConfig {
                backoff: f64::INFINITY,
                ..OnlineConfig::default()
            }),
            OnlineConfigError::NonFinite {
                field: "backoff",
                ..
            }
        ));
        assert!(matches!(
            bad(OnlineConfig {
                backoff: f64::NAN,
                ..OnlineConfig::default()
            }),
            OnlineConfigError::NonFinite {
                field: "backoff",
                ..
            }
        ));
        assert!(matches!(
            bad(OnlineConfig {
                backoff: -1.0,
                ..OnlineConfig::default()
            }),
            OnlineConfigError::Negative {
                field: "backoff",
                ..
            }
        ));
        assert!(matches!(
            bad(OnlineConfig {
                exec_cv: f64::NAN,
                ..OnlineConfig::default()
            }),
            OnlineConfigError::NonFinite {
                field: "exec_cv",
                ..
            }
        ));
        assert!(matches!(
            bad(OnlineConfig {
                straggler_threshold: 1.0,
                ..OnlineConfig::default()
            }),
            OnlineConfigError::ThresholdTooLow { .. }
        ));
        assert!(matches!(
            bad(OnlineConfig {
                max_attempts: 0,
                ..OnlineConfig::default()
            }),
            OnlineConfigError::ZeroAttempts
        ));
        // +inf threshold stays legal: it just disables the watchdog.
        assert!(OnlineConfig {
            straggler_threshold: f64::INFINITY,
            ..OnlineConfig::default()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn empty_fault_plan_is_bitwise_equal_to_plain_run() {
        let g = locmps_workloads::toys::fork_join(4, 6.0, 20.0);
        let cluster = Cluster::new(4, 25.0);
        let cfg = OnlineConfig {
            seed: 3,
            exec_cv: 0.15,
            ..OnlineConfig::default()
        };
        let plain = RuntimeEngine::new(&g, &cluster, cfg).run(&mut OnlineLocbs::default());
        let faulted = RuntimeEngine::new(&g, &cluster, cfg).run_with_faults(
            &mut OnlineLocbs::default(),
            &FaultPlan::new(),
            &mut Remold::replan(),
        );
        assert_eq!(plain, faulted);
    }

    #[test]
    fn all_procs_failing_aborts_instead_of_hanging() {
        let g = chain2();
        let cluster = Cluster::new(2, 12.5);
        let faults = FaultPlan::parse("fail:0@1,fail:1@1").unwrap();
        for recovery in [true, false] {
            let trace = if recovery {
                RuntimeEngine::new(&g, &cluster, OnlineConfig::default()).run_with_faults(
                    &mut GreedyOneProc,
                    &faults,
                    &mut RetryShrink::new(),
                )
            } else {
                RuntimeEngine::new(&g, &cluster, OnlineConfig::default()).run_with_faults(
                    &mut GreedyOneProc,
                    &faults,
                    &mut Remold::replan(),
                )
            };
            assert!(trace.aborted && !trace.is_complete());
            assert!(matches!(
                trace.events.last().map(|e| &e.kind),
                Some(TraceEventKind::Abort { .. })
            ));
        }
    }
}
