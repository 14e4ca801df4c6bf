//! An **online (run-time) scheduling framework** for mixed-parallel
//! applications — the paper's future-work item §VI(2): "incorporation of
//! the scheduling strategy into a run-time framework for the on-line
//! scheduling of mixed parallel applications."
//!
//! The offline algorithms in `locmps-core` assume exact execution times;
//! at run time, tasks finish early or late. This crate provides an
//! event-driven [`engine`] that executes a task graph with *perturbed*
//! (seeded) task durations and lets a pluggable [`OnlinePolicy`] make the
//! allocation/mapping decisions as tasks become ready:
//!
//! * [`policy::PlanFollower`] — compute a static LoC-MPS plan up front and
//!   follow its allocation + mapping, letting only the *timing* adapt;
//! * [`policy::OnlineLocbs`] — no precomputed plan: when a task becomes
//!   ready it is moulded to the currently free processors (bounded by its
//!   `Pbest` and an equal-share heuristic over the ready set) and placed
//!   on the locality-maximal free subset — LoCBS's placement rule applied
//!   greedily at run time;
//! * [`policy::GreedyOneProc`] — the FCFS one-processor-per-task strawman.
//!
//! The same seeded perturbation is applied per *task*, independent of the
//! policy, so policies can be compared on identical realized durations.
//!
//! Beyond benign noise, the engine executes under scripted *adversity*: a
//! [`fault::FaultPlan`] injects permanent processor failures, transient
//! slowdowns and task crashes into the event loop, and a pluggable
//! [`fault::RecoveryPolicy`] decides what happens next —
//! [`fault::FailStop`] (abort, the baseline), [`fault::RetryShrink`]
//! (re-mold failed tasks onto the survivors) or [`fault::Remold`]
//! (re-run LoC-MPS on the residual DAG over the surviving cluster — as
//! given for `replan`, against observation-corrected profiles for
//! `remold`).
//! Every execution returns an [`ExecutionTrace`] whose structured event
//! log records starts, finishes, crashes, processor failures, retries,
//! replans and aborts; the `locmps-analysis` LM3xx diagnostics audit that
//! log for causality violations, orphaned tasks and lost work.
//!
//! Slow tasks get the same treatment as dead ones: a watchdog derives a
//! per-attempt deadline from the noise-free estimate
//! (`OnlineConfig::straggler_threshold`), suspected stragglers reach
//! recovery via `RecoveryPolicy::on_straggler`, and the [`fault::Hedged`]
//! wrapper answers every alarm with a *speculative duplicate* on idle
//! processors — first finish wins, the loser is killed deterministically.
//! Retries are budgeted (`OnlineConfig::max_attempts`, exponential
//! `backoff`), so crash storms abort cleanly instead of livelocking.
//! The [`chaos`] module turns all of it into a test harness: seeded
//! randomized fault campaigns whose failing plans are shrunk
//! delta-debugging-style to minimal `--faults` reproducers.
#![deny(missing_docs)]

pub mod chaos;
pub mod engine;
pub mod fault;
pub mod perfmodel;
pub mod policy;

pub use chaos::{run_chaos, ChaosConfig, ChaosFailure, ChaosReport};
pub use engine::{
    ExecutionTrace, OnlineConfig, OnlineConfigError, RuntimeEngine, TraceEvent, TraceEventKind,
    MAX_RETRY_DELAY,
};
pub use fault::{
    recovery_by_name, FailStop, Fault, FaultError, FaultPlan, Hedged, RecoveryAction, RecoveryCtx,
    RecoveryPolicy, Remold, RetryShrink, StragglerAction,
};
pub use perfmodel::{IngestError, IngestReport, PerfModelStore, WidthObs};
pub use policy::{GreedyOneProc, OnlineLocbs, OnlinePolicy, PlanFollower};
