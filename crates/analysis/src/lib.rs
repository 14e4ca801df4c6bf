//! Static diagnostics for the LoC-MPS workspace: lint task graphs, speedup
//! profiles and schedules, reporting *every* finding with a stable `LMxxx`
//! code instead of stopping at the first error.
//!
//! Three code families (catalogued in `docs/DIAGNOSTICS.md`):
//!
//! * `LM0xx` — input lints ([`input::lint_input`]) over a
//!   [`TaskGraph`](locmps_taskgraph::TaskGraph) + profiles +
//!   [`Cluster`](locmps_platform::Cluster);
//! * `LM1xx` — schedule correctness, an exhaustive generalization of
//!   `Schedule::validate` ([`sched::analyze_schedule`]);
//! * `LM2xx` — schedule performance observations (utilization, locality,
//!   idle gaps), always [`Severity::Info`];
//! * `LM3xx` — execution-trace audits over the online runtime's event log
//!   ([`trace::analyze_trace`]): causality, double-booking, orphaned
//!   tasks, plus resilience metrics (work lost, recovery overhead).
//!
//! [`replay::replay_and_audit`] is the schedule audit every front end
//! runs: it replays a scheduler's output under that scheduler's runtime and
//! audits the executed schedule under the matching communication model.
//!
//! # Examples
//! ```
//! use locmps_analysis::{analyze_schedule, lint_input};
//! use locmps_core::{CommModel, LocMps, Scheduler};
//! use locmps_platform::Cluster;
//! use locmps_speedup::ExecutionProfile;
//! use locmps_taskgraph::TaskGraph;
//!
//! let mut g = TaskGraph::new();
//! let a = g.add_task("a", ExecutionProfile::linear(10.0));
//! let b = g.add_task("b", ExecutionProfile::linear(5.0));
//! g.add_edge(a, b, 20.0).unwrap();
//! let cluster = Cluster::new(4, 12.5);
//!
//! let lint = lint_input(&g, &cluster);
//! assert!(!lint.has_errors());
//!
//! let out = LocMps::default().schedule(&g, &cluster).unwrap();
//! let report = analyze_schedule(&out.schedule, &g, &CommModel::new(&cluster));
//! assert!(!report.has_errors(), "{}", report.render_text());
//! ```
#![deny(missing_docs)]

pub mod diag;
pub mod input;
pub mod model;
pub mod replay;
pub mod sched;
pub mod service;
pub mod trace;

pub use diag::{Diagnostic, Report, Severity};
pub use input::lint_input;
pub use model::analyze_model;
pub use replay::{analyze_schedulers, replay, replay_and_audit, Replayed};
pub use sched::{analyze_schedule, search_effort_diagnostic};
pub use service::{analyze_service, ServiceSnapshot};
pub use trace::analyze_trace;

/// The stable diagnostic codes, one constant per `LMxxx` code.
///
/// Codes are part of the public interface: scripts match on them, so a code
/// is never renumbered or reused. New checks get new numbers.
pub mod codes {
    /// `LM001` (Error): the graph has no tasks.
    pub const EMPTY_GRAPH: &str = "LM001";
    /// `LM002` (Error): the graph contains a directed cycle.
    pub const CYCLE: &str = "LM002";
    /// `LM003` (Error): a task depends on itself.
    pub const SELF_LOOP: &str = "LM003";
    /// `LM004` (Error): two data edges connect the same ordered pair.
    pub const DUPLICATE_EDGE: &str = "LM004";
    /// `LM005` (Error): an edge volume is negative or not finite.
    pub const BAD_VOLUME: &str = "LM005";
    /// `LM006` (Info): a task has neither predecessors nor successors.
    pub const ISOLATED_TASK: &str = "LM006";
    /// `LM010` (Error): a profile fails model validation or yields a
    /// non-finite execution time for some `p` in `1..=P`.
    pub const INVALID_MODEL: &str = "LM010";
    /// `LM011` (Error): `et(p)` is zero or negative for some `p`.
    pub const ZERO_WORK: &str = "LM011";
    /// `LM012` (Warn): `et(p)` increases with `p` somewhere in `1..=P`.
    pub const NON_MONOTONE_TIME: &str = "LM012";
    /// `LM013` (Warn): processor-time area `p·et(p)` shrinks with `p`
    /// (superlinear speedup).
    pub const SUPERLINEAR_SPEEDUP: &str = "LM013";
    /// `LM014` (Info): a Downey profile's `A` exceeds the machine size.
    pub const UNSATURATED_DOWNEY: &str = "LM014";
    /// `LM101` (Error): a graph task has no schedule entry.
    pub const UNSCHEDULED: &str = "LM101";
    /// `LM102` (Error): a task uses a processor outside the cluster.
    pub const PROC_OUT_OF_RANGE: &str = "LM102";
    /// `LM103` (Error): a task has an empty processor set.
    pub const EMPTY_PROCSET: &str = "LM103";
    /// `LM104` (Error): timing fields are inconsistent.
    pub const BAD_TIMING: &str = "LM104";
    /// `LM105` (Error): an edge's precedence/redistribution constraint is
    /// violated.
    pub const PRECEDENCE_VIOLATED: &str = "LM105";
    /// `LM106` (Error): two tasks occupy the same processor at once.
    pub const DOUBLE_BOOKING: &str = "LM106";
    /// `LM107` (Error): a communication window is shorter than the inbound
    /// redistribution it must hold (no-overlap regime).
    pub const COMM_WINDOW_TOO_SHORT: &str = "LM107";
    /// `LM109` (Error): a schedule entry references a task not in the graph.
    pub const STRAY_ENTRY: &str = "LM109";
    /// `LM110` (Error): the makespan is below the critical path of the
    /// realized schedule (impossible timestamps).
    pub const MAKESPAN_BELOW_BOUND: &str = "LM110";
    /// `LM200` (Info): utilization of the processors × makespan rectangle.
    pub const UTILIZATION: &str = "LM200";
    /// `LM201` (Info): fraction of data edges (and volume) delivered to
    /// processors that already hold the producer's data.
    pub const LOCALITY: &str = "LM201";
    /// `LM202` (Info): idle-gap accounting per processor.
    pub const IDLE_GAPS: &str = "LM202";
    /// `LM210` (Info): search-effort counters of the scheduler run that
    /// produced the schedule, as `SearchCounters::reported` lists them
    /// (LoCBS passes, memo hits, reused walk successors, replayed
    /// placements, reused transfer prices, pruned corner probes, commits).
    pub const SEARCH_EFFORT: &str = "LM210";
    /// `LM300` (Info): fault/recovery summary of an execution trace.
    pub const FAULT_SUMMARY: &str = "LM300";
    /// `LM301` (Info): compute work lost to failed attempts.
    pub const WORK_LOST: &str = "LM301";
    /// `LM302` (Info): recovery overhead — re-executed compute, replans.
    pub const RECOVERY_OVERHEAD: &str = "LM302";
    /// `LM310` (Error): a task never completed and no abort record
    /// explains why.
    pub const ORPHANED_TASK: &str = "LM310";
    /// `LM311` (Error): a task started before a predecessor finished, or
    /// an end event has no matching start.
    pub const CAUSALITY_VIOLATION: &str = "LM311";
    /// `LM312` (Error): an attempt was launched on a failed processor.
    pub const STARTED_ON_DEAD_PROC: &str = "LM312";
    /// `LM313` (Error): the event log shows two attempts sharing a
    /// processor in time.
    pub const TRACE_DOUBLE_BOOKING: &str = "LM313";
    /// `LM314` (Error): an attempt started but never finished or crashed
    /// (and overlapping attempts of the same task).
    pub const DANGLING_ATTEMPT: &str = "LM314";
    /// `LM320` (Info): straggler-speculation summary — watchdog alarms,
    /// speculative launches and the duplicate win rate.
    pub const SPECULATION_SUMMARY: &str = "LM320";
    /// `LM321` (Info): processor-seconds burned by killed duplicate
    /// attempts (the price paid for hedging).
    pub const WASTED_DUPLICATE_WORK: &str = "LM321";
    /// `LM322` (Info): wall-clock time tasks spent parked in retry
    /// backoff before relaunching.
    pub const BACKOFF_WAITS: &str = "LM322";
    /// `LM330` (Info): a task's observed runtimes diverge from its
    /// profile beyond the reporting threshold — the model the scheduler
    /// molds with no longer matches reality.
    pub const MODEL_DIVERGENCE: &str = "LM330";
    /// `LM331` (Error): the performance-model store names a task that is
    /// absent from the graph being scheduled (a stale store applied to
    /// the wrong workload).
    pub const STALE_MODEL: &str = "LM331";
    /// `LM332` (Error): the performance-model store violates its own
    /// invariants (unsorted/empty ratio sets, unsaturated or non-finite
    /// ratios, width 0) — corrections from it cannot be trusted.
    pub const INCONSISTENT_MODEL: &str = "LM332";
    /// `LM340` (Info/Warn): the serve daemon's health-machine state and
    /// the pressure behind it (queue depth, p95 schedule latency). Warn
    /// when the daemon is not in `full` health.
    pub const SERVICE_HEALTH: &str = "LM340";
    /// `LM341` (Warn): the last journal replay discarded a torn tail —
    /// the process died mid-append. Acknowledged work was preserved, but
    /// the crash itself may deserve investigation.
    pub const JOURNAL_TRUNCATED: &str = "LM341";
    /// `LM342` (Info): share of work admitted degraded or shed since
    /// boot — how much quality the daemon traded for liveness.
    pub const DEGRADED_SHARE: &str = "LM342";
    /// `LM343` (Error): job conservation violated — acknowledged jobs no
    /// longer equal completed + failed + active, i.e. the daemon lost or
    /// fabricated a job.
    pub const JOB_CONSERVATION: &str = "LM343";
}
