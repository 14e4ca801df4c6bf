//! The common scheduler interface implemented by LoC-MPS and every baseline.

use locmps_platform::Cluster;
use locmps_taskgraph::{GraphError, TaskGraph, TaskId};

use crate::allocation::Allocation;
use crate::schedule::Schedule;

/// Errors any scheduler can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedError {
    /// The input graph is invalid (cyclic or empty).
    Graph(GraphError),
    /// The allocation vector does not match the task count.
    AllocationMismatch {
        /// Tasks in the graph.
        expected: usize,
        /// Entries in the allocation.
        got: usize,
    },
    /// A task was allocated more processors than the cluster has.
    AllocationTooWide {
        /// The offending task.
        task: TaskId,
        /// Its allocation.
        np: usize,
        /// The cluster size.
        p: usize,
    },
    /// A task's execution profile produced a non-finite run time at its
    /// allocated width. Priorities and placements compare times with total
    /// orderings, so a NaN or infinity would otherwise corrupt every
    /// downstream decision silently; it is rejected up front instead.
    NonFiniteTime {
        /// The offending task.
        task: TaskId,
        /// The processor count whose `time(np)` was non-finite.
        np: usize,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::Graph(e) => write!(f, "invalid task graph: {e}"),
            SchedError::AllocationMismatch { expected, got } => {
                write!(f, "allocation covers {got} tasks, graph has {expected}")
            }
            SchedError::AllocationTooWide { task, np, p } => {
                write!(f, "task {task} allocated {np} > {p} processors")
            }
            SchedError::NonFiniteTime { task, np } => {
                write!(
                    f,
                    "task {task} has a non-finite execution time on {np} processors"
                )
            }
        }
    }
}

impl std::error::Error for SchedError {}

/// Deterministic work counters of the LoC-MPS refinement search.
///
/// The search is sequential, so every field is a pure function of the
/// scheduling inputs — CI can pin exact values and a search-efficiency
/// regression fails loudly without flaky wall-clock gates. Baselines that
/// run no search report all zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchCounters {
    /// LoCBS placement passes run, each to its last placement.
    pub locbs_passes: u64,
    /// Always 0: no pass stops before its last placement any more. The
    /// field stays because the `perfbench` benchmark package sums it by
    /// name.
    pub probes_aborted: u64,
    /// Corner-restart probes skipped entirely because the allocation's
    /// admissible lower bound could not beat the incumbent.
    pub branches_pruned: u64,
    /// Always 0: no bound cuts a look-ahead walk short any more. The field
    /// stays because the `perfbench` benchmark package sums it by name.
    pub lookahead_cutoffs: u64,
    /// Look-ahead passes answered by the allocation-keyed pass memo
    /// instead of a fresh placement (LoCBS output is a pure function of
    /// the graph and the allocation, so replays are exact).
    pub pass_memo_hits: u64,
    /// Look-ahead walk steps that took their successor allocation from the
    /// memo, where an earlier walk's refinement of the same allocation
    /// recorded it, instead of refining again (the refinement is a pure
    /// function of the allocation, so the successor is the same).
    pub successors_reused: u64,
    /// Placements a pass copied from the previous pass's placement log
    /// instead of placing them (the shared prefix of the two passes; see
    /// [`Locbs::run_into_resumed`](crate::Locbs::run_into_resumed)).
    pub placements_replayed: u64,
    /// Candidate starts the LoCBS placements examined, summed over the
    /// search's passes: each start a placement took from the candidate
    /// cursor or, without backfill, from the last-end list. A placement
    /// copied from the log examines none. The scan stops at an exact
    /// finish bound, so where it stops changes no schedule, only this
    /// count.
    pub candidates_examined: u64,
    /// Schedule-DAG edge weights of refinement steps taken from the
    /// previous exact pricing of the same edge instead of the transfer
    /// kernel, because the edge's source group, destination group and
    /// volume were all unchanged since.
    pub transfers_reused: u64,
    /// Improving rounds committed by the outer search loop.
    pub commits: u64,
}

impl SearchCounters {
    /// Whether any search work was recorded at all (baselines report
    /// all-zero counters).
    pub fn any(&self) -> bool {
        *self != Self::default()
    }

    /// The counters the search-effort surfaces report, in the one order
    /// they all use: the `locmps schedule` effort line, the `LM210`
    /// diagnostic and `BENCH_locmps.json`. `probes_aborted` and
    /// `lookahead_cutoffs`, always 0, are left out.
    pub fn reported(&self) -> [ReportedCounter; 8] {
        let entry = |key, label, value| ReportedCounter { key, label, value };
        [
            entry("locbs_passes", "LoCBS passes", self.locbs_passes),
            entry("pass_memo_hits", "memo hits", self.pass_memo_hits),
            entry(
                "successors_reused",
                "successors reused",
                self.successors_reused,
            ),
            entry(
                "placements_replayed",
                "placements replayed",
                self.placements_replayed,
            ),
            entry(
                "candidates_examined",
                "candidates examined",
                self.candidates_examined,
            ),
            entry(
                "transfers_reused",
                "transfers reused",
                self.transfers_reused,
            ),
            entry("branches_pruned", "branches pruned", self.branches_pruned),
            entry("commits", "commits", self.commits),
        ]
    }
}

/// One entry of [`SearchCounters::reported`]. Text shows it as
/// `value label`; machine-readable output pairs `key` with `value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportedCounter {
    /// The machine-readable name: the `LM210` data key and the
    /// `BENCH_locmps.json` key.
    pub key: &'static str,
    /// The words that follow the value in text, e.g. `successors reused`.
    pub label: &'static str,
    /// The counter's value.
    pub value: u64,
}

/// The reported counters as text, `value label` each, comma-separated in
/// the order of [`SearchCounters::reported`]: the `locmps schedule`
/// effort line and the `LM210` message.
impl std::fmt::Display for SearchCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, c) in self.reported().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(f, "{sep}{} {}", c.value, c.label)?;
        }
        Ok(())
    }
}

/// What a scheduler returns: the schedule, the allocation behind it, and —
/// for LoCBS-based schedulers — the pseudo-edge schedule-DAG `G'`.
#[derive(Debug, Clone)]
pub struct SchedulerOutput {
    /// Placement and timing of every task.
    pub schedule: Schedule,
    /// The processor counts the scheduler settled on.
    pub allocation: Allocation,
    /// `G'` when the scheduler constructs one (`None` for e.g. DATA).
    pub schedule_dag: Option<TaskGraph>,
    /// Search-effort counters (all zeros for schedulers without a
    /// refinement search).
    pub counters: SearchCounters,
}

impl SchedulerOutput {
    /// The schedule length.
    pub fn makespan(&self) -> f64 {
        self.schedule.makespan()
    }
}

// The serve daemon computes schedules on worker threads and shares the
// results across connections, so scheduler outputs must stay plain owned
// data. These assertions turn an accidental `Rc`/`RefCell` in any nested
// type into a compile error instead of a daemon that no longer builds.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SchedulerOutput>();
    assert_send_sync::<SearchCounters>();
    assert_send_sync::<SchedError>();
};

/// A mixed-parallel scheduler: decides allocation, mapping and timing for a
/// task graph on a cluster.
pub trait Scheduler {
    /// Short identifier used in reports ("LoC-MPS", "CPR", …).
    fn name(&self) -> &'static str;

    /// Computes a complete schedule.
    fn schedule(&self, g: &TaskGraph, cluster: &Cluster) -> Result<SchedulerOutput, SchedError>;
}
