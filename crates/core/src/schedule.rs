//! Schedules: the common output type of every scheduler in this workspace,
//! with its legality checker and a text Gantt renderer.
//!
//! [`Schedule::violations`] is the one statement of the paper's schedule
//! model (§II): [`Schedule::validate`] returns its first finding, and the
//! analyzer's `LM1xx` diagnostics (`locmps_analysis`) render all of them.

use std::collections::BTreeSet;

use locmps_platform::{CommOverlap, ProcId, ProcSet};
use locmps_taskgraph::{TaskGraph, TaskId};
use serde::{Deserialize, Serialize};

use crate::commcost::CommModel;

/// Relative tolerance for floating-point time comparisons.
pub const TIME_EPS: f64 = 1e-6;

/// Scale-aware closeness test for schedule times: `TIME_EPS` relative to
/// the magnitude of `scale` (absolute below 1). Exposed so external tests
/// can mirror the scheduler's comparison semantics exactly.
#[inline]
pub fn time_eps(scale: f64) -> f64 {
    TIME_EPS * scale.abs().max(1.0)
}

/// Placement and timing of one task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledTask {
    /// The task.
    pub task: TaskId,
    /// The processors it occupies.
    pub procs: ProcSet,
    /// When the task begins occupying its processors. Under the no-overlap
    /// communication regime this is when inbound redistribution starts.
    pub start: f64,
    /// When computation proper begins (`start` plus inbound redistribution
    /// under no-overlap; equal to `start` under full overlap).
    pub compute_start: f64,
    /// When the task completes and releases its processors.
    pub finish: f64,
}

impl ScheduledTask {
    /// Number of processors allocated, `np(t)`.
    pub fn np(&self) -> usize {
        self.procs.len()
    }
}

/// One way a schedule breaks the paper's model: a finding of
/// [`Schedule::violations`].
///
/// Each variant is one `LM1xx` rule of the schedule analyzer
/// (`locmps_analysis`), and its `Display` is that rule's message. Every
/// variant carries the values its diagnostic reports.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// An entry names a task the graph does not contain (`LM109`).
    StrayEntry(TaskId),
    /// A task was never placed (`LM101`).
    Unscheduled(TaskId),
    /// A task has an empty processor set (`LM103`).
    EmptyProcSet(TaskId),
    /// A task uses a processor id outside the cluster (`LM102`).
    ProcOutOfRange(TaskId),
    /// Timing fields are inconsistent: `start ≤ compute_start ≤ finish`
    /// violated, or `finish ≠ compute_start + et` (`LM104`).
    BadTiming {
        /// The task.
        task: TaskId,
        /// Its execution time on its processor count.
        et: f64,
    },
    /// A precedence or redistribution constraint is violated on an edge
    /// (`LM105`).
    PrecedenceViolated {
        /// Producer task.
        src: TaskId,
        /// Consumer task.
        dst: TaskId,
        /// Earliest legal value for the violated field.
        required: f64,
        /// The actual value found in the schedule.
        actual: f64,
        /// Under full overlap, the exact transfer time the consumer's
        /// computation waits for; `None` under no-overlap, where the
        /// consumer's occupancy waits for the producer's finish.
        transfer: Option<f64>,
    },
    /// The consumer's communication window is too short for its inbound
    /// redistribution under the no-overlap regime (`LM107`).
    CommWindowTooShort {
        /// The consumer.
        task: TaskId,
        /// `compute_start - start`.
        window: f64,
        /// The sum of its inbound transfer times.
        inbound: f64,
    },
    /// Two tasks occupy the same processor at the same time (`LM106`).
    Overlap {
        /// The shared processor.
        proc: ProcId,
        /// The task that starts first on it.
        first: TaskId,
        /// The task that starts before `first` finishes.
        second: TaskId,
        /// When `first` finishes.
        first_finish: f64,
        /// When `second` starts.
        second_start: f64,
    },
    /// The makespan is below the critical path of the realized schedule,
    /// so some timestamp is impossible (`LM110`).
    BelowCriticalPath {
        /// The schedule's makespan.
        makespan: f64,
        /// The longest earliest-finish path under the schedule's own
        /// allocations, placements and transfer times.
        bound: f64,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::StrayEntry(_) => {
                f.write_str("schedule entry for a task that is not in the graph")
            }
            ScheduleError::Unscheduled(_) => f.write_str("task was never scheduled"),
            ScheduleError::EmptyProcSet(_) => f.write_str("task has an empty processor set"),
            ScheduleError::ProcOutOfRange(_) => {
                f.write_str("task uses a processor outside the cluster")
            }
            ScheduleError::BadTiming { .. } => f.write_str(
                "timing fields are inconsistent \
                 (start <= compute_start <= finish = compute_start + et violated)",
            ),
            ScheduleError::PrecedenceViolated {
                transfer: Some(_), ..
            } => f.write_str("consumer computes before producer output arrives"),
            ScheduleError::PrecedenceViolated { transfer: None, .. } => {
                f.write_str("consumer starts before producer finishes")
            }
            ScheduleError::CommWindowTooShort { .. } => {
                f.write_str("communication window is shorter than the inbound redistribution")
            }
            ScheduleError::Overlap { first, second, .. } => {
                write!(f, "tasks {first} and {second} overlap in time")
            }
            ScheduleError::BelowCriticalPath { .. } => {
                f.write_str("makespan is below the critical path of the realized schedule")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Options for the text Gantt chart.
#[derive(Debug, Clone, Copy)]
pub struct GanttOptions {
    /// Character columns used for the time axis.
    pub width: usize,
}

impl Default for GanttOptions {
    fn default() -> Self {
        Self { width: 72 }
    }
}

/// A complete schedule: one [`ScheduledTask`] per task.
#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    entries: Vec<ScheduledTask>,
}

impl Clone for Schedule {
    fn clone(&self) -> Self {
        Self {
            entries: self.entries.clone(),
        }
    }

    /// Copies `source` into this schedule's entry vector, reusing its
    /// buffer (an entry copies without allocating while its processor
    /// set is inline).
    fn clone_from(&mut self, source: &Self) {
        self.entries.clone_from(&source.entries);
    }
}

impl Schedule {
    /// Builds a schedule from per-task entries (any order; re-sorted by
    /// task id in place, which for entries already in task order, as a
    /// LoCBS pass collects them, is one scan).
    ///
    /// # Panics
    /// Panics if two entries describe the same task.
    pub fn from_entries(mut entries: Vec<ScheduledTask>) -> Self {
        entries.sort_unstable_by_key(|e| e.task);
        for w in entries.windows(2) {
            assert!(w[0].task != w[1].task, "duplicate entry for {}", w[0].task);
        }
        Self { entries }
    }

    /// The entry for task `t`, if present: at index `t` in a complete
    /// schedule, found by binary search in a partial one.
    pub fn get(&self, t: TaskId) -> Option<&ScheduledTask> {
        let i = match self.entries.get(t.index()) {
            Some(e) if e.task == t => t.index(),
            _ => self.entries.binary_search_by_key(&t, |e| e.task).ok()?,
        };
        Some(&self.entries[i])
    }

    /// All entries in task-id order.
    pub fn entries(&self) -> &[ScheduledTask] {
        &self.entries
    }

    /// Number of scheduled tasks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no task is scheduled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The makespan: latest finish time (0 for an empty schedule).
    pub fn makespan(&self) -> f64 {
        self.entries.iter().map(|e| e.finish).fold(0.0, f64::max)
    }

    /// Fraction of the processors × makespan rectangle filled with task
    /// occupancy.
    pub fn utilization(&self, n_procs: usize) -> f64 {
        let ms = self.makespan();
        if ms <= 0.0 || n_procs == 0 {
            return 0.0;
        }
        let busy: f64 = self
            .entries
            .iter()
            .map(|e| (e.finish - e.start) * e.np() as f64)
            .sum();
        busy / (ms * n_procs as f64)
    }

    /// Checks that this schedule is *valid* for `g` on `model`'s cluster
    /// under its communication semantics, returning the first of its
    /// [`violations`](Self::violations).
    pub fn validate(&self, g: &TaskGraph, model: &CommModel<'_>) -> Result<(), ScheduleError> {
        self.violations(g, model)
            .into_iter()
            .next()
            .map_or(Ok(()), Err)
    }

    /// Every way this schedule breaks the paper's model for `g` under
    /// `model`'s communication semantics, in this order:
    ///
    /// 1. entries for tasks outside the graph;
    /// 2. per graph task: a missing entry, an empty or out-of-range
    ///    processor set, and timing other than
    ///    `start ≤ compute_start ≤ finish = compute_start + et(np)`;
    /// 3. per edge: under full overlap the consumer's computation starts
    ///    no earlier than producer finish plus the exact transfer time;
    ///    under no-overlap the consumer's occupancy starts no earlier than
    ///    producer finish, and its communication window covers the sum of
    ///    its inbound transfers;
    /// 4. per processor: each pair of overlapping bookings, once;
    /// 5. a makespan below the critical path of the realized schedule.
    ///
    /// Times compare with [`time_eps`] of the larger time involved. A check
    /// skips what is too broken to judge: edges whose producer is missing,
    /// bookings on processors outside the cluster, and the critical path
    /// whenever step 2 found anything.
    pub fn violations(&self, g: &TaskGraph, model: &CommModel<'_>) -> Vec<ScheduleError> {
        let cluster = model.cluster();
        let n_procs = cluster.n_procs;
        let mut found: Vec<ScheduleError> = self
            .entries
            .iter()
            .filter(|e| e.task.index() >= g.n_tasks())
            .map(|e| ScheduleError::StrayEntry(e.task))
            .collect();

        // 2: per-task placement and timing.
        let mut sound = true;
        for t in g.task_ids() {
            let Some(e) = self.get(t) else {
                found.push(ScheduleError::Unscheduled(t));
                sound = false;
                continue;
            };
            if e.procs.is_empty() {
                found.push(ScheduleError::EmptyProcSet(t));
                sound = false;
            } else if e.procs.iter().any(|p| p as usize >= n_procs) {
                found.push(ScheduleError::ProcOutOfRange(t));
                sound = false;
            }
            let et = g.task(t).profile.time(e.np().max(1));
            let eps = time_eps(e.finish);
            if e.start > e.compute_start + eps
                || e.compute_start > e.finish + eps
                || (e.finish - (e.compute_start + et)).abs() > eps
            {
                found.push(ScheduleError::BadTiming { task: t, et });
                sound = false;
            }
        }

        // 3: edges.
        for t in g.task_ids() {
            let Some(dst) = self.get(t) else { continue };
            let mut inbound = 0.0;
            let mut inbound_complete = true;
            for eid in g.in_edges(t) {
                let edge = g.edge(eid);
                let Some(src) = self.get(edge.src) else {
                    inbound_complete = false;
                    continue;
                };
                let eps = time_eps(src.finish.max(dst.finish));
                let ct = model.transfer_time(&src.procs, &dst.procs, edge.volume);
                match cluster.overlap {
                    CommOverlap::Full => {
                        let required = src.finish + ct;
                        if dst.compute_start + eps < required {
                            found.push(ScheduleError::PrecedenceViolated {
                                src: edge.src,
                                dst: t,
                                required,
                                actual: dst.compute_start,
                                transfer: Some(ct),
                            });
                        }
                    }
                    CommOverlap::None => {
                        if dst.start + eps < src.finish {
                            found.push(ScheduleError::PrecedenceViolated {
                                src: edge.src,
                                dst: t,
                                required: src.finish,
                                actual: dst.start,
                                transfer: None,
                            });
                        }
                        inbound += ct;
                    }
                }
            }
            if cluster.overlap == CommOverlap::None && inbound_complete {
                let window = dst.compute_start - dst.start;
                if window + time_eps(dst.finish) < inbound {
                    found.push(ScheduleError::CommWindowTooShort {
                        task: t,
                        window,
                        inbound,
                    });
                }
            }
        }

        // 4: double-booking, per processor sweep.
        let mut by_proc: Vec<Vec<(f64, f64, TaskId)>> = vec![Vec::new(); n_procs];
        for e in &self.entries {
            for p in e.procs.iter() {
                if let Some(bookings) = by_proc.get_mut(p as usize) {
                    bookings.push((e.start, e.finish, e.task));
                }
            }
        }
        let mut reported = BTreeSet::new();
        for (p, bookings) in (0..).zip(&mut by_proc) {
            bookings.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in bookings.windows(2) {
                let ((_, first_finish, first), (second_start, second_finish, second)) =
                    (w[0], w[1]);
                if second_start + time_eps(second_finish) < first_finish
                    && reported.insert((first, second))
                {
                    found.push(ScheduleError::Overlap {
                        proc: p,
                        first,
                        second,
                        first_finish,
                        second_start,
                    });
                }
            }
        }

        // 5: the critical path, on entries sound enough to walk.
        if sound {
            if let Ok(order) = g.topo_order() {
                let bound = self.critical_path_bound(g, model, &order);
                // Earliest-finish slack compounds once per level, so the
                // tolerance scales with the task count.
                let tol = time_eps(bound) * g.n_tasks() as f64;
                let makespan = self.makespan();
                if makespan + tol < bound {
                    found.push(ScheduleError::BelowCriticalPath { makespan, bound });
                }
            }
        }
        found
    }

    /// Longest earliest-finish path through `g` given the schedule's
    /// realized allocations and placements: a hard lower bound on any legal
    /// makespan. Needs an entry with a non-empty processor set for every
    /// task.
    fn critical_path_bound(&self, g: &TaskGraph, model: &CommModel<'_>, order: &[TaskId]) -> f64 {
        let cluster = model.cluster();
        let mut ef = vec![0.0f64; g.n_tasks()];
        for &t in order {
            let e = self.get(t).expect("caller checked soundness");
            let et = g.task(t).profile.time(e.np());
            let mut ready = 0.0f64;
            let mut inbound = 0.0f64;
            for eid in g.in_edges(t) {
                let edge = g.edge(eid);
                let src = self.get(edge.src).expect("caller checked soundness");
                let ct = model.transfer_time(&src.procs, &e.procs, edge.volume);
                match cluster.overlap {
                    // Computation may begin once each producer's data arrived.
                    CommOverlap::Full => ready = ready.max(ef[edge.src.index()] + ct),
                    // Occupancy begins after every producer; the inbound
                    // transfers then serialize inside the window.
                    CommOverlap::None => {
                        ready = ready.max(ef[edge.src.index()]);
                        inbound += ct;
                    }
                }
            }
            ef[t.index()] = ready + inbound + et;
        }
        ef.iter().copied().fold(0.0, f64::max)
    }

    /// Renders an ASCII Gantt chart: one row per processor, `#`-shaded task
    /// boxes labelled by task index, `.` for idle and `~` for a task's
    /// inbound-communication window.
    pub fn gantt(&self, g: &TaskGraph, n_procs: usize, opts: GanttOptions) -> String {
        use std::fmt::Write as _;
        let ms = self.makespan();
        let width = opts.width.max(8);
        let scale = if ms > 0.0 { width as f64 / ms } else { 0.0 };
        let mut rows = vec![vec!['.'; width]; n_procs];
        for e in &self.entries {
            let label = label_char(e.task.index());
            let c0 = ((e.start * scale) as usize).min(width - 1);
            let cc = ((e.compute_start * scale) as usize).min(width);
            let c1 = (((e.finish * scale).ceil()) as usize).clamp(c0 + 1, width);
            for p in e.procs.iter() {
                let row = &mut rows[p as usize];
                for (i, cell) in row.iter_mut().enumerate().take(c1).skip(c0) {
                    *cell = if i < cc { '~' } else { label };
                }
            }
        }
        let mut out = String::new();
        writeln!(
            out,
            "makespan = {ms:.2}  (one column ≈ {:.2})",
            if scale > 0.0 { 1.0 / scale } else { 0.0 }
        )
        .unwrap();
        for (p, row) in rows.iter().enumerate() {
            writeln!(out, "p{p:>3} |{}|", row.iter().collect::<String>()).unwrap();
        }
        let mut legend: Vec<(TaskId, char)> = self
            .entries
            .iter()
            .map(|e| (e.task, label_char(e.task.index())))
            .collect();
        legend.truncate(26);
        write!(out, "tasks:").unwrap();
        for (t, c) in legend {
            write!(out, " {c}={}", g.task(t).name).unwrap();
        }
        out.push('\n');
        out
    }
}

fn label_char(i: usize) -> char {
    const LABELS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
    LABELS[i % LABELS.len()] as char
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmps_platform::Cluster;
    use locmps_speedup::ExecutionProfile;

    fn set(ids: &[u32]) -> ProcSet {
        ids.iter().copied().collect()
    }

    fn chain_graph(volume: f64) -> TaskGraph {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(10.0));
        let b = g.add_task("b", ExecutionProfile::linear(10.0));
        g.add_edge(a, b, volume).unwrap();
        g
    }

    fn entry(t: u32, procs: &[u32], start: f64, cstart: f64, finish: f64) -> ScheduledTask {
        ScheduledTask {
            task: TaskId(t),
            procs: set(procs),
            start,
            compute_start: cstart,
            finish,
        }
    }

    #[test]
    fn valid_chain_schedule_passes() {
        let g = chain_graph(0.0);
        let cluster = Cluster::new(2, 12.5);
        let model = CommModel::new(&cluster);
        let s = Schedule::from_entries(vec![
            entry(0, &[0], 0.0, 0.0, 10.0),
            entry(1, &[0], 10.0, 10.0, 20.0),
        ]);
        s.validate(&g, &model).unwrap();
        assert_eq!(s.makespan(), 20.0);
        assert!((s.utilization(2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn get_finds_entries_of_a_partial_schedule() {
        // Tasks 0, 2 and 5 only: 2 and 5 sit below their own index, so
        // they are found through the binary-search fallback.
        let s = Schedule::from_entries(vec![
            entry(5, &[1], 4.0, 4.0, 6.0),
            entry(0, &[0], 0.0, 0.0, 2.0),
            entry(2, &[0], 2.0, 2.0, 4.0),
        ]);
        assert_eq!(s.get(TaskId(0)).map(|e| e.finish), Some(2.0));
        assert_eq!(s.get(TaskId(2)).map(|e| e.task), Some(TaskId(2)));
        assert_eq!(s.get(TaskId(5)).map(|e| e.task), Some(TaskId(5)));
        assert!(s.get(TaskId(1)).is_none());
        assert!(s.get(TaskId(9)).is_none());
    }

    #[test]
    fn detects_precedence_violation_with_transfer() {
        let g = chain_graph(125.0); // 10 s at 12.5 MB/s between disjoint procs
        let cluster = Cluster::new(2, 12.5);
        let model = CommModel::new(&cluster);
        let s = Schedule::from_entries(vec![
            entry(0, &[0], 0.0, 0.0, 10.0),
            entry(1, &[1], 10.0, 10.0, 20.0), // starts before transfer done
        ]);
        match s.validate(&g, &model).unwrap_err() {
            ScheduleError::PrecedenceViolated { required, .. } => {
                assert!((required - 20.0).abs() < 1e-9);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Blind model accepts the same schedule (iCASLB's own view).
        let blind = CommModel::blind(&cluster);
        s.validate(&g, &blind).unwrap();
    }

    #[test]
    fn detects_double_booking() {
        let g = {
            let mut g = TaskGraph::new();
            g.add_task("a", ExecutionProfile::linear(10.0));
            g.add_task("b", ExecutionProfile::linear(10.0));
            g
        };
        let cluster = Cluster::new(1, 12.5);
        let model = CommModel::new(&cluster);
        let s = Schedule::from_entries(vec![
            entry(0, &[0], 0.0, 0.0, 10.0),
            entry(1, &[0], 5.0, 5.0, 15.0),
        ]);
        assert!(matches!(
            s.validate(&g, &model),
            Err(ScheduleError::Overlap { .. })
        ));
    }

    #[test]
    fn detects_missing_and_malformed_tasks() {
        let g = chain_graph(0.0);
        let cluster = Cluster::new(2, 12.5);
        let model = CommModel::new(&cluster);
        let missing = Schedule::from_entries(vec![entry(0, &[0], 0.0, 0.0, 10.0)]);
        assert!(matches!(
            missing.validate(&g, &model),
            Err(ScheduleError::Unscheduled(_))
        ));
        let out_of_range = Schedule::from_entries(vec![
            entry(0, &[5], 0.0, 0.0, 10.0),
            entry(1, &[0], 10.0, 10.0, 20.0),
        ]);
        assert!(matches!(
            out_of_range.validate(&g, &model),
            Err(ScheduleError::ProcOutOfRange(_))
        ));
        let bad_timing = Schedule::from_entries(vec![
            entry(0, &[0], 0.0, 0.0, 99.0), // finish != start + et
            entry(1, &[0], 99.0, 99.0, 109.0),
        ]);
        assert!(matches!(
            bad_timing.validate(&g, &model),
            Err(ScheduleError::BadTiming { .. })
        ));
    }

    #[test]
    fn no_overlap_requires_comm_window() {
        let g = chain_graph(125.0);
        let cluster = Cluster::new(2, 12.5).without_overlap();
        let model = CommModel::new(&cluster);
        // Transfer takes 10 s; window of zero is rejected.
        let bad = Schedule::from_entries(vec![
            entry(0, &[0], 0.0, 0.0, 10.0),
            entry(1, &[1], 10.0, 10.0, 20.0),
        ]);
        assert!(matches!(
            bad.validate(&g, &model),
            Err(ScheduleError::CommWindowTooShort { .. })
        ));
        // With the window, it passes.
        let good = Schedule::from_entries(vec![
            entry(0, &[0], 0.0, 0.0, 10.0),
            entry(1, &[1], 10.0, 20.0, 30.0),
        ]);
        good.validate(&g, &model).unwrap();
    }

    #[test]
    fn gantt_renders_all_processors() {
        let g = chain_graph(0.0);
        let s = Schedule::from_entries(vec![
            entry(0, &[0], 0.0, 0.0, 10.0),
            entry(1, &[1], 10.0, 10.0, 20.0),
        ]);
        let txt = s.gantt(&g, 2, GanttOptions::default());
        assert!(txt.contains("p  0"));
        assert!(txt.contains("p  1"));
        assert!(txt.contains("makespan = 20.00"));
        assert!(txt.contains("A=a"));
    }
}
