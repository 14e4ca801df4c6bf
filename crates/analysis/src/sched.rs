//! The schedule analyzer (`LM1xx` correctness, `LM2xx` metrics): an
//! exhaustive generalization of `Schedule::validate`.
//!
//! `validate` answers "is this schedule legal?" with the *first* violation
//! it meets; the analyzer keeps going and reports *every* violation, adds
//! checks `validate` does not perform (stray entries, the critical-path
//! lower bound), and appends performance observations (utilization,
//! locality, idle gaps) as [`Severity::Info`] diagnostics.
//!
//! The correctness checks reuse `validate`'s exact tolerance
//! ([`locmps_core::schedule::time_eps`]), so the two agree: a schedule with
//! no `LM1xx` Error diagnostics passes `Schedule::validate`, and vice
//! versa.

use locmps_core::schedule::time_eps;
use locmps_core::{CommModel, Schedule};
use locmps_platform::CommOverlap;
use locmps_taskgraph::{EdgeKind, TaskGraph, TaskId};

use crate::codes;
use crate::diag::{Diagnostic, Report, Severity};

/// Analyzes `s` against its task graph and communication model, collecting
/// every finding (correctness errors and performance observations) into one
/// [`Report`].
pub fn analyze_schedule(s: &Schedule, g: &TaskGraph, model: &CommModel<'_>) -> Report {
    let mut report = Report::new();
    let cluster = model.cluster();
    let n_procs = cluster.n_procs;

    // LM109: entries for tasks the graph does not contain. `validate`
    // ignores these entirely (it iterates graph tasks), yet a stray entry
    // still occupies processors and corrupts every downstream metric.
    for e in s.entries() {
        if e.task.index() >= g.n_tasks() {
            report.push(
                Diagnostic::new(
                    codes::STRAY_ENTRY,
                    Severity::Error,
                    e.task.to_string(),
                    "schedule entry for a task that is not in the graph",
                )
                .with("n_tasks", g.n_tasks()),
            );
        }
    }

    // Per-task placement and timing checks (LM101–LM104). `usable[t]`
    // records whether the entry is structurally sound enough for the edge,
    // booking and critical-path checks below to consume.
    let mut usable = vec![false; g.n_tasks()];
    for t in g.task_ids() {
        let Some(e) = s.get(t) else {
            report.push(Diagnostic::new(
                codes::UNSCHEDULED,
                Severity::Error,
                t.to_string(),
                "task was never scheduled",
            ));
            continue;
        };
        let mut ok = true;
        if e.procs.is_empty() {
            report.push(Diagnostic::new(
                codes::EMPTY_PROCSET,
                Severity::Error,
                t.to_string(),
                "task has an empty processor set",
            ));
            ok = false;
        } else if e.procs.iter().any(|p| p as usize >= n_procs) {
            report.push(
                Diagnostic::new(
                    codes::PROC_OUT_OF_RANGE,
                    Severity::Error,
                    t.to_string(),
                    "task uses a processor outside the cluster",
                )
                .with("n_procs", n_procs),
            );
            ok = false;
        }
        let et = g.task(t).profile.time(e.np().max(1));
        let eps = time_eps(e.finish);
        if e.start > e.compute_start + eps
            || e.compute_start > e.finish + eps
            || (e.finish - (e.compute_start + et)).abs() > eps
        {
            report.push(
                Diagnostic::new(
                    codes::BAD_TIMING,
                    Severity::Error,
                    t.to_string(),
                    "timing fields are inconsistent \
                     (start <= compute_start <= finish = compute_start + et violated)",
                )
                .with("start", e.start)
                .with("compute_start", e.compute_start)
                .with("finish", e.finish)
                .with("et", et),
            );
            ok = false;
        }
        usable[t.index()] = ok;
    }

    // Edge checks (LM105, LM107), mirroring `validate` exactly but without
    // stopping, and skipping edges whose endpoints are too broken to judge.
    for t in g.task_ids() {
        let Some(dst) = s.get(t) else { continue };
        let mut inbound = 0.0;
        let mut inbound_complete = true;
        for eid in g.in_edges(t) {
            let edge = g.edge(eid);
            let Some(src) = s.get(edge.src) else {
                inbound_complete = false;
                continue;
            };
            let eps = time_eps(src.finish.max(dst.finish));
            match cluster.overlap {
                CommOverlap::Full => {
                    let ct = model.transfer_time(&src.procs, &dst.procs, edge.volume);
                    let required = src.finish + ct;
                    if dst.compute_start + eps < required {
                        report.push(
                            Diagnostic::new(
                                codes::PRECEDENCE_VIOLATED,
                                Severity::Error,
                                format!("edge {}->{}", edge.src, t),
                                "consumer computes before producer output arrives",
                            )
                            .with("required", required)
                            .with("actual", dst.compute_start)
                            .with("transfer", ct),
                        );
                    }
                }
                CommOverlap::None => {
                    if dst.start + eps < src.finish {
                        report.push(
                            Diagnostic::new(
                                codes::PRECEDENCE_VIOLATED,
                                Severity::Error,
                                format!("edge {}->{}", edge.src, t),
                                "consumer starts before producer finishes",
                            )
                            .with("required", src.finish)
                            .with("actual", dst.start),
                        );
                    }
                    inbound += model.transfer_time(&src.procs, &dst.procs, edge.volume);
                }
            }
        }
        if cluster.overlap == CommOverlap::None && inbound_complete {
            let window = dst.compute_start - dst.start;
            if window + time_eps(dst.finish) < inbound {
                report.push(
                    Diagnostic::new(
                        codes::COMM_WINDOW_TOO_SHORT,
                        Severity::Error,
                        t.to_string(),
                        "communication window is shorter than the inbound redistribution",
                    )
                    .with("window", window)
                    .with("inbound", inbound),
                );
            }
        }
    }

    // Double-booking sweep (LM106), per processor, reporting every
    // overlapping adjacent pair instead of the first.
    let mut by_proc: Vec<Vec<(f64, f64, TaskId)>> = vec![Vec::new(); n_procs];
    for e in s.entries() {
        for p in e.procs.iter() {
            if (p as usize) < n_procs {
                by_proc[p as usize].push((e.start, e.finish, e.task));
            }
        }
    }
    let mut booked = std::collections::HashSet::new();
    for (p, intervals) in by_proc.iter_mut().enumerate() {
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in intervals.windows(2) {
            let eps = time_eps(w[1].1);
            if w[1].0 + eps < w[0].1 && booked.insert((w[0].2, w[1].2)) {
                report.push(
                    Diagnostic::new(
                        codes::DOUBLE_BOOKING,
                        Severity::Error,
                        format!("proc {p}"),
                        format!("tasks {} and {} overlap in time", w[0].2, w[1].2),
                    )
                    .with("first_finish", w[0].1)
                    .with("second_start", w[1].0),
                );
            }
        }
    }

    // LM110: the makespan must respect the critical path of the *realized*
    // schedule — earliest finishes recomputed over the graph with the
    // schedule's own allocations, placements and transfer times. Any
    // violation means some timestamp is impossible. Needs every entry to be
    // structurally sound and the graph acyclic.
    if usable.iter().all(|&ok| ok) {
        if let Ok(order) = g.topo_order() {
            let bound = critical_path_bound(s, g, model, &order);
            // Earliest-finish slack compounds once per level, so scale the
            // tolerance by the task count to avoid false positives on deep
            // graphs.
            let tol = time_eps(bound) * g.n_tasks() as f64;
            if s.makespan() + tol < bound {
                report.push(
                    Diagnostic::new(
                        codes::MAKESPAN_BELOW_BOUND,
                        Severity::Error,
                        "schedule",
                        "makespan is below the critical path of the realized schedule",
                    )
                    .with("makespan", s.makespan())
                    .with("critical_path", bound),
                );
            }
        }
    }

    // Performance observations (Info). Only meaningful on structurally
    // sound schedules.
    if usable.iter().all(|&ok| ok) {
        push_metrics(s, g, model, &mut report);
    }

    report
}

/// Longest earliest-finish path through `g` given the schedule's realized
/// allocations and placements: a hard lower bound on any legal makespan.
fn critical_path_bound(
    s: &Schedule,
    g: &TaskGraph,
    model: &CommModel<'_>,
    order: &[TaskId],
) -> f64 {
    let cluster = model.cluster();
    let mut ef = vec![0.0f64; g.n_tasks()];
    for &t in order {
        let e = s.get(t).expect("caller checked usability");
        let et = g.task(t).profile.time(e.np());
        let mut ready = 0.0f64;
        let mut inbound = 0.0f64;
        for eid in g.in_edges(t) {
            let edge = g.edge(eid);
            let src = s.get(edge.src).expect("caller checked usability");
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

/// Appends the `LM2xx` Info diagnostics: utilization, locality and idle-gap
/// accounting for a structurally sound schedule.
fn push_metrics(s: &Schedule, g: &TaskGraph, model: &CommModel<'_>, report: &mut Report) {
    let n_procs = model.cluster().n_procs;
    let makespan = s.makespan();

    report.push(
        Diagnostic::new(
            codes::UTILIZATION,
            Severity::Info,
            "schedule",
            format!(
                "utilization {:.1}% over {} processors",
                100.0 * s.utilization(n_procs),
                n_procs
            ),
        )
        .with("utilization", format_args!("{:.6}", s.utilization(n_procs)))
        .with("makespan", format_args!("{makespan:.6}"))
        .with("n_procs", n_procs),
    );

    // Locality: how much of the data-edge traffic finds its consumer
    // already holding processors that produced the data (the quantity
    // LoC-MPS optimizes for; §III.B of the paper).
    let mut n_data = 0usize;
    let mut n_local = 0usize;
    let mut vol_total = 0.0f64;
    let mut vol_local = 0.0f64;
    for (_, e) in g.edges() {
        if e.kind != EdgeKind::Data || e.volume <= 0.0 {
            continue;
        }
        let (Some(src), Some(dst)) = (s.get(e.src), s.get(e.dst)) else {
            continue;
        };
        n_data += 1;
        vol_total += e.volume;
        let shared = src.procs.intersection_len(&dst.procs);
        if shared > 0 {
            n_local += 1;
            vol_local += e.volume * shared as f64 / dst.np().max(1) as f64;
        }
    }
    if n_data > 0 {
        report.push(
            Diagnostic::new(
                codes::LOCALITY,
                Severity::Info,
                "schedule",
                format!("{n_local}/{n_data} data edges reuse at least one producer processor"),
            )
            .with(
                "edge_fraction",
                format_args!("{:.6}", n_local as f64 / n_data as f64),
            )
            .with(
                "resident_volume_fraction",
                format_args!(
                    "{:.6}",
                    if vol_total > 0.0 {
                        vol_local / vol_total
                    } else {
                        0.0
                    }
                ),
            ),
        );
    }

    // Idle gaps: for each processor, time within [0, makespan] not covered
    // by task occupancy. Summarized as one diagnostic.
    let mut by_proc: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n_procs];
    for e in s.entries() {
        for p in e.procs.iter() {
            if (p as usize) < n_procs {
                by_proc[p as usize].push((e.start, e.finish));
            }
        }
    }
    let mut total_idle = 0.0f64;
    let mut max_gap = 0.0f64;
    let mut n_gaps = 0usize;
    for intervals in &mut by_proc {
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut cursor = 0.0f64;
        for &(start, finish) in intervals.iter() {
            if start > cursor {
                let gap = start - cursor;
                total_idle += gap;
                max_gap = max_gap.max(gap);
                n_gaps += 1;
            }
            cursor = cursor.max(finish);
        }
        if makespan > cursor {
            let gap = makespan - cursor;
            total_idle += gap;
            max_gap = max_gap.max(gap);
            n_gaps += 1;
        }
    }
    report.push(
        Diagnostic::new(
            codes::IDLE_GAPS,
            Severity::Info,
            "schedule",
            format!("{n_gaps} idle gap(s) totalling {total_idle:.3} processor-seconds"),
        )
        .with("n_gaps", n_gaps)
        .with("total_idle", format_args!("{total_idle:.6}"))
        .with("max_gap", format_args!("{max_gap:.6}")),
    );
}

/// Builds the `LM210` search-effort diagnostic from a scheduler run's
/// deterministic counters, or `None` when the run recorded no search work
/// (every baseline without a refinement search).
///
/// Unlike the other `LM2xx` metrics this one cannot be derived from the
/// schedule itself — it describes how the schedule was *found* — so callers
/// that kept the [`SchedulerOutput`](locmps_core::SchedulerOutput) around
/// push it next to [`analyze_schedule`]'s report.
pub fn search_effort_diagnostic(counters: &locmps_core::SearchCounters) -> Option<Diagnostic> {
    if !counters.any() {
        return None;
    }
    let diagnostic = Diagnostic::new(
        codes::SEARCH_EFFORT,
        Severity::Info,
        "scheduler",
        counters.to_string(),
    );
    Some(
        counters
            .reported()
            .iter()
            .fold(diagnostic, |d, c| d.with(c.key, c.value)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmps_core::{ScheduledTask, Scheduler};
    use locmps_platform::{Cluster, ProcSet};
    use locmps_speedup::ExecutionProfile;

    fn set(ids: &[u32]) -> ProcSet {
        ids.iter().copied().collect()
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

    fn chain(volume: f64) -> TaskGraph {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(10.0));
        let b = g.add_task("b", ExecutionProfile::linear(10.0));
        g.add_edge(a, b, volume).unwrap();
        g
    }

    #[test]
    fn valid_schedule_yields_only_info() {
        let g = chain(0.0);
        let cluster = Cluster::new(2, 12.5);
        let model = CommModel::new(&cluster);
        let s = Schedule::from_entries(vec![
            entry(0, &[0], 0.0, 0.0, 10.0),
            entry(1, &[0], 10.0, 10.0, 20.0),
        ]);
        let r = analyze_schedule(&s, &g, &model);
        assert!(!r.has_errors(), "{}", r.render_text());
        assert_eq!(r.max_severity(), Some(Severity::Info));
        assert!(r.has_code(codes::UTILIZATION));
        assert!(r.has_code(codes::IDLE_GAPS));
    }

    #[test]
    fn collects_multiple_errors_at_once() {
        let mut g = chain(0.0);
        let c = g.add_task("c", ExecutionProfile::linear(5.0));
        let cluster = Cluster::new(2, 12.5);
        let model = CommModel::new(&cluster);
        // c unscheduled AND t1 on an out-of-range processor: validate would
        // stop at one of them, the analyzer must report both.
        let s = Schedule::from_entries(vec![
            entry(0, &[0], 0.0, 0.0, 10.0),
            entry(1, &[7], 10.0, 10.0, 20.0),
        ]);
        let r = analyze_schedule(&s, &g, &model);
        assert!(r.has_code(codes::UNSCHEDULED));
        assert!(r.has_code(codes::PROC_OUT_OF_RANGE));
        assert!(r.count(Severity::Error) >= 2, "{}", r.render_text());
        let _ = c;
    }

    #[test]
    fn detects_precedence_and_window_violations() {
        let g = chain(125.0); // 10 s at 12.5 MB/s across disjoint procs
        let cluster = Cluster::new(2, 12.5);
        let model = CommModel::new(&cluster);
        let s = Schedule::from_entries(vec![
            entry(0, &[0], 0.0, 0.0, 10.0),
            entry(1, &[1], 10.0, 10.0, 20.0),
        ]);
        let r = analyze_schedule(&s, &g, &model);
        assert!(
            r.has_code(codes::PRECEDENCE_VIOLATED),
            "{}",
            r.render_text()
        );

        let cluster = Cluster::new(2, 12.5).without_overlap();
        let model = CommModel::new(&cluster);
        let r = analyze_schedule(&s, &g, &model);
        assert!(
            r.has_code(codes::COMM_WINDOW_TOO_SHORT),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn detects_double_booking_and_stray_entries() {
        let mut g = TaskGraph::new();
        g.add_task("a", ExecutionProfile::linear(10.0));
        g.add_task("b", ExecutionProfile::linear(10.0));
        let cluster = Cluster::new(1, 12.5);
        let model = CommModel::new(&cluster);
        let s = Schedule::from_entries(vec![
            entry(0, &[0], 0.0, 0.0, 10.0),
            entry(1, &[0], 5.0, 5.0, 15.0),
            entry(9, &[0], 20.0, 20.0, 30.0), // not in the graph
        ]);
        let r = analyze_schedule(&s, &g, &model);
        assert!(r.has_code(codes::DOUBLE_BOOKING), "{}", r.render_text());
        assert!(r.has_code(codes::STRAY_ENTRY), "{}", r.render_text());
    }

    #[test]
    fn detects_impossible_makespan() {
        let g = chain(125.0);
        let cluster = Cluster::new(2, 12.5);
        let model = CommModel::new(&cluster);
        // Both timings are internally consistent and t1 sits on t0's
        // processors (zero transfer)... except t1 claims to finish before
        // t0's output could reach a disjoint set it actually uses.
        // Construct consistent per-task timing but a violated edge; the
        // bound check then also fires because ef(t1) = 30 > makespan 20.
        let s = Schedule::from_entries(vec![
            entry(0, &[0], 0.0, 0.0, 10.0),
            entry(1, &[1], 10.0, 10.0, 20.0),
        ]);
        let r = analyze_schedule(&s, &g, &model);
        assert!(
            r.has_code(codes::MAKESPAN_BELOW_BOUND),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn agrees_with_validate_on_real_schedules() {
        // A real LoC-MPS schedule must be analyzer-clean, and the analyzer
        // must agree with validate's verdict.
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(12.0));
        let b = g.add_task("b", ExecutionProfile::linear(9.0));
        let c = g.add_task("c", ExecutionProfile::linear(6.0));
        g.add_edge(a, b, 40.0).unwrap();
        g.add_edge(a, c, 25.0).unwrap();
        for cluster in [
            Cluster::new(4, 12.5),
            Cluster::new(4, 12.5).without_overlap(),
        ] {
            let out = locmps_core::LocMps::default()
                .schedule(&g, &cluster)
                .unwrap();
            let model = CommModel::new(&cluster);
            let r = analyze_schedule(&out.schedule, &g, &model);
            assert!(!r.has_errors(), "{}", r.render_text());
            out.schedule.validate(&g, &model).unwrap();
        }
    }

    #[test]
    fn locality_metric_reports_resident_reuse() {
        let g = chain(50.0);
        let cluster = Cluster::new(2, 12.5);
        let model = CommModel::new(&cluster);
        // Consumer reuses the producer's processor: fully local.
        let s = Schedule::from_entries(vec![
            entry(0, &[0], 0.0, 0.0, 10.0),
            entry(1, &[0], 10.0, 10.0, 20.0),
        ]);
        let r = analyze_schedule(&s, &g, &model);
        let d = r.by_code(codes::LOCALITY).next().unwrap();
        assert!(d
            .data
            .iter()
            .any(|(k, v)| k == "edge_fraction" && v.starts_with("1.0")));
    }

    #[test]
    fn search_effort_diagnostic_reflects_counters() {
        // Baselines run no search: no diagnostic.
        let zeros = locmps_core::SearchCounters::default();
        assert!(search_effort_diagnostic(&zeros).is_none());

        // A real LoC-MPS run reports LM210 with every counter attached.
        let g = chain(40.0);
        let cluster = Cluster::new(4, 12.5);
        let out = locmps_core::LocMps::default()
            .schedule(&g, &cluster)
            .unwrap();
        assert!(out.counters.any());
        let d = search_effort_diagnostic(&out.counters).unwrap();
        assert_eq!(d.code, codes::SEARCH_EFFORT);
        assert_eq!(d.severity, Severity::Info);
        let get = |k: &str| {
            d.data
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(get("locbs_passes"), out.counters.locbs_passes.to_string());
        assert_eq!(get("commits"), out.counters.commits.to_string());
        assert_eq!(
            get("placements_replayed"),
            out.counters.placements_replayed.to_string()
        );
        assert!(d.message.contains(&format!(
            "{} placements replayed",
            out.counters.placements_replayed
        )));
        assert_eq!(
            get("successors_reused"),
            out.counters.successors_reused.to_string()
        );
        assert!(d.message.contains(&format!(
            "{} successors reused",
            out.counters.successors_reused
        )));
        assert_eq!(
            get("transfers_reused"),
            out.counters.transfers_reused.to_string()
        );
        assert!(d.message.contains(&format!(
            "{} transfers reused",
            out.counters.transfers_reused
        )));
    }
}
