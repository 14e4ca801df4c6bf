//! The schedule analyzer (`LM1xx` correctness, `LM2xx` metrics).
//!
//! The `LM1xx` findings are [`Schedule::violations`], the checker behind
//! `Schedule::validate`: this module only names each finding's code and
//! subject and attaches the values it prints. So a schedule has no `LM1xx`
//! error exactly when `validate` accepts it, and `validate`'s error is the
//! report's first `LM1xx` finding. The performance observations
//! (utilization, locality, idle gaps) follow as [`Severity::Info`]
//! diagnostics when every graph task has a sound entry.

use locmps_core::{CommModel, Schedule, ScheduleError};
use locmps_taskgraph::{EdgeKind, TaskGraph};

use crate::codes;
use crate::diag::{Diagnostic, Report, Severity};

/// Analyzes `s` against its task graph and communication model, collecting
/// every finding (correctness errors and performance observations) into one
/// [`Report`].
pub fn analyze_schedule(s: &Schedule, g: &TaskGraph, model: &CommModel<'_>) -> Report {
    let mut report = Report::new();
    let mut sound = true;
    for v in s.violations(g, model) {
        sound &= !matches!(
            v,
            ScheduleError::Unscheduled(_)
                | ScheduleError::EmptyProcSet(_)
                | ScheduleError::ProcOutOfRange(_)
                | ScheduleError::BadTiming { .. }
        );
        report.push(diagnostic(&v, s, g, model.cluster().n_procs));
    }
    // Performance observations (Info), only meaningful when every task has
    // a sound entry.
    if sound {
        push_metrics(s, g, model, &mut report);
    }
    report
}

/// The `LM1xx` diagnostic of one finding: its code and subject, its
/// message, and the values it reports.
fn diagnostic(v: &ScheduleError, s: &Schedule, g: &TaskGraph, n_procs: usize) -> Diagnostic {
    let error =
        |code, subject: String| Diagnostic::new(code, Severity::Error, subject, v.to_string());
    match *v {
        ScheduleError::StrayEntry(t) => {
            error(codes::STRAY_ENTRY, t.to_string()).with("n_tasks", g.n_tasks())
        }
        ScheduleError::Unscheduled(t) => error(codes::UNSCHEDULED, t.to_string()),
        ScheduleError::EmptyProcSet(t) => error(codes::EMPTY_PROCSET, t.to_string()),
        ScheduleError::ProcOutOfRange(t) => {
            error(codes::PROC_OUT_OF_RANGE, t.to_string()).with("n_procs", n_procs)
        }
        ScheduleError::BadTiming { task, et } => {
            let d = error(codes::BAD_TIMING, task.to_string());
            // A timing finding always names a scheduled task.
            let Some(e) = s.get(task) else { return d };
            d.with("start", e.start)
                .with("compute_start", e.compute_start)
                .with("finish", e.finish)
                .with("et", et)
        }
        ScheduleError::PrecedenceViolated {
            src,
            dst,
            required,
            actual,
            transfer,
        } => {
            let d = error(codes::PRECEDENCE_VIOLATED, format!("edge {src}->{dst}"))
                .with("required", required)
                .with("actual", actual);
            match transfer {
                Some(ct) => d.with("transfer", ct),
                None => d,
            }
        }
        ScheduleError::CommWindowTooShort {
            task,
            window,
            inbound,
        } => error(codes::COMM_WINDOW_TOO_SHORT, task.to_string())
            .with("window", window)
            .with("inbound", inbound),
        ScheduleError::Overlap {
            proc,
            first_finish,
            second_start,
            ..
        } => error(codes::DOUBLE_BOOKING, format!("proc {proc}"))
            .with("first_finish", first_finish)
            .with("second_start", second_start),
        ScheduleError::BelowCriticalPath { makespan, bound } => {
            error(codes::MAKESPAN_BELOW_BOUND, "schedule".into())
                .with("makespan", makespan)
                .with("critical_path", bound)
        }
    }
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
    use locmps_taskgraph::TaskId;

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
            get("candidates_examined"),
            out.counters.candidates_examined.to_string()
        );
        assert!(d.message.contains(&format!(
            "{} candidates examined",
            out.counters.candidates_examined
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
