//! `LM3xx` — execution-trace diagnostics over the online runtime's
//! structured event log.
//!
//! [`analyze_trace`] audits an [`ExecutionTrace`] *as a causal record*:
//! every started attempt (speculative duplicates included) must resolve,
//! completed tasks must start after their predecessors finished, nothing
//! may run on a failed processor or double-book a live one, and every
//! unfinished task must be accounted for by the trace (an `Abort` event
//! naming it). On top of the hard checks it reports the resilience
//! metrics — work lost to failures, recovery overhead, speculation
//! wins/waste, backoff waits — that the `locmps-bench` resilience
//! experiment and `locmps run --faults` surface.
//!
//! Attempts are tracked per `(task, attempt)`: a task may legitimately
//! have two attempts open at once — its primary and one speculative
//! duplicate, opened by a `SpeculativeLaunch` event — but a plain
//! `TaskStart` while any attempt is open stays an `LM314` error, and a
//! finish/crash/kill naming an attempt that is not open is an `LM311`
//! causality error.

use locmps_core::schedule::time_eps;
use locmps_platform::Cluster;
use locmps_runtime::{ExecutionTrace, TraceEventKind};
use locmps_taskgraph::{TaskGraph, TaskId};

use crate::codes;
use crate::diag::{Diagnostic, Report, Severity};

/// One started attempt reconstructed from the event log.
struct Attempt {
    task: TaskId,
    attempt: u32,
    start: f64,
    procs: Vec<u32>,
    /// `(time, finished)`; `None` while unresolved.
    end: Option<(f64, bool)>,
}

/// Audits `trace` (an execution of `g` on `cluster`) and reports every
/// finding with a stable `LM3xx` code.
pub fn analyze_trace(trace: &ExecutionTrace, g: &TaskGraph, cluster: &Cluster) -> Report {
    let mut report = Report::new();
    let eps = time_eps(trace.makespan);
    let n = g.n_tasks();

    // ---- single pass over the log: attempts, failures, abort record ----
    let mut attempts: Vec<Attempt> = Vec::new();
    // task -> indices of open attempts (primary + speculative duplicate).
    let mut open: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut down = vec![false; cluster.n_procs];
    let mut final_start = vec![f64::NAN; n];
    let mut final_finish = vec![f64::NAN; n];
    let mut finished = vec![false; n];
    let mut aborted_unfinished: Vec<TaskId> = Vec::new();
    let (mut crashes, mut procs_down, mut retries, mut replans) = (0usize, 0usize, 0usize, 0usize);
    let (mut suspected, mut spec_launches, mut spec_wins, mut kills) =
        (0usize, 0usize, 0usize, 0usize);
    let mut work_lost = 0.0f64;
    let mut wasted_dup = 0.0f64;
    // task -> pending Retry time, to measure backoff waits.
    let mut retry_at: Vec<Option<f64>> = vec![None; n];
    let (mut backoff_wait, mut backoff_waits) = (0.0f64, 0usize);

    // Closes the open attempt named `(task, attempt)`, or reports the
    // matching causality error.
    let close = |open: &mut Vec<Vec<usize>>,
                 attempts: &mut Vec<Attempt>,
                 report: &mut Report,
                 task: &TaskId,
                 attempt: u32,
                 time: f64,
                 ok: bool,
                 what: &str|
     -> Option<usize> {
        let idx = task.index();
        match open[idx]
            .iter()
            .position(|&a| attempts[a].attempt == attempt)
        {
            Some(pos) => {
                let a = open[idx].remove(pos);
                attempts[a].end = Some((time, ok));
                Some(a)
            }
            None => {
                report.push(Diagnostic::new(
                    codes::CAUSALITY_VIOLATION,
                    Severity::Error,
                    format!("{task}"),
                    format!("{what} event for attempt {attempt} without an open attempt"),
                ));
                None
            }
        }
    };

    for ev in &trace.events {
        match &ev.kind {
            TraceEventKind::TaskStart {
                task,
                attempt,
                procs,
            }
            | TraceEventKind::SpeculativeLaunch {
                task,
                attempt,
                procs,
            } => {
                let speculative = matches!(ev.kind, TraceEventKind::SpeculativeLaunch { .. });
                let idx = task.index();
                for p in procs.iter() {
                    if (p as usize) < down.len() && down[p as usize] {
                        report.push(
                            Diagnostic::new(
                                codes::STARTED_ON_DEAD_PROC,
                                Severity::Error,
                                format!("{task}"),
                                format!("attempt {attempt} started on failed processor p{p}"),
                            )
                            .with("time", ev.time),
                        );
                    }
                }
                if speculative {
                    spec_launches += 1;
                    if open[idx].is_empty() {
                        report.push(Diagnostic::new(
                            codes::CAUSALITY_VIOLATION,
                            Severity::Error,
                            format!("{task}"),
                            format!(
                                "speculative attempt {attempt} launched with no primary in flight"
                            ),
                        ));
                    }
                } else if !open[idx].is_empty() {
                    report.push(Diagnostic::new(
                        codes::DANGLING_ATTEMPT,
                        Severity::Error,
                        format!("{task}"),
                        format!(
                            "attempt {attempt} started while a previous attempt was still open"
                        ),
                    ));
                }
                if !speculative {
                    if let Some(rt) = retry_at[idx].take() {
                        backoff_wait += (ev.time - rt).max(0.0);
                        backoff_waits += 1;
                    }
                }
                open[idx].push(attempts.len());
                attempts.push(Attempt {
                    task: *task,
                    attempt: *attempt,
                    start: ev.time,
                    procs: procs.to_vec(),
                    end: None,
                });
            }
            TraceEventKind::TaskFinish { task, attempt } => {
                let idx = task.index();
                if let Some(a) = close(
                    &mut open,
                    &mut attempts,
                    &mut report,
                    task,
                    *attempt,
                    ev.time,
                    true,
                    "finish",
                ) {
                    final_start[idx] = attempts[a].start;
                }
                finished[idx] = true;
                final_finish[idx] = ev.time;
            }
            TraceEventKind::TaskCrash {
                task,
                attempt,
                lost,
            } => {
                close(
                    &mut open,
                    &mut attempts,
                    &mut report,
                    task,
                    *attempt,
                    ev.time,
                    false,
                    "crash",
                );
                crashes += 1;
                work_lost += lost;
            }
            TraceEventKind::AttemptKilled {
                task,
                attempt,
                wasted,
            } => {
                close(
                    &mut open,
                    &mut attempts,
                    &mut report,
                    task,
                    *attempt,
                    ev.time,
                    false,
                    "kill",
                );
                kills += 1;
                wasted_dup += wasted;
            }
            TraceEventKind::SpeculativeWin { .. } => spec_wins += 1,
            TraceEventKind::StragglerSuspected { .. } => suspected += 1,
            TraceEventKind::AttemptsExhausted { .. } => {}
            TraceEventKind::ProcDown { proc } => {
                if (*proc as usize) < down.len() {
                    down[*proc as usize] = true;
                }
                procs_down += 1;
            }
            TraceEventKind::Retry { task, .. } => {
                retries += 1;
                retry_at[task.index()] = Some(ev.time);
            }
            TraceEventKind::Replan { .. } => replans += 1,
            TraceEventKind::Abort { unfinished } => {
                aborted_unfinished.extend(unfinished.iter().copied());
            }
        }
    }

    // ---- LM314: every start must be closed by a finish or a crash ----
    for a in &attempts {
        if a.end.is_none() {
            report.push(
                Diagnostic::new(
                    codes::DANGLING_ATTEMPT,
                    Severity::Error,
                    format!("{}", a.task),
                    format!(
                        "attempt {} started but never finished or crashed",
                        a.attempt
                    ),
                )
                .with("start", a.start),
            );
        }
    }

    // ---- LM310: unfinished tasks the trace does not account for ----
    for t in g.task_ids() {
        if !finished[t.index()] && !aborted_unfinished.contains(&t) {
            report.push(Diagnostic::new(
                codes::ORPHANED_TASK,
                Severity::Error,
                format!("{t}"),
                "never completed and no abort record explains why".to_string(),
            ));
        }
    }

    // ---- LM311: completed tasks started after all predecessors ----
    for t in g.task_ids() {
        if !finished[t.index()] {
            continue;
        }
        for p in g.predecessors(t) {
            let ok = finished[p.index()] && final_finish[p.index()] <= final_start[t.index()] + eps;
            if !ok {
                report.push(
                    Diagnostic::new(
                        codes::CAUSALITY_VIOLATION,
                        Severity::Error,
                        format!("{t}"),
                        format!("started before predecessor {p} finished"),
                    )
                    .with("start", final_start[t.index()])
                    .with(
                        "pred_finish",
                        if finished[p.index()] {
                            final_finish[p.index()].to_string()
                        } else {
                            "never".to_string()
                        },
                    ),
                );
            }
        }
    }

    // ---- LM313: no processor hosts two attempts at once ----
    let mut by_proc: Vec<Vec<(f64, f64, TaskId)>> = vec![Vec::new(); cluster.n_procs];
    for a in &attempts {
        let Some((end, _)) = a.end else { continue };
        for &p in &a.procs {
            if (p as usize) < by_proc.len() {
                by_proc[p as usize].push((a.start, end, a.task));
            }
        }
    }
    for (p, list) in by_proc.iter_mut().enumerate() {
        list.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
        for w in list.windows(2) {
            if w[1].0 + eps < w[0].1 {
                report.push(
                    Diagnostic::new(
                        codes::TRACE_DOUBLE_BOOKING,
                        Severity::Error,
                        format!("p{p}"),
                        format!("{} starts before {} releases the processor", w[1].2, w[0].2),
                    )
                    .with("first_end", w[0].1)
                    .with("second_start", w[1].0),
                );
            }
        }
    }

    // ---- LM300/301/302: resilience metrics (only when faults bit) ----
    if crashes + procs_down + retries + replans > 0 || trace.aborted {
        report.push(
            Diagnostic::new(
                codes::FAULT_SUMMARY,
                Severity::Info,
                "trace",
                format!(
                    "{procs_down} processor failure(s), {crashes} task crash(es), \
                     {retries} retry(ies), {replans} replan(s); {}/{} tasks completed",
                    trace.completed, trace.n_tasks
                ),
            )
            .with("aborted", trace.aborted),
        );
    }
    if work_lost > 0.0 {
        report.push(
            Diagnostic::new(
                codes::WORK_LOST,
                Severity::Info,
                "trace",
                format!("{work_lost:.3} processor-seconds of compute lost to failures"),
            )
            .with("work_lost", work_lost),
        );
    }
    // Recovery overhead: compute time burned by re-executions (attempts
    // after the first) that did finish, plus the lost work itself.
    let reexec: f64 = attempts
        .iter()
        .filter(|a| a.attempt > 0)
        .filter_map(|a| {
            a.end
                .as_ref()
                .map(|&(end, _)| (end - a.start) * a.procs.len() as f64)
        })
        .sum();
    if reexec > 0.0 || replans > 0 {
        report.push(
            Diagnostic::new(
                codes::RECOVERY_OVERHEAD,
                Severity::Info,
                "trace",
                format!(
                    "{reexec:.3} processor-seconds spent on re-executed attempts, \
                     {replans} replan(s)"
                ),
            )
            .with("reexecuted", reexec)
            .with("replans", replans),
        );
    }

    // ---- LM320/321/322: straggler-mitigation metrics ----
    if suspected + spec_launches > 0 {
        let win_rate = if spec_launches > 0 {
            spec_wins as f64 / spec_launches as f64
        } else {
            0.0
        };
        report.push(
            Diagnostic::new(
                codes::SPECULATION_SUMMARY,
                Severity::Info,
                "trace",
                format!(
                    "{suspected} straggler alarm(s), {spec_launches} speculative \
                     launch(es), {spec_wins} win(s) ({:.0}% win rate)",
                    win_rate * 100.0
                ),
            )
            .with("suspected", suspected)
            .with("launches", spec_launches)
            .with("wins", spec_wins),
        );
    }
    if wasted_dup > 0.0 {
        report.push(
            Diagnostic::new(
                codes::WASTED_DUPLICATE_WORK,
                Severity::Info,
                "trace",
                format!(
                    "{wasted_dup:.3} processor-seconds burned by {kills} killed \
                     duplicate attempt(s)"
                ),
            )
            .with("wasted", wasted_dup)
            .with("kills", kills),
        );
    }
    if backoff_wait > 0.0 {
        report.push(
            Diagnostic::new(
                codes::BACKOFF_WAITS,
                Severity::Info,
                "trace",
                format!(
                    "{backoff_wait:.3} seconds spent waiting out retry backoff \
                     across {backoff_waits} delayed relaunch(es)"
                ),
            )
            .with("backoff_wait", backoff_wait)
            .with("delayed", backoff_waits),
        );
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmps_runtime::{
        FailStop, FaultPlan, OnlineConfig, PlanFollower, Remold, RetryShrink, RuntimeEngine,
        TraceEvent,
    };
    use locmps_speedup::ExecutionProfile;

    fn chain2() -> TaskGraph {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(10.0));
        let b = g.add_task("b", ExecutionProfile::linear(10.0));
        g.add_edge(a, b, 5.0).unwrap();
        g
    }

    #[test]
    fn clean_trace_has_no_findings() {
        let g = chain2();
        let cluster = Cluster::new(2, 12.5);
        let trace = RuntimeEngine::new(&g, &cluster, OnlineConfig::default())
            .run(&mut PlanFollower::locmps());
        let report = analyze_trace(&trace, &g, &cluster);
        assert!(report.is_empty(), "{}", report.render_text());
    }

    #[test]
    fn recovered_trace_reports_metrics_but_no_errors() {
        let g = chain2();
        let cluster = Cluster::new(2, 12.5);
        let faults = FaultPlan::parse("fail:0@2").unwrap();
        for run in 0..2 {
            let trace = if run == 0 {
                RuntimeEngine::new(&g, &cluster, OnlineConfig::default()).run_with_faults(
                    &mut PlanFollower::locmps(),
                    &faults,
                    &mut RetryShrink::new(),
                )
            } else {
                RuntimeEngine::new(&g, &cluster, OnlineConfig::default()).run_with_faults(
                    &mut PlanFollower::locmps(),
                    &faults,
                    &mut Remold::replan(),
                )
            };
            assert!(trace.is_complete());
            let report = analyze_trace(&trace, &g, &cluster);
            assert!(!report.has_errors(), "{}", report.render_text());
            assert!(report.has_code(codes::FAULT_SUMMARY));
        }
    }

    #[test]
    fn aborted_trace_is_explained_not_orphaned() {
        let g = chain2();
        let cluster = Cluster::new(2, 12.5);
        let faults = FaultPlan::parse("crash:0@0.5").unwrap();
        let trace = RuntimeEngine::new(&g, &cluster, OnlineConfig::default()).run_with_faults(
            &mut PlanFollower::locmps(),
            &faults,
            &mut FailStop,
        );
        assert!(trace.aborted);
        let report = analyze_trace(&trace, &g, &cluster);
        assert!(
            !report.has_code(codes::ORPHANED_TASK),
            "{}",
            report.render_text()
        );
        assert!(!report.has_errors(), "{}", report.render_text());
        assert!(report.has_code(codes::WORK_LOST));
    }

    #[test]
    fn corrupted_traces_trip_the_matching_codes() {
        let g = chain2();
        let cluster = Cluster::new(2, 12.5);
        let base = RuntimeEngine::new(&g, &cluster, OnlineConfig::default())
            .run(&mut PlanFollower::locmps());

        // Drop the abort record for a missing task -> orphaned.
        let mut t = base.clone();
        t.events.retain(|e| {
            !matches!(
                &e.kind,
                TraceEventKind::TaskFinish {
                    task: TaskId(1),
                    ..
                }
            )
        });
        t.completed = 1;
        let report = analyze_trace(&t, &g, &cluster);
        assert!(report.has_code(codes::ORPHANED_TASK));
        assert!(
            report.has_code(codes::DANGLING_ATTEMPT),
            "{}",
            report.render_text()
        );

        // Reorder: child starts before parent finishes -> causality.
        let mut t = base.clone();
        for ev in &mut t.events {
            if matches!(
                &ev.kind,
                TraceEventKind::TaskStart {
                    task: TaskId(1),
                    ..
                }
            ) {
                ev.time = 0.0;
            }
        }
        let report = analyze_trace(&t, &g, &cluster);
        assert!(
            report.has_code(codes::CAUSALITY_VIOLATION),
            "{}",
            report.render_text()
        );

        // Shift an attempt onto the other task's window -> double booking.
        let mut t = base;
        let mut events = t.events.clone();
        events.push(TraceEvent {
            time: 1.0,
            kind: TraceEventKind::TaskStart {
                task: TaskId(1),
                attempt: 5,
                procs: t.schedule.get(TaskId(0)).unwrap().procs.clone(),
            },
        });
        events.push(TraceEvent {
            time: 3.0,
            kind: TraceEventKind::TaskCrash {
                task: TaskId(1),
                attempt: 5,
                lost: 2.0,
            },
        });
        t.events = events;
        let report = analyze_trace(&t, &g, &cluster);
        assert!(
            report.has_code(codes::TRACE_DOUBLE_BOOKING),
            "{}",
            report.render_text()
        );
    }
}
