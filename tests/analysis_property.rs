//! Property tests for the schedule analyzer: take a known-valid executed
//! schedule, inject a specific corruption, and assert the analyzer reports
//! the matching `LM1xx` code. The analyzer must be *exhaustive* (it keeps
//! going after the first problem), so corruptions must never be masked.
//! `Schedule::validate` must agree with it: it accepts exactly what has no
//! `LM1xx` error, and its error is the first `LM1xx` finding.

use locmps::analysis::{analyze_schedule, codes, Severity};
use locmps::core::{CommModel, Schedule, ScheduleError, ScheduledTask};
use locmps::platform::{ProcId, ProcSet};
use locmps::prelude::*;
use locmps::sim::{simulate, SimConfig};
use locmps::speedup::DowneyParams;
use locmps::taskgraph::TaskId;
use proptest::prelude::*;

/// Random DAG matching the `property_cross` generator idiom.
fn arb_graph() -> impl Strategy<Value = TaskGraph> {
    (3usize..12, any::<u64>(), 0.15..0.45f64).prop_map(|(n, seed, density)| {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut g = TaskGraph::new();
        for i in 0..n {
            let work = 2.0 + 30.0 * next();
            let a = 1.0 + 40.0 * next();
            let sigma = 2.5 * next();
            let model = SpeedupModel::Downey(DowneyParams::new(a, sigma).unwrap());
            g.add_task(format!("t{i}"), ExecutionProfile::new(work, model).unwrap());
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if next() < density {
                    g.add_edge(TaskId(i as u32), TaskId(j as u32), 150.0 * next())
                        .unwrap();
                }
            }
        }
        g
    })
}

/// A valid executed schedule to corrupt, plus its graph and cluster.
fn valid_schedule(g: &TaskGraph, p: usize) -> (Schedule, Cluster) {
    let cluster = Cluster::new(p, 25.0);
    let out = LocMps::default().schedule(g, &cluster).unwrap();
    let rep = simulate(g, &cluster, &out, SimConfig::default());
    (rep.executed, cluster)
}

fn entries_of(s: &Schedule) -> Vec<ScheduledTask> {
    s.entries().to_vec()
}

/// First processor id outside the cluster, plus a margin.
fn out_of_range_proc(cluster: &Cluster) -> ProcId {
    cluster.n_procs as ProcId + 3
}

/// The `LM1xx` code of a `validate` error.
fn code_of(e: &ScheduleError) -> &'static str {
    match e {
        ScheduleError::StrayEntry(_) => codes::STRAY_ENTRY,
        ScheduleError::Unscheduled(_) => codes::UNSCHEDULED,
        ScheduleError::EmptyProcSet(_) => codes::EMPTY_PROCSET,
        ScheduleError::ProcOutOfRange(_) => codes::PROC_OUT_OF_RANGE,
        ScheduleError::BadTiming { .. } => codes::BAD_TIMING,
        ScheduleError::PrecedenceViolated { .. } => codes::PRECEDENCE_VIOLATED,
        ScheduleError::CommWindowTooShort { .. } => codes::COMM_WINDOW_TOO_SHORT,
        ScheduleError::Overlap { .. } => codes::DOUBLE_BOOKING,
        ScheduleError::BelowCriticalPath { .. } => codes::MAKESPAN_BELOW_BOUND,
    }
}

/// `s` with one corruption of kind `kind` (0..7): a stray entry after the
/// makespan on a processor of the cluster (0) or outside it (1), an
/// emptied processor set (2), a dropped entry (3), an entry shifted by
/// `±delta` (4) or stretched by `delta` (5), or an entry moved to other
/// processors (6).
fn corrupt(
    s: &Schedule,
    g: &TaskGraph,
    cluster: &Cluster,
    kind: u8,
    pick: u64,
    delta: f64,
) -> Schedule {
    let n_procs = cluster.n_procs;
    let mut entries = entries_of(s);
    let i = (pick as usize) % entries.len();
    let after = s.makespan() + 1.0;
    let stray = |p: ProcId| ScheduledTask {
        task: TaskId(g.n_tasks() as u32 + (pick % 3) as u32),
        procs: [p].into_iter().collect(),
        start: after,
        compute_start: after,
        finish: after + 1.0,
    };
    match kind {
        0 => entries.push(stray((pick % n_procs as u64) as ProcId)),
        1 => entries.push(stray(out_of_range_proc(cluster))),
        2 => entries[i].procs = ProcSet::new(),
        3 => {
            entries.remove(i);
        }
        4 => {
            let d = if pick.is_multiple_of(2) {
                delta
            } else {
                -delta
            };
            entries[i].start += d;
            entries[i].compute_start += d;
            entries[i].finish += d;
        }
        5 => entries[i].finish += delta,
        _ => {
            let offset = 1 + (pick as usize / 7) % (n_procs - 1);
            entries[i].procs = entries[i]
                .procs
                .iter()
                .map(|p| ((p as usize + offset) % n_procs) as ProcId)
                .collect();
        }
    }
    Schedule::from_entries(entries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn validate_returns_the_first_lm1xx_finding(
        g in arb_graph(),
        p in 2usize..8,
        pick in any::<u64>(),
        delta in 0.01..20.0f64,
    ) {
        let (s, cluster) = valid_schedule(&g, p);
        let model = CommModel::new(&cluster);
        for kind in 0..7 {
            let corrupted = corrupt(&s, &g, &cluster, kind, pick, delta);
            let diag = analyze_schedule(&corrupted, &g, &model);
            let first = diag
                .diagnostics()
                .iter()
                .find(|d| d.code.starts_with("LM1") && d.severity == Severity::Error);
            match (corrupted.validate(&g, &model), first) {
                (Ok(()), None) => {}
                (Err(e), Some(d)) => {
                    prop_assert_eq!(code_of(&e), d.code, "kind {}: {}", kind, diag.render_text());
                    prop_assert_eq!(e.to_string(), d.message.clone());
                }
                (verdict, _) => prop_assert!(
                    false,
                    "kind {}: validate says {:?}, the report says:\n{}",
                    kind,
                    verdict,
                    diag.render_text()
                ),
            }
        }
    }

    #[test]
    fn dropping_an_entry_reports_unscheduled(g in arb_graph(), p in 2usize..8, pick in any::<u64>()) {
        let (s, cluster) = valid_schedule(&g, p);
        let model = CommModel::new(&cluster);
        if s.len() <= 1 { return Ok(()); }
        let mut entries = entries_of(&s);
        let victim = entries.remove((pick as usize) % entries.len()).task;
        let corrupted = Schedule::from_entries(entries);
        let diag = analyze_schedule(&corrupted, &g, &model);
        let hits: Vec<_> = diag.by_code(codes::UNSCHEDULED).collect();
        prop_assert!(
            hits.iter().any(|d| d.subject == g.task(victim).name || d.subject.contains(&victim.to_string())),
            "expected LM101 for {victim}:\n{}", diag.render_text()
        );
        prop_assert!(diag.has_errors());
    }

    #[test]
    fn emptying_a_procset_reports_empty_procset(g in arb_graph(), p in 2usize..8, pick in any::<u64>()) {
        let (s, cluster) = valid_schedule(&g, p);
        let model = CommModel::new(&cluster);
        let mut entries = entries_of(&s);
        let i = (pick as usize) % entries.len();
        entries[i].procs = ProcSet::new();
        let diag = analyze_schedule(&Schedule::from_entries(entries), &g, &model);
        prop_assert!(diag.has_code(codes::EMPTY_PROCSET), "{}", diag.render_text());
        prop_assert!(diag.has_errors());
    }

    #[test]
    fn out_of_range_processor_is_reported(g in arb_graph(), p in 2usize..8, pick in any::<u64>()) {
        let (s, cluster) = valid_schedule(&g, p);
        let model = CommModel::new(&cluster);
        let mut entries = entries_of(&s);
        let i = (pick as usize) % entries.len();
        entries[i].procs.insert(out_of_range_proc(&cluster));
        let diag = analyze_schedule(&Schedule::from_entries(entries), &g, &model);
        prop_assert!(diag.has_code(codes::PROC_OUT_OF_RANGE), "{}", diag.render_text());
        prop_assert!(diag.has_errors());
    }

    #[test]
    fn negative_duration_reports_bad_timing(g in arb_graph(), p in 2usize..8, pick in any::<u64>()) {
        let (s, cluster) = valid_schedule(&g, p);
        let model = CommModel::new(&cluster);
        let mut entries = entries_of(&s);
        let i = (pick as usize) % entries.len();
        // finish strictly before compute_start: unambiguous timing nonsense.
        entries[i].finish = entries[i].compute_start - 1.0;
        let diag = analyze_schedule(&Schedule::from_entries(entries), &g, &model);
        prop_assert!(diag.has_code(codes::BAD_TIMING), "{}", diag.render_text());
        prop_assert!(diag.has_errors());
    }

    #[test]
    fn overlapping_a_busy_processor_is_caught(g in arb_graph(), p in 2usize..8, pick in any::<u64>()) {
        let (s, cluster) = valid_schedule(&g, p);
        let model = CommModel::new(&cluster);
        if s.len() <= 1 { return Ok(()); }
        let mut entries = entries_of(&s);
        let i = (pick as usize) % entries.len();
        let j = (i + 1) % entries.len();
        // Force task j onto task i's processors over task i's exact window,
        // preserving its duration-vs-et consistency as little as possible —
        // the analyzer must flag *something* fatal (double booking, timing,
        // or a precedence break), never pass it.
        entries[j].procs = entries[i].procs.clone();
        entries[j].start = entries[i].start;
        entries[j].compute_start = entries[i].compute_start;
        entries[j].finish = entries[i].finish;
        let diag = analyze_schedule(&Schedule::from_entries(entries), &g, &model);
        prop_assert!(diag.has_errors(), "corruption passed clean:\n{}", diag.render_text());
        prop_assert!(
            diag.has_code(codes::DOUBLE_BOOKING)
                || diag.has_code(codes::BAD_TIMING)
                || diag.has_code(codes::PRECEDENCE_VIOLATED),
            "unexpected codes:\n{}", diag.render_text()
        );
    }

    #[test]
    fn shifting_a_consumer_earlier_breaks_precedence(g in arb_graph(), p in 2usize..8) {
        let (s, cluster) = valid_schedule(&g, p);
        let model = CommModel::new(&cluster);
        // Find a data edge and pull its consumer to time zero; unless the
        // consumer already started at zero this must produce an error.
        let Some((_, edge)) = g.edges().find(|(_, e)| {
            let dst = s.get(e.dst).unwrap();
            dst.compute_start > 1e-3
        }) else {
            return Ok(()); // no suitable edge in this instance
        };
        let mut entries = entries_of(&s);
        let idx = entries.iter().position(|e| e.task == edge.dst).unwrap();
        let dur = entries[idx].finish - entries[idx].compute_start;
        entries[idx].start = 0.0;
        entries[idx].compute_start = 0.0;
        entries[idx].finish = dur;
        let diag = analyze_schedule(&Schedule::from_entries(entries), &g, &model);
        prop_assert!(diag.has_errors(), "{}", diag.render_text());
    }

    #[test]
    fn valid_schedules_stay_clean_and_match_validate(g in arb_graph(), p in 2usize..8) {
        let (s, cluster) = valid_schedule(&g, p);
        let model = CommModel::new(&cluster);
        let diag = analyze_schedule(&s, &g, &model);
        prop_assert_eq!(diag.count(Severity::Error), 0, "{}", diag.render_text());
        prop_assert!(s.validate(&g, &model).is_ok());
    }
}
