//! Performance-regression harness for the LoCBS placement kernel and the
//! end-to-end LoC-MPS search.
//!
//! Two modes, selected by the first CLI argument:
//!
//! * **default** — times `Locbs::run`, the inner loop LoC-MPS executes
//!   hundreds of times per schedule, on synthetic graphs at the three
//!   scale points `(|V|, P) ∈ {(100, 32), (500, 64), (1000, 128)}` and
//!   writes the wall times to `BENCH_locbs.json` (first CLI argument
//!   overrides the path). The schedule makespans are recorded alongside so
//!   a speed change that silently alters scheduling decisions is caught by
//!   diffing the report, and so are the candidate starts the pass examined,
//!   an exact count of the kernel's work that a loosened candidate bound
//!   raises without changing any schedule.
//! * **`locmps`** — times the full `LocMps::schedule` search at the same
//!   three scale points, once with the default configuration (the
//!   corner-probe bound, the memo of passes and walk steps, prefix
//!   replay) and once with [`LocMpsConfig::exhaustive`] — the
//!   pre-optimization reference that runs every LoCBS pass from scratch —
//!   and writes both wall times, the deterministic counters of
//!   [`SearchCounters::reported`] and the full-pass reduction to
//!   `BENCH_locmps.json` (second CLI argument overrides the path). The two
//!   runs must produce bit-identical makespans and allocations; the
//!   harness asserts it on every case. The larger cases cap `max_rounds`
//!   (identically for both configurations, so the comparison stays
//!   trajectory-for-trajectory fair) to keep the harness runnable on one
//!   machine; the cap is recorded in the report.
//!
//! Run with `cargo run --release -p locmps-bench --bin perf_report`
//! (placement kernel) or
//! `cargo run --release -p locmps-bench --bin perf_report -- locmps`
//! (end-to-end search).

use std::time::Instant;

use locmps_core::{
    Allocation, CommModel, LocMps, LocMpsConfig, Locbs, LocbsOptions, LocbsScratch, PlacementLog,
    Scheduler, SearchCounters,
};
use locmps_platform::Cluster;
use locmps_taskgraph::TaskGraph;
use locmps_workloads::synthetic::{synthetic_graph, SyntheticConfig};

/// One placement-kernel case: graph size, machine size and measured wall
/// times.
struct Case {
    n_tasks: usize,
    p: usize,
    runs: usize,
    min_ms: f64,
    mean_ms: f64,
    makespan: f64,
    /// Candidate starts one pass examined (exact).
    candidates_examined: u64,
}

fn build(n_tasks: usize) -> TaskGraph {
    synthetic_graph(&SyntheticConfig {
        n_tasks,
        ccr: 0.5,
        seed: 42,
        ..Default::default()
    })
}

/// A mixed-width allocation touching many distinct processor counts, so the
/// placement loop exercises locality selection and hole scanning rather
/// than degenerate all-1 or all-P paths.
fn mixed_alloc(g: &TaskGraph, p: usize) -> Allocation {
    let half = (p / 2).max(1);
    Allocation::from_vec(g.task_ids().map(|t| 1 + (t.index() * 7) % half).collect())
}

fn time_case(n_tasks: usize, p: usize) -> Case {
    let g = build(n_tasks);
    let cluster = Cluster::fast_ethernet(p);
    let model = CommModel::new(&cluster);
    let locbs = Locbs::new(model, LocbsOptions::default());
    let alloc = mixed_alloc(&g, p);

    // Warm-up run; also pins the makespan the timed runs must reproduce
    // and counts the pass's candidate starts. Resumed from an empty log, it
    // copies nothing and places every task, as `Locbs::run` does.
    let ((_, makespan), work) = locbs
        .run_into_resumed(
            &mut g.clone(),
            &alloc,
            &mut LocbsScratch::new(),
            &mut PlacementLog::new(),
        )
        .expect("benchmark graph schedules");

    // Enough repetitions to dampen timer noise without letting the large
    // cases dominate total harness time.
    let runs = match n_tasks {
        ..=100 => 30,
        101..=500 => 10,
        _ => 5,
    };
    let mut times_ms = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t0 = Instant::now();
        let res = locbs.run(&g, &alloc).expect("benchmark graph schedules");
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(res.makespan, makespan, "nondeterministic placement");
        times_ms.push(dt);
    }
    let min_ms = times_ms.iter().copied().fold(f64::INFINITY, f64::min);
    let mean_ms = times_ms.iter().sum::<f64>() / runs as f64;
    Case {
        n_tasks,
        p,
        runs,
        min_ms,
        mean_ms,
        makespan,
        candidates_examined: work.candidates_examined,
    }
}

// Hand-rolled JSON keeps the report layout stable and human-diffable;
// every float goes through `serde_json::fmt_float_fixed`, which rejects
// NaN/inf instead of printing an unparseable token.
fn render_locbs_json(cases: &[Case]) -> Result<String, serde_json::NonFiniteFloat> {
    let mut json = String::from("{\n  \"bench\": \"locbs_placement\",\n  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"n_tasks\": {}, \"p\": {}, \"runs\": {}, \"min_ms\": {}, \
             \"mean_ms\": {}, \"makespan\": {}, \"candidates_examined\": {}}}{}\n",
            c.n_tasks,
            c.p,
            c.runs,
            serde_json::fmt_float_fixed(c.min_ms, 3)?,
            serde_json::fmt_float_fixed(c.mean_ms, 3)?,
            serde_json::fmt_float_fixed(c.makespan, 6)?,
            c.candidates_examined,
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    Ok(json)
}

fn locbs_mode(out_path: &str) -> Result<(), String> {
    let cases: Vec<Case> = [(100usize, 32usize), (500, 64), (1000, 128)]
        .into_iter()
        .map(|(n, p)| {
            eprintln!("timing locbs placement: |V|={n} P={p} ...");
            let c = time_case(n, p);
            eprintln!(
                "  min {:.2} ms  mean {:.2} ms over {} runs (makespan {:.3}, {} candidates)",
                c.min_ms, c.mean_ms, c.runs, c.makespan, c.candidates_examined
            );
            c
        })
        .collect();

    let json = render_locbs_json(&cases).map_err(|e| format!("locbs report: {e}"))?;
    std::fs::write(out_path, &json).map_err(|e| format!("write {out_path}: {e}"))?;
    println!("wrote {out_path}");
    Ok(())
}

/// One end-to-end search case: both configurations on the same graph.
struct LocmpsCase {
    n_tasks: usize,
    p: usize,
    max_rounds: usize,
    default_s: f64,
    exhaustive_s: f64,
    makespan: f64,
    default_counters: SearchCounters,
    exhaustive_passes: u64,
}

impl LocmpsCase {
    fn speedup(&self) -> f64 {
        self.exhaustive_s / self.default_s
    }

    /// Fraction of the exhaustive run's LoCBS passes the optimized search
    /// never executes (memoized or pruned outright).
    fn full_pass_reduction(&self) -> f64 {
        1.0 - self.default_counters.locbs_passes as f64 / self.exhaustive_passes as f64
    }
}

fn time_locmps_case(n_tasks: usize, p: usize, max_rounds: usize) -> LocmpsCase {
    let g = build(n_tasks);
    let cluster = Cluster::fast_ethernet(p);
    let run = |config: LocMpsConfig| {
        let scheduler = LocMps::new(config);
        let t0 = Instant::now();
        let out = scheduler
            .schedule(&g, &cluster)
            .expect("benchmark graph schedules");
        (t0.elapsed().as_secs_f64(), out)
    };

    let (default_s, default_out) = run(LocMpsConfig {
        max_rounds,
        ..LocMpsConfig::default()
    });
    let (exhaustive_s, exhaustive_out) = run(LocMpsConfig {
        max_rounds,
        ..LocMpsConfig::exhaustive()
    });

    // The whole point of the pruned search: bit-identical results.
    assert_eq!(
        default_out.makespan().to_bits(),
        exhaustive_out.makespan().to_bits(),
        "pruned search diverged from the exhaustive reference"
    );
    assert_eq!(
        default_out.allocation.as_slice(),
        exhaustive_out.allocation.as_slice(),
        "pruned search chose a different allocation"
    );
    // The exhaustive reference does strictly no memoized, replayed or
    // pruned work.
    assert_eq!(exhaustive_out.counters.pass_memo_hits, 0);
    assert_eq!(exhaustive_out.counters.successors_reused, 0);
    assert_eq!(exhaustive_out.counters.placements_replayed, 0);
    assert_eq!(exhaustive_out.counters.branches_pruned, 0);

    LocmpsCase {
        n_tasks,
        p,
        max_rounds,
        default_s,
        exhaustive_s,
        makespan: default_out.makespan(),
        default_counters: default_out.counters,
        exhaustive_passes: exhaustive_out.counters.locbs_passes,
    }
}

fn render_locmps_json(cases: &[LocmpsCase]) -> Result<String, serde_json::NonFiniteFloat> {
    let mut json = String::from("{\n  \"bench\": \"locmps_search\",\n  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let counters: Vec<String> = c
            .default_counters
            .reported()
            .iter()
            .map(|k| format!("\"{}\": {}", k.key, k.value))
            .collect();
        json.push_str(&format!(
            "    {{\"n_tasks\": {}, \"p\": {}, \"max_rounds\": {}, \
             \"default_s\": {}, \"exhaustive_s\": {}, \"speedup\": {}, \
             \"makespan\": {}, \"exhaustive_passes\": {}, \
             \"full_pass_reduction\": {}, \"counters\": {{{}}}}}{}\n",
            c.n_tasks,
            c.p,
            c.max_rounds,
            serde_json::fmt_float_fixed(c.default_s, 3)?,
            serde_json::fmt_float_fixed(c.exhaustive_s, 3)?,
            serde_json::fmt_float_fixed(c.speedup(), 3)?,
            serde_json::fmt_float_fixed(c.makespan, 6)?,
            c.exhaustive_passes,
            serde_json::fmt_float_fixed(c.full_pass_reduction(), 4)?,
            counters.join(", "),
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    Ok(json)
}

fn locmps_mode(out_path: &str) -> Result<(), String> {
    // (100, 32) runs to natural convergence. The larger points cap the
    // outer rounds — identically for both configurations — so the harness
    // finishes in minutes instead of hours; per-round work is what the
    // optimizations change, so the capped comparison measures the same
    // thing the uncapped one would.
    let cases: Vec<LocmpsCase> = [
        (100usize, 32usize, 10_000usize),
        (500, 64, 60),
        (1000, 128, 36),
    ]
    .into_iter()
    .map(|(n, p, rounds)| {
        eprintln!("timing locmps search: |V|={n} P={p} max_rounds={rounds} ...");
        let c = time_locmps_case(n, p, rounds);
        eprintln!(
            "  default {:.2} s vs exhaustive {:.2} s ({:.2}x), \
                 {} of {} full passes avoided ({:.1}%)",
            c.default_s,
            c.exhaustive_s,
            c.speedup(),
            c.exhaustive_passes - c.default_counters.locbs_passes,
            c.exhaustive_passes,
            100.0 * c.full_pass_reduction()
        );
        c
    })
    .collect();

    let json = render_locmps_json(&cases).map_err(|e| format!("locmps report: {e}"))?;
    std::fs::write(out_path, &json).map_err(|e| format!("write {out_path}: {e}"))?;
    println!("wrote {out_path}");
    Ok(())
}

fn main() {
    let mut args = std::env::args().skip(1);
    let result = match args.next().as_deref() {
        Some("locmps") => {
            let path = args
                .next()
                .unwrap_or_else(|| "BENCH_locmps.json".to_string());
            locmps_mode(&path)
        }
        Some(path) => locbs_mode(path),
        None => locbs_mode("BENCH_locbs.json"),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn case(min_ms: f64) -> Case {
        Case {
            n_tasks: 100,
            p: 32,
            runs: 30,
            min_ms,
            mean_ms: 1.5,
            makespan: 1234.5,
            candidates_examined: 42,
        }
    }

    /// Regression: an `inf` measurement (e.g. a min-fold over zero runs)
    /// used to be printed verbatim by `format!("{:.3}", ..)`, producing a
    /// report no JSON parser accepts. The guarded helper rejects the
    /// document instead.
    #[test]
    fn report_rejects_non_finite_measurements() {
        assert!(render_locbs_json(&[case(f64::INFINITY)]).is_err());
        assert!(render_locbs_json(&[case(f64::NAN)]).is_err());
    }

    #[test]
    fn report_output_is_valid_json() {
        let json = render_locbs_json(&[case(0.75), case(2.25)]).unwrap();
        let v: Value = serde_json::from_str(&json).expect("report must parse");
        let cases = serde::field(v.as_object().unwrap(), "cases").unwrap();
        assert_eq!(cases.as_array().unwrap().len(), 2);
    }
}
