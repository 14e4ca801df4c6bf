//! Resilience experiments: how the recovery policies cope with random
//! permanent processor failures, and what speculative hedging buys
//! against slowdown-heavy stragglers.
//!
//! **Failures.** For each workload, the fault-free plan-follower makespan
//! `M0` sets the failure horizon; `k` random processors then fail at
//! seeded times inside `(0, 0.6·M0)`. We report, per recovery policy, the
//! completion rate and the mean makespan degradation (`makespan / M0`,
//! completed runs only).
//!
//! **Stragglers.** A slowdown-heavy campaign slows ≥ 25 % of the
//! processors by a factor ≥ 4 for the whole run; every policy runs with
//! the watchdog armed (threshold 2×), but only the `hedged-*` variants
//! answer alarms with speculative duplicates. Each (app, recovery) cell
//! is 3 apps × 3 seeds = 9 runs; the hedged variant must complete all 9
//! with a strictly better mean makespan than its plain twin.
//!
//! Saves `resilience_<app>` tables plus a machine-readable
//! `BENCH_resilience.json` holding both experiments.
//!
//! ```sh
//! cargo run --release -p locmps-bench --bin resilience [-- --quick] [--out DIR]
//! ```

use locmps_bench::campaign::slowdown_campaign;
use locmps_bench::experiments::ExperimentCtx;
use locmps_bench::report::Table;
use locmps_platform::Cluster;
use locmps_runtime::{
    recovery_by_name, FaultPlan, OnlineConfig, PlanFollower, RecoveryPolicy, RuntimeEngine,
};
use locmps_taskgraph::TaskGraph;
use locmps_workloads::strassen::{strassen_graph, StrassenConfig};
use locmps_workloads::synthetic::{synthetic_graph, SyntheticConfig};
use locmps_workloads::tce::{ccsd_t1_graph, TceConfig};
use serde::Serialize;

/// One (workload, policy, failure-count) cell of the experiment.
#[derive(Serialize)]
struct Cell {
    app: String,
    policy: String,
    failures: usize,
    runs: usize,
    completed: usize,
    /// `completed / runs`.
    completion_rate: f64,
    /// Mean `makespan / M0` over completed runs (absent when none).
    mean_degradation: Option<f64>,
}

fn recovery_for(name: &str) -> Box<dyn RecoveryPolicy> {
    recovery_by_name(name).expect("known recovery name")
}

fn cell(
    app: &str,
    g: &TaskGraph,
    cluster: &Cluster,
    m0: f64,
    policy: &str,
    failures: usize,
    seeds: u64,
) -> Cell {
    let mut completed = 0usize;
    let mut degradation = 0.0f64;
    for seed in 0..seeds {
        let faults = FaultPlan::random_proc_failures(seed, cluster.n_procs, failures, 0.6 * m0);
        let engine = RuntimeEngine::new(g, cluster, OnlineConfig::default());
        let trace = engine.run_with_faults(
            &mut PlanFollower::locmps(),
            &faults,
            recovery_for(policy).as_mut(),
        );
        if trace.is_complete() {
            completed += 1;
            degradation += trace.makespan / m0;
        }
    }
    Cell {
        app: app.to_string(),
        policy: policy.to_string(),
        failures,
        runs: seeds as usize,
        completed,
        completion_rate: completed as f64 / seeds as f64,
        mean_degradation: (completed > 0).then(|| degradation / completed as f64),
    }
}

/// One (workload, recovery, hedged?) cell of the straggler experiment.
#[derive(Serialize)]
struct SlowdownCell {
    app: String,
    recovery: String,
    runs: usize,
    completed: usize,
    /// Mean makespan over completed runs (absent when none).
    mean_makespan: Option<f64>,
    /// Mean `makespan / M0` over completed runs.
    mean_degradation: Option<f64>,
    /// Total speculative launches across the cell's runs.
    speculations: usize,
    /// Speculative launches that beat their primary.
    spec_wins: usize,
    /// Processor-seconds burned by killed duplicate attempts.
    wasted_work: f64,
}

fn slowdown_cell(
    app: &str,
    g: &TaskGraph,
    cluster: &Cluster,
    m0: f64,
    recovery: &str,
    seeds: u64,
) -> SlowdownCell {
    // The watchdog is armed for every variant; only `hedged-*` policies
    // answer the alarms with duplicates, so plain and hedged rows differ
    // exactly by speculation.
    let cfg = OnlineConfig {
        straggler_threshold: 2.0,
        ..OnlineConfig::default()
    };
    let (mut completed, mut total_ms, mut specs, mut wins) = (0usize, 0.0f64, 0usize, 0usize);
    let mut wasted = 0.0f64;
    for seed in 0..seeds {
        let faults = slowdown_campaign(seed, cluster.n_procs, m0).expect("in-range slowdown");
        let trace = RuntimeEngine::new(g, cluster, cfg).run_with_faults(
            &mut PlanFollower::locmps(),
            &faults,
            recovery_for(recovery).as_mut(),
        );
        specs += trace.speculative_launches();
        wins += trace.speculative_wins();
        wasted += trace.wasted_duplicate_work();
        if trace.is_complete() {
            completed += 1;
            total_ms += trace.makespan;
        }
    }
    SlowdownCell {
        app: app.to_string(),
        recovery: recovery.to_string(),
        runs: seeds as usize,
        completed,
        mean_makespan: (completed > 0).then(|| total_ms / completed as f64),
        mean_degradation: (completed > 0).then(|| total_ms / completed as f64 / m0),
        speculations: specs,
        spec_wins: wins,
        wasted_work: wasted,
    }
}

fn main() {
    let ctx = ExperimentCtx::from_env();
    let seeds: u64 = if ctx.quick { 3 } else { 10 };
    let p = 16;
    let cluster = Cluster::myrinet(p);
    let policies = ["failstop", "retryshrink", "replan"];
    let failure_counts = [1usize, 2, 4];

    let apps: [(&str, TaskGraph); 3] = [
        (
            "synthetic30",
            synthetic_graph(&SyntheticConfig {
                n_tasks: 30,
                ccr: 0.3,
                seed: 7,
                ..Default::default()
            }),
        ),
        (
            "ccsd_t1",
            ccsd_t1_graph(&TceConfig {
                n_occ: 20,
                n_virt: 100,
                ..Default::default()
            }),
        ),
        (
            "strassen1024",
            strassen_graph(&StrassenConfig {
                n: 1024,
                ..Default::default()
            }),
        ),
    ];

    let mut cells: Vec<Cell> = Vec::new();
    for (app, g) in &apps {
        let m0 = RuntimeEngine::new(g, &cluster, OnlineConfig::default())
            .run(&mut PlanFollower::locmps())
            .makespan;
        let mut table = Table::new(
            format!(
                "Resilience — {app} on P={p}, {seeds} seeded failure plans per cell; \
                 completion rate and mean makespan/M0 (M0 = {m0:.3} s fault-free)"
            ),
            &["failures", "failstop", "retryshrink", "replan"],
        );
        for &k in &failure_counts {
            let mut row = vec![format!("{k}")];
            for policy in policies {
                let c = cell(app, g, &cluster, m0, policy, k, seeds);
                row.push(match c.mean_degradation {
                    Some(d) => format!("{:.0}% x{:.3}", 100.0 * c.completion_rate, d),
                    None => format!("{:.0}% --", 100.0 * c.completion_rate),
                });
                cells.push(c);
            }
            table.push_row(row);
        }
        println!("{table}");
        if let Err(e) = table.save(&ctx.out_dir, &format!("resilience_{app}")) {
            eprintln!("warning: could not save resilience_{app}: {e}");
        }
    }

    // Headline check (the PR's acceptance scenario): with 2 failures the
    // real recoveries must complete runs the fail-stop baseline loses.
    let wins = |policy: &str| -> usize {
        cells
            .iter()
            .filter(|c| c.failures == 2 && c.policy == policy)
            .map(|c| c.completed)
            .sum()
    };
    let (fs, rs, rp) = (wins("failstop"), wins("retryshrink"), wins("replan"));
    println!("2-failure completions: failstop {fs}, retryshrink {rs}, replan {rp}");
    if rs <= fs || rp <= fs {
        eprintln!("warning: recovery policies did not beat fail-stop at 2 failures");
    }

    // ---- slowdown-heavy straggler campaign: plain vs hedged ----
    let slow_seeds: u64 = 3;
    let mut slow_cells: Vec<SlowdownCell> = Vec::new();
    let mut slow_table = Table::new(
        format!(
            "Stragglers — {slow_seeds} seeded slowdown campaigns per app on P={p} \
             (>= 25% of processors slowed 4-8x, watchdog threshold 2x); \
             mean makespan/M0, plain vs hedged"
        ),
        &["app", "failstop", "retryshrink", "replan"],
    );
    for (app, g) in &apps {
        let m0 = RuntimeEngine::new(g, &cluster, OnlineConfig::default())
            .run(&mut PlanFollower::locmps())
            .makespan;
        let mut row = vec![app.to_string()];
        for plain in policies {
            let base = slowdown_cell(app, g, &cluster, m0, plain, slow_seeds);
            let hedged =
                slowdown_cell(app, g, &cluster, m0, &format!("hedged-{plain}"), slow_seeds);
            row.push(match (base.mean_degradation, hedged.mean_degradation) {
                (Some(b), Some(h)) => format!("x{b:.3} -> x{h:.3}"),
                _ => "--".to_string(),
            });
            slow_cells.push(base);
            slow_cells.push(hedged);
        }
        slow_table.push_row(row);
    }
    println!("{slow_table}");
    if let Err(e) = slow_table.save(&ctx.out_dir, "resilience_stragglers") {
        eprintln!("warning: could not save resilience_stragglers: {e}");
    }

    // Headline check (the PR's acceptance scenario): every hedged variant
    // completes all its runs and posts a strictly better mean makespan
    // than its plain twin, summed over the three apps.
    for plain in policies {
        let sum = |name: &str| -> (usize, usize, f64) {
            slow_cells
                .iter()
                .filter(|c| c.recovery == name)
                .fold((0, 0, 0.0), |(r, c, m), cell| {
                    (
                        r + cell.runs,
                        c + cell.completed,
                        m + cell.mean_makespan.unwrap_or(f64::INFINITY),
                    )
                })
        };
        let (runs, plain_done, plain_ms) = sum(plain);
        let (_, hedged_done, hedged_ms) = sum(&format!("hedged-{plain}"));
        let verdict = if hedged_done == runs && hedged_ms < plain_ms {
            "OK"
        } else {
            "FAILED"
        };
        println!(
            "straggler headline [{verdict}] hedged-{plain}: {hedged_done}/{runs} complete, \
             mean makespan {:.3} vs plain {:.3} ({plain_done}/{runs})",
            hedged_ms / apps.len() as f64,
            plain_ms / apps.len() as f64,
        );
        if verdict == "FAILED" {
            eprintln!("warning: hedged-{plain} did not strictly beat {plain}");
        }
    }

    #[derive(Serialize)]
    struct BenchFile {
        proc_failures: Vec<Cell>,
        stragglers: Vec<SlowdownCell>,
    }
    let json = serde_json::to_string_pretty_checked(&BenchFile {
        proc_failures: cells,
        stragglers: slow_cells,
    })
    .expect("resilience cells are finite and serialize");
    let path = ctx.out_dir.join("BENCH_resilience.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("warning: could not save {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}
