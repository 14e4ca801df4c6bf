//! Adaptive re-molding vs static replanning on the slowdown-heavy
//! straggler campaign (the PR-5 resilience scenario).
//!
//! Every run slows ≥ 25 % of the processors by 4–8× for the whole
//! execution and arms the watchdog at 2× — but injects no failures and no
//! crashes, so the static `replan` recovery (which re-plans on *faults*)
//! never activates and degrades to the plain plan follower: the molded
//! plan keeps dispatching onto the slowed processors. The adaptive
//! `remold` recovery answers the same watchdog alarms by quarantining the
//! suspect processors and re-molding the residual DAG — different
//! processor counts, not just different placement — onto the healthy
//! pool, steering by a [`PerfModelStore`] that carries observations
//! across the per-app seeds (the daemon's cross-job learning, replayed
//! offline).
//!
//! The headline the PR pins: adaptive re-molding completes all 9 runs
//! (3 apps × 3 seeds) and posts a strictly better mean makespan than
//! static replan. The process exits nonzero otherwise, so the CI smoke
//! run enforces it. Saves `adaptive_stragglers` plus the machine-readable
//! `BENCH_adaptive.json`.
//!
//! ```sh
//! cargo run --release -p locmps-bench --bin adaptive [-- --quick] [--out DIR]
//! ```

use locmps_bench::campaign::slowdown_campaign;
use locmps_bench::experiments::ExperimentCtx;
use locmps_bench::report::Table;
use locmps_platform::Cluster;
use locmps_runtime::{
    recovery_with_store, OnlineConfig, PerfModelStore, PlanFollower, RuntimeEngine,
};
use locmps_taskgraph::TaskGraph;
use locmps_workloads::strassen::{strassen_graph, StrassenConfig};
use locmps_workloads::synthetic::{synthetic_graph, SyntheticConfig};
use locmps_workloads::tce::{ccsd_t1_graph, TceConfig};
use serde::Serialize;

/// One (workload, recovery) cell of the campaign.
#[derive(Serialize)]
struct Cell {
    app: String,
    recovery: String,
    runs: usize,
    completed: usize,
    /// Mean makespan over completed runs (absent when none).
    mean_makespan: Option<f64>,
    /// Mean `makespan / M0` over completed runs.
    mean_degradation: Option<f64>,
    /// Replan/remold dispatch rounds across the cell's runs.
    replans: usize,
    /// Observations in the carried model store after the cell (adaptive
    /// cells only).
    store_observations: Option<usize>,
}

fn run_cell(
    app: &str,
    g: &TaskGraph,
    cluster: &Cluster,
    m0: f64,
    recovery: &str,
    seeds: u64,
    adaptive: bool,
) -> Cell {
    let cfg = OnlineConfig {
        straggler_threshold: 2.0,
        ..OnlineConfig::default()
    };
    // The adaptive rows carry a model store across seeds — each run's
    // trace is ingested (slowdown-corrected) before the next run molds.
    let mut store = PerfModelStore::new();
    let (mut completed, mut total_ms, mut replans) = (0usize, 0.0f64, 0usize);
    for seed in 0..seeds {
        let faults = slowdown_campaign(seed, cluster.n_procs, m0).expect("in-range slowdown");
        let mut policy = recovery_with_store(recovery, store.clone()).expect("known recovery name");
        let trace = RuntimeEngine::new(g, cluster, cfg).run_with_faults(
            &mut PlanFollower::locmps(),
            &faults,
            policy.as_mut(),
        );
        replans += trace.replans();
        if trace.is_complete() {
            completed += 1;
            total_ms += trace.makespan;
        }
        if adaptive {
            store
                .ingest_trace(&trace, g, &faults)
                .expect("trace and graph agree");
        }
    }
    Cell {
        app: app.to_string(),
        recovery: recovery.to_string(),
        runs: seeds as usize,
        completed,
        mean_makespan: (completed > 0).then(|| total_ms / completed as f64),
        mean_degradation: (completed > 0).then(|| total_ms / completed as f64 / m0),
        replans,
        store_observations: adaptive.then(|| store.n_observations()),
    }
}

fn main() {
    let ctx = ExperimentCtx::from_env();
    let seeds: u64 = 3;
    let p = 16;
    let cluster = Cluster::myrinet(p);

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
    let mut table = Table::new(
        format!(
            "Adaptive re-molding — {seeds} seeded slowdown campaigns per app on P={p} \
             (>= 25% of processors slowed 4-8x, watchdog threshold 2x, no faults); \
             mean makespan/M0, static replan vs adaptive remold"
        ),
        &["app", "replan (static)", "remold (adaptive)", "gain"],
    );
    for (app, g) in &apps {
        let m0 = RuntimeEngine::new(g, &cluster, OnlineConfig::default())
            .run(&mut PlanFollower::locmps())
            .makespan;
        let stat = run_cell(app, g, &cluster, m0, "replan", seeds, false);
        let adpt = run_cell(app, g, &cluster, m0, "remold", seeds, true);
        let row = match (stat.mean_degradation, adpt.mean_degradation) {
            (Some(s), Some(a)) => vec![
                app.to_string(),
                format!("x{s:.3}"),
                format!("x{a:.3}"),
                format!("{:+.1}%", 100.0 * (1.0 - a / s)),
            ],
            _ => vec![app.to_string(), "--".into(), "--".into(), "--".into()],
        };
        table.push_row(row);
        cells.push(stat);
        cells.push(adpt);
    }
    println!("{table}");
    if let Err(e) = table.save(&ctx.out_dir, "adaptive_stragglers") {
        eprintln!("warning: could not save adaptive_stragglers: {e}");
    }

    // Headline check (the PR's acceptance criterion): adaptive re-molding
    // completes every run and strictly beats static replan on the mean
    // makespan summed over the apps.
    let sum = |name: &str| -> (usize, usize, f64) {
        cells
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
    let (runs, stat_done, stat_ms) = sum("replan");
    let (_, adpt_done, adpt_ms) = sum("remold");
    let ok = adpt_done == runs && stat_done == runs && adpt_ms < stat_ms;
    println!(
        "adaptive headline [{}] remold: {adpt_done}/{runs} complete, mean makespan {:.3} \
         vs static replan {:.3} ({stat_done}/{runs})",
        if ok { "OK" } else { "FAILED" },
        adpt_ms / apps.len() as f64,
        stat_ms / apps.len() as f64,
    );

    #[derive(Serialize)]
    struct BenchFile {
        stragglers: Vec<Cell>,
    }
    let json = serde_json::to_string_pretty_checked(&BenchFile { stragglers: cells })
        .expect("adaptive cells are finite and serialize");
    let path = ctx.out_dir.join("BENCH_adaptive.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("warning: could not save {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
    if !ok {
        eprintln!(
            "error: adaptive re-molding did not strictly beat static replan at full completion"
        );
        std::process::exit(1);
    }
}
