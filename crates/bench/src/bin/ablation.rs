//! Ablation study over LoC-MPS's design choices (the knobs DESIGN.md calls
//! out): look-ahead depth (§III.E), backfilling (§III.F / Fig 6),
//! wide-corner restarts and communication awareness (iCASLB).
//!
//! For each variant: mean executed makespan relative to the default
//! configuration (values > 1 mean the variant is worse) and mean
//! scheduling time, over a seeded synthetic suite.
//!
//! ```sh
//! cargo run --release -p locmps-bench --bin ablation [-- --quick] [--out DIR]
//! ```

use std::time::Instant;

use locmps_bench::experiments::ExperimentCtx;
use locmps_bench::report::Table;
use locmps_core::{LocMps, LocMpsConfig, Scheduler};
use locmps_platform::Cluster;
use locmps_sim::{simulate, SimConfig};
use locmps_workloads::synthetic::synthetic_suite;

fn variants() -> Vec<(&'static str, LocMpsConfig)> {
    let d = LocMpsConfig::default();
    vec![
        ("default", d),
        (
            "lookahead=1",
            LocMpsConfig {
                lookahead_depth: 1,
                ..d
            },
        ),
        (
            "lookahead=5",
            LocMpsConfig {
                lookahead_depth: 5,
                ..d
            },
        ),
        (
            "lookahead=50",
            LocMpsConfig {
                lookahead_depth: 50,
                ..d
            },
        ),
        (
            "no-backfill",
            LocMpsConfig {
                backfill: false,
                ..d
            },
        ),
        (
            "no-corners",
            LocMpsConfig {
                corner_starts: false,
                ..d
            },
        ),
        ("comm-blind (iCASLB)", LocMpsConfig::icaslb()),
    ]
}

fn main() {
    let ctx = ExperimentCtx::from_env();
    let mut suite = synthetic_suite(0.5, 64.0, 1.0, 4000);
    if ctx.quick {
        suite.truncate(6);
    }
    let p = 32;
    let cluster = Cluster::fast_ethernet(p);

    let mut table = Table::new(
        format!(
            "Ablation — LoC-MPS variants on {} synthetic graphs (CCR=0.5, Amax=64, sigma=1, P={p}); \
             makespan relative to default (>1 is worse)",
            suite.len()
        ),
        &["variant", "rel makespan", "mean sched (s)"],
    );

    let mut baseline: Option<Vec<f64>> = None;
    for (name, cfg) in variants() {
        let scheduler = LocMps::new(cfg);
        let mut makespans = Vec::with_capacity(suite.len());
        let mut sched_time = 0.0;
        for g in &suite {
            let t0 = Instant::now();
            let out = scheduler.schedule(g, &cluster).expect("schedulable");
            sched_time += t0.elapsed().as_secs_f64();
            makespans.push(simulate(g, &cluster, &out, SimConfig::default()).makespan);
        }
        let reference = baseline.get_or_insert_with(|| makespans.clone());
        let rel = makespans
            .iter()
            .zip(reference.iter())
            .map(|(m, r)| m / r)
            .sum::<f64>()
            / makespans.len() as f64;
        table.push_row(vec![
            name.to_string(),
            format!("{rel:.3}"),
            format!("{:.4}", sched_time / suite.len() as f64),
        ]);
    }

    println!("{table}");
    if let Err(e) = table.save(&ctx.out_dir, "ablation") {
        eprintln!("warning: could not save ablation: {e}");
    }
}
