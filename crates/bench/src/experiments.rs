//! One function per paper figure. Each runs the experiment, prints the
//! table(s) to stdout, and saves markdown + CSV under the output
//! directory. The `fig*` binaries are thin wrappers; `all_figures` chains
//! everything.

use std::path::PathBuf;

use locmps_baselines::registry::{paper_set, registered, Registered};
use locmps_platform::Cluster;
use locmps_sim::NoiseModel;
use locmps_taskgraph::TaskGraph;
use locmps_workloads::strassen::{strassen_graph, StrassenConfig};
use locmps_workloads::synthetic::synthetic_suite;
use locmps_workloads::tce::{ccsd_t1_graph, TceConfig};
use serde::Serialize;

use crate::report::Table;
use crate::runner::{relative_performance, run_suite};

/// Shared experiment options, parsed from the command line.
///
/// * `--quick` — a reduced sweep (fewer graphs, fewer processor counts)
///   for smoke-testing the pipeline;
/// * `--out <dir>` — where tables are written (default `results/`).
#[derive(Debug, Clone)]
pub struct ExperimentCtx {
    /// Reduced sweep for smoke tests.
    pub quick: bool,
    /// Output directory for markdown/CSV tables.
    pub out_dir: PathBuf,
}

impl ExperimentCtx {
    /// Parses `--quick` / `--out` from the process arguments.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let quick = args.iter().any(|a| a == "--quick");
        let out_dir = args
            .iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1))
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("results"));
        Self { quick, out_dir }
    }

    /// The processor sweep (paper: up to 128).
    pub fn procs(&self) -> Vec<usize> {
        if self.quick {
            vec![4, 16, 64]
        } else {
            vec![4, 8, 16, 32, 64, 128]
        }
    }

    /// Suite size reduction for `--quick`.
    fn take_suite(&self, mut suite: Vec<TaskGraph>) -> Vec<TaskGraph> {
        if self.quick {
            suite.truncate(6);
        }
        suite
    }

    fn emit(&self, table: &Table, stem: &str) {
        println!("{table}");
        if let Err(e) = table.save(&self.out_dir, stem) {
            eprintln!("warning: could not save {stem}: {e}");
        }
    }

    /// Writes `value` as pretty-printed JSON to `file` in the output
    /// directory, then says where it went, or warns when the write fails.
    ///
    /// # Panics
    /// If `value` holds a non-finite float: a BENCH file states only
    /// numbers a reader can parse back.
    pub fn emit_json(&self, file: &str, value: &impl Serialize) {
        let json = serde_json::to_string_pretty_checked(value)
            .expect("bench results are finite and serialize");
        let path = self.out_dir.join(file);
        match std::fs::write(&path, json) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not save {}: {e}", path.display()),
        }
    }
}

fn fmt(v: f64) -> String {
    format!("{v:.3}")
}

/// A table header: `P`, then each scheduler's display name.
fn header(kinds: &[&Registered]) -> Vec<String> {
    let names = kinds.iter().map(|k| k.build().name().to_string());
    std::iter::once("P".to_string()).chain(names).collect()
}

/// Relative-performance sweep over a synthetic suite: one table with a row
/// per processor count and a column per scheme of the paper set.
fn synthetic_relperf_table(ctx: &ExperimentCtx, title: &str, suite: &[TaskGraph]) -> Table {
    let kinds: Vec<_> = paper_set().collect();
    let mut table = Table {
        title: title.to_string(),
        header: header(&kinds),
        rows: Vec::new(),
    };
    for p in ctx.procs() {
        let cluster = Cluster::fast_ethernet(p);
        let results = run_suite(suite, &cluster, &kinds, None);
        let rel = relative_performance(&results);
        let mut row = vec![p.to_string()];
        row.extend(rel.iter().map(|(_, v)| fmt(*v)));
        table.push_row(row);
    }
    table
}

/// Figure 4: synthetic graphs, CCR = 0, (a) `A_max=64, σ=1`,
/// (b) `A_max=48, σ=2`.
pub fn fig4(ctx: &ExperimentCtx) -> Vec<Table> {
    let mut out = Vec::new();
    for (stem, a_max, sigma) in [("fig4a", 64.0, 1.0), ("fig4b", 48.0, 2.0)] {
        let suite = ctx.take_suite(synthetic_suite(0.0, a_max, sigma, 1000));
        let title = format!(
            "Figure 4{} — synthetic, CCR=0, Amax={a_max}, sigma={sigma} \
             (relative performance: makespan(LoC-MPS)/makespan(X))",
            &stem[4..]
        );
        let t = synthetic_relperf_table(ctx, &title, &suite);
        ctx.emit(&t, stem);
        out.push(t);
    }
    out
}

/// Figure 5: synthetic graphs, `A_max=64, σ=1`, (a) CCR = 0.1, (b) CCR = 1.
pub fn fig5(ctx: &ExperimentCtx) -> Vec<Table> {
    let mut out = Vec::new();
    for (stem, ccr) in [("fig5a", 0.1), ("fig5b", 1.0)] {
        let suite = ctx.take_suite(synthetic_suite(ccr, 64.0, 1.0, 2000));
        let title = format!(
            "Figure 5{} — synthetic, CCR={ccr}, Amax=64, sigma=1 \
             (relative performance)",
            &stem[4..]
        );
        let t = synthetic_relperf_table(ctx, &title, &suite);
        ctx.emit(&t, stem);
        out.push(t);
    }
    out
}

/// Figure 6: LoC-MPS with vs without backfilling — relative performance
/// and scheduling times on synthetic graphs with CCR=0.1, `A_max=48, σ=2`.
pub fn fig6(ctx: &ExperimentCtx) -> Vec<Table> {
    let suite = ctx.take_suite(synthetic_suite(0.1, 48.0, 2.0, 3000));
    let kinds: Vec<_> = ["locmps", "nobackfill"]
        .into_iter()
        .filter_map(registered)
        .collect();
    let mut perf = Table::new(
        "Figure 6a — backfill vs no-backfill, CCR=0.1, Amax=48, sigma=2 (relative performance)",
        &["P", "LoC-MPS", "LoC-MPS(nb)"],
    );
    let mut times = Table::new(
        "Figure 6b — scheduling times (seconds, mean per graph)",
        &["P", "LoC-MPS", "LoC-MPS(nb)"],
    );
    for p in ctx.procs() {
        let cluster = Cluster::fast_ethernet(p);
        let results = run_suite(&suite, &cluster, &kinds, None);
        let rel = relative_performance(&results);
        perf.push_row(vec![p.to_string(), fmt(rel[0].1), fmt(rel[1].1)]);
        times.push_row(vec![
            p.to_string(),
            format!("{:.4}", results[0].mean_scheduling_seconds()),
            format!("{:.4}", results[1].mean_scheduling_seconds()),
        ]);
    }
    ctx.emit(&perf, "fig6a");
    ctx.emit(&times, "fig6b");
    vec![perf, times]
}

/// Relative-performance sweep for one application graph on one cluster
/// family.
fn app_relperf_table(
    ctx: &ExperimentCtx,
    title: &str,
    g: &TaskGraph,
    make_cluster: impl Fn(usize) -> Cluster,
) -> Table {
    let kinds: Vec<_> = paper_set().collect();
    let mut table = Table {
        title: title.to_string(),
        header: header(&kinds),
        rows: Vec::new(),
    };
    let graphs = [g.clone()];
    for p in ctx.procs() {
        let cluster = make_cluster(p);
        let results = run_suite(&graphs, &cluster, &kinds, None);
        let rel = relative_performance(&results);
        let mut row = vec![p.to_string()];
        row.extend(rel.iter().map(|(_, v)| fmt(*v)));
        table.push_row(row);
    }
    table
}

/// Figure 8: CCSD-T1 on a Myrinet-class cluster, (a) full overlap of
/// computation and communication, (b) no overlap.
pub fn fig8(ctx: &ExperimentCtx) -> Vec<Table> {
    let g = ccsd_t1_graph(&TceConfig::default());
    let a = app_relperf_table(
        ctx,
        "Figure 8a — CCSD T1, overlap of computation and communication (relative performance)",
        &g,
        Cluster::myrinet,
    );
    let b = app_relperf_table(
        ctx,
        "Figure 8b — CCSD T1, no overlap of computation and communication (relative performance)",
        &g,
        |p| Cluster::myrinet(p).without_overlap(),
    );
    ctx.emit(&a, "fig8a");
    ctx.emit(&b, "fig8b");
    vec![a, b]
}

/// Figure 9: Strassen matrix multiplication, (a) 1024², (b) 4096².
pub fn fig9(ctx: &ExperimentCtx) -> Vec<Table> {
    let mut out = Vec::new();
    for (stem, n) in [("fig9a", 1024usize), ("fig9b", 4096)] {
        let g = strassen_graph(&StrassenConfig {
            n,
            ..Default::default()
        });
        let t = app_relperf_table(
            ctx,
            &format!(
                "Figure 9{} — Strassen {n}x{n} (relative performance)",
                &stem[4..]
            ),
            &g,
            Cluster::myrinet,
        );
        ctx.emit(&t, stem);
        out.push(t);
    }
    out
}

/// Figure 10: scheduling times (wall-clock seconds of the scheduler
/// itself) for (a) CCSD-T1 and (b) Strassen 4096².
pub fn fig10(ctx: &ExperimentCtx) -> Vec<Table> {
    let apps: [(&str, &str, TaskGraph); 2] = [
        (
            "fig10a",
            "Figure 10a — scheduling times, CCSD T1 (seconds)",
            ccsd_t1_graph(&TceConfig::default()),
        ),
        (
            "fig10b",
            "Figure 10b — scheduling times, Strassen 4096x4096 (seconds)",
            strassen_graph(&StrassenConfig {
                n: 4096,
                ..Default::default()
            }),
        ),
    ];
    let kinds: Vec<_> = paper_set().collect();
    let mut out = Vec::new();
    for (stem, title, g) in apps {
        let mut table = Table {
            title: title.to_string(),
            header: header(&kinds),
            rows: Vec::new(),
        };
        let graphs = [g];
        for p in ctx.procs() {
            let cluster = Cluster::myrinet(p);
            let results = run_suite(&graphs, &cluster, &kinds, None);
            let mut row = vec![p.to_string()];
            row.extend(
                results
                    .iter()
                    .map(|r| format!("{:.4}", r.mean_scheduling_seconds())),
            );
            table.push_row(row);
        }
        ctx.emit(&table, stem);
        out.push(table);
    }
    out
}

/// Figure 11: "actual execution" of CCSD-T1 — substituted by noisy
/// discrete-event simulation (seeded log-normal runtime noise + bandwidth
/// jitter; see DESIGN.md §2). Relative performance of mean noisy
/// makespans.
pub fn fig11(ctx: &ExperimentCtx) -> Vec<Table> {
    let g = ccsd_t1_graph(&TceConfig::default());
    let kinds: Vec<_> = paper_set().collect();
    let reps: u64 = if ctx.quick { 5 } else { 25 };
    let mut table = Table {
        title: format!(
            "Figure 11 — CCSD T1 under perturbed execution ({reps} noisy replays per point; \
             relative performance of mean makespans)"
        ),
        header: header(&kinds),
        rows: Vec::new(),
    };
    let graphs = [g];
    for p in ctx.procs() {
        let cluster = Cluster::myrinet(p);
        // Mean executed makespan over noise seeds, per scheduler.
        let mut means = Vec::new();
        for &kind in &kinds {
            let mut acc = 0.0;
            for seed in 0..reps {
                let results = run_suite(
                    &graphs,
                    &cluster,
                    &[kind],
                    Some(NoiseModel::mild(seed * 31 + p as u64)),
                );
                acc += results[0].runs[0].executed_makespan;
            }
            means.push(acc / reps as f64);
        }
        let reference = means[0]; // LoC-MPS is first in the paper set
        let mut row = vec![p.to_string()];
        row.extend(means.iter().map(|m| fmt(reference / m)));
        table.push_row(row);
    }
    ctx.emit(&table, "fig11");
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_ctx() -> ExperimentCtx {
        ExperimentCtx {
            quick: true,
            out_dir: std::env::temp_dir().join("locmps_experiments_test"),
        }
    }

    #[test]
    fn fig6_runs_quick() {
        let tables = fig6(&quick_ctx());
        assert_eq!(tables.len(), 2);
        assert_eq!(
            tables[0].rows.len(),
            3,
            "three processor counts in quick mode"
        );
        // LoC-MPS's own relative performance is 1 by construction.
        for row in &tables[0].rows {
            assert_eq!(row[1], "1.000");
        }
    }

    #[test]
    fn fig9_small_runs_quick() {
        let tables = fig9(&quick_ctx());
        assert_eq!(tables.len(), 2);
        for t in &tables {
            assert_eq!(t.header.len(), 1 + paper_set().count());
            for row in &t.rows {
                assert_eq!(row[1], "1.000", "LoC-MPS reference column");
                // Every ratio is positive and finite.
                for cell in &row[1..] {
                    let v: f64 = cell.parse().unwrap();
                    assert!(v > 0.0 && v.is_finite());
                }
            }
        }
    }
}
