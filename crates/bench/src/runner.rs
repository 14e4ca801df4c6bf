//! Scheduler registry and suite runner.

use std::time::Instant;

use locmps_baselines::{Cpa, Cpr, DataParallel, TaskParallel, Tsas};
use locmps_core::{CommModel, LocMps, LocMpsConfig, Scheduler, SchedulerOutput, SearchCounters};
use locmps_platform::Cluster;
use locmps_sim::{simulate, NoiseModel, SimConfig};
use locmps_taskgraph::TaskGraph;

/// Every scheduling scheme of the paper's evaluation, plus the no-backfill
/// ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// The paper's contribution.
    LocMps,
    /// LoC-MPS scheduling without backfilling (Figure 6 ablation).
    LocMpsNoBackfill,
    /// The authors' communication-blind prior work.
    Icaslb,
    /// Critical Path Reduction baseline.
    Cpr,
    /// Critical Path and Allocation baseline.
    Cpa,
    /// Pure task parallelism.
    Task,
    /// Pure data parallelism.
    Data,
    /// Two-step convex allocation + list scheduling (Ramaswamy et al.,
    /// TPDS'97) — the ancestor baseline CPR/CPA were measured against.
    Tsas,
}

impl SchedulerKind {
    /// The schemes of Figures 4/5/8/9 in the paper's plotting order.
    pub const PAPER_SET: [SchedulerKind; 6] = [
        SchedulerKind::LocMps,
        SchedulerKind::Icaslb,
        SchedulerKind::Cpr,
        SchedulerKind::Cpa,
        SchedulerKind::Task,
        SchedulerKind::Data,
    ];

    /// The paper set plus the extended baselines (TSAS, no-backfill).
    pub const EXTENDED_SET: [SchedulerKind; 8] = [
        SchedulerKind::LocMps,
        SchedulerKind::LocMpsNoBackfill,
        SchedulerKind::Icaslb,
        SchedulerKind::Cpr,
        SchedulerKind::Cpa,
        SchedulerKind::Tsas,
        SchedulerKind::Task,
        SchedulerKind::Data,
    ];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::LocMps => "LoC-MPS",
            SchedulerKind::LocMpsNoBackfill => "LoC-MPS(nb)",
            SchedulerKind::Icaslb => "iCASLB",
            SchedulerKind::Cpr => "CPR",
            SchedulerKind::Cpa => "CPA",
            SchedulerKind::Task => "TASK",
            SchedulerKind::Data => "DATA",
            SchedulerKind::Tsas => "TSAS",
        }
    }

    /// Whether the runtime behind this scheduler manages data-layout
    /// alignment (see [`locmps_sim::SimConfig::locality_aware`]): CPR and
    /// CPA pay full aggregate redistribution costs, everything else reuses
    /// resident block-cyclic data.
    pub fn locality_aware_runtime(&self) -> bool {
        !matches!(
            self,
            SchedulerKind::Cpr | SchedulerKind::Cpa | SchedulerKind::Tsas
        )
    }

    /// Instantiates the scheduler.
    pub fn build(&self) -> Box<dyn Scheduler + Send + Sync> {
        match self {
            SchedulerKind::LocMps => Box::new(LocMps::default()),
            SchedulerKind::LocMpsNoBackfill => Box::new(LocMps::new(LocMpsConfig::no_backfill())),
            SchedulerKind::Icaslb => Box::new(LocMps::new(LocMpsConfig::icaslb())),
            SchedulerKind::Cpr => Box::new(Cpr),
            SchedulerKind::Cpa => Box::new(Cpa),
            SchedulerKind::Task => Box::new(TaskParallel),
            SchedulerKind::Data => Box::new(DataParallel),
            SchedulerKind::Tsas => Box::new(Tsas::default()),
        }
    }
}

/// One (graph, scheduler) measurement.
#[derive(Debug, Clone)]
pub struct RunMeasurement {
    /// The scheduler's own claimed makespan.
    pub planned_makespan: f64,
    /// The as-executed makespan under the true model (this is what all
    /// relative-performance numbers use).
    pub executed_makespan: f64,
    /// Wall-clock seconds the scheduler itself took (Figures 6/10).
    pub scheduling_seconds: f64,
    /// Deterministic search-effort counters of the scheduling run (all
    /// zeros for schedulers without a refinement search).
    pub search: SearchCounters,
}

/// Aggregated suite results for one scheduler at one processor count.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// Which scheduler.
    pub kind: SchedulerKind,
    /// Per-graph measurements, in suite order.
    pub runs: Vec<RunMeasurement>,
}

impl SuiteResult {
    /// Mean executed makespan over the suite.
    pub fn mean_executed(&self) -> f64 {
        self.runs.iter().map(|r| r.executed_makespan).sum::<f64>() / self.runs.len() as f64
    }

    /// Mean wall-clock scheduling time over the suite.
    pub fn mean_scheduling_seconds(&self) -> f64 {
        self.runs.iter().map(|r| r.scheduling_seconds).sum::<f64>() / self.runs.len() as f64
    }
}

/// Runs one scheduler on one graph, timing the scheduling call and
/// replaying the result under the true model (optionally with noise).
///
/// With `analyze` set (and no noise — jittered replays legitimately drift
/// from the deterministic communication model), the as-executed schedule is
/// passed through [`locmps_analysis::analyze_schedule`] and any
/// Error-severity diagnostic is a panic: every measurement then comes with
/// a proof that the schedule it measured was legal.
pub fn run_one(
    g: &TaskGraph,
    cluster: &Cluster,
    kind: SchedulerKind,
    noise: Option<NoiseModel>,
    analyze: bool,
) -> RunMeasurement {
    let scheduler = kind.build();
    let t0 = Instant::now();
    let out: SchedulerOutput = scheduler
        .schedule(g, cluster)
        .unwrap_or_else(|e| panic!("{} failed: {e}", kind.name()));
    let scheduling_seconds = t0.elapsed().as_secs_f64();
    let report = simulate(
        g,
        cluster,
        &out,
        SimConfig {
            noise,
            locality_aware: kind.locality_aware_runtime(),
        },
    );
    if analyze && noise.is_none() {
        // Locality-oblivious runtimes (CPR/CPA/TSAS) pay the *aggregate*
        // redistribution estimate, which brackets the exact block-cyclic
        // transfer time from either side — their executed timestamps are
        // only meaningful under the communication-blind model.
        let model = if kind.locality_aware_runtime() {
            CommModel::new(cluster)
        } else {
            CommModel::blind(cluster)
        };
        let diags = locmps_analysis::analyze_schedule(&report.executed, g, &model);
        assert!(
            !diags.has_errors(),
            "{} produced a diagnostic-dirty schedule:\n{}",
            kind.name(),
            diags.render_text()
        );
    }
    RunMeasurement {
        planned_makespan: out.makespan(),
        executed_makespan: report.makespan,
        scheduling_seconds,
        search: out.counters,
    }
}

/// Runs a set of schedulers over a suite of graphs on one cluster size.
/// Graphs are processed in parallel, one worker per available core.
/// `analyze` is forwarded to [`run_one`] for every cell of the suite.
pub fn run_suite(
    graphs: &[TaskGraph],
    cluster: &Cluster,
    kinds: &[SchedulerKind],
    noise: Option<NoiseModel>,
    analyze: bool,
) -> Vec<SuiteResult> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    kinds
        .iter()
        .map(|&kind| {
            let runs = par_map(graphs, workers, |g| {
                run_one(g, cluster, kind, noise, analyze)
            });
            SuiteResult { kind, runs }
        })
        .collect()
}

/// Maps `f` over `items` on up to `workers` scoped threads, each taking
/// one contiguous chunk, and returns the results in input order. A panic
/// in `f` resumes on the caller's thread once every worker has stopped.
fn par_map<T: Sync, R: Send>(items: &[T], workers: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| s.spawn(|| part.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

/// The paper's relative-performance metric for a suite: the mean over
/// graphs of `makespan(LoC-MPS) / makespan(X)` (1.0 for LoC-MPS itself;
/// < 1 means `X` is slower).
pub fn relative_performance(results: &[SuiteResult]) -> Vec<(SchedulerKind, f64)> {
    let reference = results
        .iter()
        .find(|r| r.kind == SchedulerKind::LocMps)
        .expect("LoC-MPS must be part of every comparison");
    results
        .iter()
        .map(|r| {
            let mean = r
                .runs
                .iter()
                .zip(&reference.runs)
                .map(|(x, loc)| loc.executed_makespan / x.executed_makespan)
                .sum::<f64>()
                / r.runs.len() as f64;
            (r.kind, mean)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmps_workloads::synthetic::{synthetic_graph, SyntheticConfig};

    #[test]
    fn par_map_keeps_input_order() {
        let xs: Vec<u64> = (0..101).collect();
        let doubled: Vec<u64> = xs.iter().map(|x| x * 2).collect();
        for workers in [1, 2, 3, 8, 200] {
            assert_eq!(
                par_map(&xs, workers, |x| x * 2),
                doubled,
                "{workers} workers"
            );
        }
        assert!(par_map(&[] as &[u64], 4, |x| *x).is_empty());
        assert_eq!(par_map(&[7u64], 4, |x| x + 1), vec![8]);
    }

    #[test]
    #[should_panic(expected = "item 37 failed")]
    fn par_map_propagates_worker_panics() {
        let xs: Vec<u64> = (0..100).collect();
        par_map(&xs, 4, |&x| {
            assert!(x != 37, "item {x} failed");
            x
        });
    }

    #[test]
    fn run_one_measures_all_fields() {
        let g = synthetic_graph(&SyntheticConfig {
            n_tasks: 10,
            seed: 1,
            ..Default::default()
        });
        let cluster = Cluster::new(4, 12.5);
        let m = run_one(&g, &cluster, SchedulerKind::Cpa, None, true);
        assert!(m.planned_makespan > 0.0);
        assert!(m.executed_makespan > 0.0);
        assert!(m.scheduling_seconds >= 0.0);
        // CPA runs no refinement search: its counters stay all-zero.
        assert!(!m.search.any());
    }

    #[test]
    fn relative_performance_is_one_for_reference() {
        let graphs: Vec<_> = (0..3)
            .map(|s| {
                synthetic_graph(&SyntheticConfig {
                    n_tasks: 8,
                    seed: s,
                    ..Default::default()
                })
            })
            .collect();
        let cluster = Cluster::new(4, 12.5);
        let kinds = [SchedulerKind::LocMps, SchedulerKind::Data];
        let results = run_suite(&graphs, &cluster, &kinds, None, true);
        let rel = relative_performance(&results);
        let loc = rel
            .iter()
            .find(|(k, _)| *k == SchedulerKind::LocMps)
            .unwrap();
        assert!((loc.1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn locmps_claimed_equals_executed_under_true_model() {
        // LoC-MPS plans with the same model the simulator replays, so its
        // planned and executed makespans must agree.
        let g = synthetic_graph(&SyntheticConfig {
            n_tasks: 12,
            ccr: 0.5,
            seed: 9,
            ..Default::default()
        });
        let cluster = Cluster::new(8, 12.5);
        let m = run_one(&g, &cluster, SchedulerKind::LocMps, None, true);
        assert!(
            (m.planned_makespan - m.executed_makespan).abs() < 1e-6 * m.executed_makespan.max(1.0),
            "planned {} vs executed {}",
            m.planned_makespan,
            m.executed_makespan
        );
        // The refinement search records its effort.
        assert!(m.search.any());
        assert!(m.search.locbs_passes > 0);
    }

    #[test]
    fn all_kinds_build_and_name() {
        for k in SchedulerKind::PAPER_SET {
            assert!(!k.build().name().is_empty());
            assert!(!k.name().is_empty());
        }
        assert_eq!(SchedulerKind::LocMpsNoBackfill.name(), "LoC-MPS(nb)");
    }
}
