//! Suite runner: schedulers from [`locmps_baselines::registry`], replayed
//! and audited through [`locmps_analysis::replay_and_audit`].

use std::time::Instant;

use locmps_analysis::{replay, replay_and_audit};
use locmps_baselines::registry::Registered;
use locmps_core::{SchedulerOutput, SearchCounters};
use locmps_platform::Cluster;
use locmps_sim::NoiseModel;
use locmps_taskgraph::TaskGraph;

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
    pub kind: &'static Registered,
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
/// replaying the result under its runtime (optionally with noise).
///
/// A noise-free replay is also audited ([`replay_and_audit`]) and any
/// Error-severity diagnostic is a panic: every measurement then comes with
/// a proof that the schedule it measured was legal. Jittered replays
/// legitimately drift from the deterministic model and are not audited.
pub fn run_one(
    g: &TaskGraph,
    cluster: &Cluster,
    kind: &Registered,
    noise: Option<NoiseModel>,
) -> RunMeasurement {
    let scheduler = kind.build();
    let t0 = Instant::now();
    let out: SchedulerOutput = scheduler
        .schedule(g, cluster)
        .unwrap_or_else(|e| panic!("{} failed: {e}", kind.name()));
    let scheduling_seconds = t0.elapsed().as_secs_f64();
    let executed_makespan = if noise.is_some() {
        replay(g, cluster, kind.name(), &out, noise).makespan
    } else {
        let replayed = replay_and_audit(g, cluster, kind.name(), &out);
        assert!(
            !replayed.report.has_errors(),
            "{} produced a diagnostic-dirty schedule:\n{}",
            kind.name(),
            replayed.report.render_text()
        );
        replayed.sim.makespan
    };
    RunMeasurement {
        planned_makespan: out.makespan(),
        executed_makespan,
        scheduling_seconds,
        search: out.counters,
    }
}

/// Runs a set of schedulers over a suite of graphs on one cluster size.
/// Graphs are processed in parallel, one worker per available core.
pub fn run_suite(
    graphs: &[TaskGraph],
    cluster: &Cluster,
    kinds: &[&'static Registered],
    noise: Option<NoiseModel>,
) -> Vec<SuiteResult> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    kinds
        .iter()
        .map(|&kind| {
            let runs = par_map(graphs, workers, |g| run_one(g, cluster, kind, noise));
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
pub fn relative_performance(results: &[SuiteResult]) -> Vec<(&'static Registered, f64)> {
    let reference = results
        .iter()
        .find(|r| r.kind.name() == "locmps")
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
    use locmps_baselines::registry::{paper_set, registered};
    use locmps_workloads::synthetic::{synthetic_graph, SyntheticConfig};

    fn kind(name: &str) -> &'static Registered {
        registered(name).unwrap()
    }

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
        let m = run_one(&g, &cluster, kind("cpa"), None);
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
        let kinds = [kind("locmps"), kind("data")];
        let results = run_suite(&graphs, &cluster, &kinds, None);
        let rel = relative_performance(&results);
        let loc = rel.iter().find(|(k, _)| k.name() == "locmps").unwrap();
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
        let m = run_one(&g, &cluster, kind("locmps"), None);
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
    fn noisy_runs_replay_without_an_audit() {
        let g = synthetic_graph(&SyntheticConfig {
            n_tasks: 10,
            seed: 2,
            ..Default::default()
        });
        let cluster = Cluster::new(4, 12.5);
        for k in paper_set() {
            let m = run_one(&g, &cluster, k, Some(NoiseModel::mild(7)));
            assert!(m.executed_makespan > 0.0, "{}", k.name());
        }
    }
}
