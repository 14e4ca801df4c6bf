//! TGFF-like synthetic task graphs (§IV.A).
//!
//! The paper generates 30 graphs with a DAG generation tool \[14\] (TGFF):
//! 10–50 tasks, average in/out degree 4, uniprocessor times uniform with
//! mean 30, Downey speedups with `A ~ U[1, A_max]` and fixed `σ`, and edge
//! communication costs uniform with mean `30 · CCR` (data volume = cost ×
//! network bandwidth). TGFF itself is not redistributable, so this module
//! implements a seeded random-DAG generator with exactly those statistical
//! controls (see DESIGN.md §2).

use locmps_speedup::{DowneyParams, ExecutionProfile, SpeedupModel};
use locmps_taskgraph::{TaskGraph, TaskId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the synthetic generator, defaulted to the paper's values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticConfig {
    /// Number of tasks (paper: 10–50).
    pub n_tasks: usize,
    /// Target average in-degree (== average out-degree; paper: 4).
    pub avg_degree: f64,
    /// Mean uniprocessor execution time (paper: 30 s); times are drawn
    /// uniformly from `[mean/3, 5·mean/3]`.
    pub mean_work: f64,
    /// Communication-to-computation ratio (paper: 0, 0.1, 1): mean edge
    /// communication cost is `mean_work · ccr` for the one-processor
    /// instance of the graph.
    pub ccr: f64,
    /// Upper bound of the average-parallelism draw `A ~ U[1, a_max]`
    /// (paper: 64 or 48).
    pub a_max: f64,
    /// Downey variance parameter (paper: 1 or 2).
    pub sigma: f64,
    /// Network bandwidth in MB/s used to convert communication cost to
    /// data volume (paper: 100 Mbit/s fast ethernet = 12.5 MB/s).
    pub bandwidth: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        Self {
            n_tasks: 30,
            avg_degree: 4.0,
            mean_work: 30.0,
            ccr: 0.0,
            a_max: 64.0,
            sigma: 1.0,
            bandwidth: 12.5,
            seed: 0,
        }
    }
}

/// Generates one synthetic task graph.
pub fn synthetic_graph(cfg: &SyntheticConfig) -> TaskGraph {
    assert!(cfg.n_tasks >= 1, "need at least one task");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut g = TaskGraph::with_capacity(cfg.n_tasks);

    for i in 0..cfg.n_tasks {
        // Uniform with mean `mean_work`, bounded away from zero.
        let work = rng.gen_range(cfg.mean_work / 3.0..=cfg.mean_work * 5.0 / 3.0);
        let a = rng.gen_range(1.0..=cfg.a_max.max(1.0));
        let model = SpeedupModel::Downey(
            DowneyParams::new(a, cfg.sigma).expect("generator draws valid parameters"),
        );
        g.add_task(format!("t{i}"), ExecutionProfile::new(work, model).unwrap());
    }

    // Random DAG in id order: node j draws its in-degree around
    // `avg_degree` (capped by the number of possible predecessors) and
    // picks that many distinct predecessors uniformly. Average out-degree
    // then matches average in-degree by counting.
    for j in 1..cfg.n_tasks {
        let max_preds = j;
        let mean_d = cfg.avg_degree.min(max_preds as f64);
        // Integer draw in [0, 2·mean]: mean ≈ avg_degree; always ≥ 1 for
        // non-root layers so the graph stays connected-ish.
        let d = rng.gen_range(0.0..=2.0 * mean_d).round().max(1.0) as usize;
        let d = d.min(max_preds);
        let mut preds: Vec<usize> = (0..j).collect();
        for k in 0..d {
            let pick = rng.gen_range(k..preds.len());
            preds.swap(k, pick);
        }
        for &p in preds.iter().take(d) {
            let comm_cost = if cfg.ccr > 0.0 {
                rng.gen_range(0.0..=2.0 * cfg.mean_work * cfg.ccr)
            } else {
                0.0
            };
            let volume = comm_cost * cfg.bandwidth;
            g.add_edge(TaskId(p as u32), TaskId(j as u32), volume)
                .expect("generator produces unique forward edges");
        }
    }
    g
}

/// The paper's 30-graph suite for one `(ccr, a_max, sigma)` setting, with
/// task counts cycling through 10–50 as in §IV.A.
pub fn synthetic_suite(ccr: f64, a_max: f64, sigma: f64, base_seed: u64) -> Vec<TaskGraph> {
    (0..30)
        .map(|i| {
            let cfg = SyntheticConfig {
                n_tasks: 10 + (i * 40) / 29, // 10 ..= 50 across the suite
                ccr,
                a_max,
                sigma,
                seed: base_seed.wrapping_add(i as u64 * 7919),
                ..SyntheticConfig::default()
            };
            synthetic_graph(&cfg)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmps_taskgraph::GraphStats;

    #[test]
    fn generates_valid_dags_of_requested_size() {
        for n in [1, 10, 30, 50] {
            let g = synthetic_graph(&SyntheticConfig {
                n_tasks: n,
                seed: 3,
                ..Default::default()
            });
            assert_eq!(g.n_tasks(), n);
            g.validate().unwrap();
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = SyntheticConfig {
            n_tasks: 25,
            ccr: 0.5,
            seed: 11,
            ..Default::default()
        };
        assert_eq!(synthetic_graph(&cfg), synthetic_graph(&cfg));
        let other = SyntheticConfig { seed: 12, ..cfg };
        assert_ne!(synthetic_graph(&cfg), synthetic_graph(&other));
    }

    #[test]
    fn work_distribution_matches_mean() {
        let g = synthetic_graph(&SyntheticConfig {
            n_tasks: 50,
            seed: 5,
            ..Default::default()
        });
        let stats = GraphStats::compute(&g);
        let mean = stats.total_work / 50.0;
        assert!(
            (mean - 30.0).abs() < 6.0,
            "mean work {mean} too far from 30"
        );
        for (_, t) in g.tasks() {
            assert!(t.profile.seq_time() >= 10.0 && t.profile.seq_time() <= 50.0);
        }
    }

    #[test]
    fn ccr_zero_means_no_volume() {
        let g = synthetic_graph(&SyntheticConfig {
            n_tasks: 20,
            ccr: 0.0,
            seed: 2,
            ..Default::default()
        });
        assert!(g.edges().all(|(_, e)| e.volume == 0.0));
    }

    #[test]
    fn measured_ccr_tracks_requested() {
        for req in [0.1, 1.0] {
            let mut acc = 0.0;
            for seed in 0..8 {
                let g = synthetic_graph(&SyntheticConfig {
                    n_tasks: 40,
                    ccr: req,
                    seed,
                    ..Default::default()
                });
                acc += GraphStats::compute(&g).ccr(12.5);
            }
            let measured = acc / 8.0;
            assert!(
                (measured - req).abs() < 0.35 * req,
                "requested CCR {req}, measured {measured}"
            );
        }
    }

    #[test]
    fn average_degree_near_four() {
        let mut acc = 0.0;
        for seed in 0..8 {
            let g = synthetic_graph(&SyntheticConfig {
                n_tasks: 50,
                seed,
                ..Default::default()
            });
            acc += g.n_edges() as f64 / 50.0;
        }
        let avg = acc / 8.0;
        assert!((2.0..=5.0).contains(&avg), "avg degree {avg} not near 4");
    }

    #[test]
    fn suite_has_thirty_graphs_spanning_sizes() {
        let suite = synthetic_suite(0.1, 64.0, 1.0, 99);
        assert_eq!(suite.len(), 30);
        assert_eq!(suite.first().unwrap().n_tasks(), 10);
        assert_eq!(suite.last().unwrap().n_tasks(), 50);
        for g in &suite {
            g.validate().unwrap();
        }
    }
}
