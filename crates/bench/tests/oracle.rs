//! Differential testing against a brute-force oracle.
//!
//! For tiny instances the *best allocation under LoCBS placement* can be
//! found exhaustively (`P^|V|` allocations). LoC-MPS searches the same
//! space heuristically, so the oracle bounds how much its heuristics give
//! away — and catches regressions where a "fix" silently degrades search
//! quality.

use locmps_baselines::registry::registered;
use locmps_bench::runner::run_one;
use locmps_core::{Allocation, CommModel, Locbs, LocbsOptions};
use locmps_platform::Cluster;
use locmps_speedup::{DowneyParams, ExecutionProfile, SpeedupModel};
use locmps_taskgraph::TaskGraph;

/// Deterministic small graph zoo: varied structure, speedups, volumes.
fn small_graphs() -> Vec<TaskGraph> {
    let mut graphs = Vec::new();
    let mk = |a: f64, sigma: f64, work: f64| {
        ExecutionProfile::new(
            work,
            SpeedupModel::Downey(DowneyParams::new(a, sigma).unwrap()),
        )
        .unwrap()
    };
    // Chain with a heavy middle edge.
    {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", mk(4.0, 0.5, 20.0));
        let b = g.add_task("b", mk(8.0, 1.0, 30.0));
        let c = g.add_task("c", mk(2.0, 2.0, 10.0));
        g.add_edge(a, b, 200.0).unwrap();
        g.add_edge(b, c, 20.0).unwrap();
        graphs.push(g);
    }
    // Diamond, compute heavy.
    {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", mk(6.0, 0.0, 24.0));
        let b = g.add_task("b", mk(3.0, 1.5, 18.0));
        let c = g.add_task("c", mk(5.0, 0.5, 22.0));
        let d = g.add_task("d", mk(4.0, 1.0, 16.0));
        g.add_edge(a, b, 10.0).unwrap();
        g.add_edge(a, c, 10.0).unwrap();
        g.add_edge(b, d, 10.0).unwrap();
        g.add_edge(c, d, 10.0).unwrap();
        graphs.push(g);
    }
    // Independent, mixed scalability (Fig-3 flavour).
    {
        let mut g = TaskGraph::new();
        g.add_task("x", ExecutionProfile::linear(40.0));
        g.add_task("y", ExecutionProfile::linear(80.0));
        g.add_task("z", mk(2.0, 2.0, 25.0));
        graphs.push(g);
    }
    // Fork with comm-heavy join.
    {
        let mut g = TaskGraph::new();
        let s = g.add_task("s", mk(4.0, 1.0, 12.0));
        let m1 = g.add_task("m1", mk(4.0, 1.0, 20.0));
        let m2 = g.add_task("m2", mk(4.0, 1.0, 20.0));
        let j = g.add_task("j", mk(4.0, 1.0, 12.0));
        g.add_edge(s, m1, 150.0).unwrap();
        g.add_edge(s, m2, 150.0).unwrap();
        g.add_edge(m1, j, 150.0).unwrap();
        g.add_edge(m2, j, 150.0).unwrap();
        graphs.push(g);
    }
    graphs
}

/// Best makespan over every allocation, placed by LoCBS.
fn brute_force_best(g: &TaskGraph, cluster: &Cluster) -> f64 {
    let model = CommModel::new(cluster);
    let locbs = Locbs::new(model, LocbsOptions::default());
    let n = g.n_tasks();
    let p = cluster.n_procs;
    let mut counter = vec![1usize; n];
    let mut best = f64::INFINITY;
    loop {
        let alloc = Allocation::from_vec(counter.clone());
        let res = locbs.run(g, &alloc).expect("valid instance");
        best = best.min(res.makespan);
        // Odometer increment over [1, p]^n.
        let mut i = 0;
        loop {
            if i == n {
                return best;
            }
            counter[i] += 1;
            if counter[i] <= p {
                break;
            }
            counter[i] = 1;
            i += 1;
        }
    }
}

#[test]
fn locmps_stays_close_to_the_exhaustive_optimum() {
    for p in [2usize, 3, 4] {
        let cluster = Cluster::new(p, 12.5);
        for (idx, g) in small_graphs().into_iter().enumerate() {
            let oracle = brute_force_best(&g, &cluster);
            let loc = run_one(&g, &cluster, registered("locmps").unwrap(), None).executed_makespan;
            assert!(
                loc <= oracle * 1.25 + 1e-9,
                "graph {idx} on P={p}: LoC-MPS {loc} vs exhaustive best {oracle}"
            );
            // And never below it (the oracle searches the same space).
            assert!(
                loc + 1e-9 >= oracle,
                "graph {idx} on P={p}: LoC-MPS {loc} beat the oracle {oracle}?!"
            );
        }
    }
}

#[test]
fn locmps_matches_the_oracle_on_most_small_instances() {
    // Heuristics may lose a little on adversarial shapes, but on this zoo
    // they should find the exhaustive optimum for the majority of cases.
    let mut hits = 0;
    let mut total = 0;
    for p in [2usize, 3, 4] {
        let cluster = Cluster::new(p, 12.5);
        for g in small_graphs() {
            let oracle = brute_force_best(&g, &cluster);
            let loc = run_one(&g, &cluster, registered("locmps").unwrap(), None).executed_makespan;
            total += 1;
            if loc <= oracle * (1.0 + 1e-9) {
                hits += 1;
            }
        }
    }
    assert!(
        hits * 3 >= total * 2,
        "LoC-MPS matched the oracle on only {hits}/{total} instances"
    );
}

#[test]
fn baselines_never_beat_the_oracle() {
    let cluster = Cluster::new(3, 12.5);
    for g in small_graphs() {
        let oracle = brute_force_best(&g, &cluster);
        for kind in ["task", "data"].map(|n| registered(n).unwrap()) {
            // TASK and DATA use LoCBS-compatible placements, so the
            // exhaustive LoCBS optimum bounds them from below.
            let ms = run_one(&g, &cluster, kind, None).executed_makespan;
            assert!(
                ms + 1e-9 >= oracle,
                "{} found {ms} below the oracle {oracle}",
                kind.name()
            );
        }
    }
}
