//! Empirical competitive-ratio check of the PS-ONLINE baseline
//! (`locmps::baselines::OnlineMoldable`, Perotin & Sun arXiv 2304.14127)
//! against the zero-communication lower bound from `core::bounds`.
//!
//! Perotin & Sun prove their online moldable allocator is
//! `ρ`-competitive against `max(CP, W/P)` with constant `ρ` depending on
//! the speedup model: ~2.62 for **roofline** profiles (`S(p) = min(p, p̄)`,
//! which Downey's model with `σ = 0` realizes exactly) and ~4.74 under
//! **Amdahl's law**. This suite replays the whole workload-zoo DAG shapes
//! with zero-volume edges (the theorems are communication-free) and
//! profiles drawn from each family, and asserts the paper's ratio on
//! every (workload, P) cell.
//!
//! An online algorithm cannot beat `max(CP, W/P)` either, so the bound
//! itself is also sanity-checked from below (ratio ≥ 1).

use locmps::baselines::OnlineMoldable;
use locmps::core::makespan_lower_bound;
use locmps::prelude::*;
use locmps::workloads::strassen::{strassen_graph, StrassenConfig};
use locmps::workloads::synthetic::{synthetic_graph, SyntheticConfig};
use locmps::workloads::tce::{ccsd_t1_graph, TceConfig};
use locmps::workloads::toys::{chain, fork_join, independent};

/// Perotin & Sun's competitive ratio for roofline speedup profiles.
const ROOFLINE_RATIO: f64 = 2.62;
/// Perotin & Sun's competitive ratio under Amdahl's law.
const AMDAHL_RATIO: f64 = 4.74;

/// The zoo's DAG *shapes*; profiles and volumes get replaced per family.
fn zoo_shapes() -> Vec<(&'static str, TaskGraph)> {
    vec![
        ("chain", chain(6, 10.0, 20.0)),
        ("fork_join", fork_join(5, 8.0, 15.0)),
        ("independent", independent(6, 12.0, 0.2)),
        (
            "synthetic",
            synthetic_graph(&SyntheticConfig {
                n_tasks: 18,
                ccr: 0.5,
                seed: 77,
                ..Default::default()
            }),
        ),
        (
            "strassen",
            strassen_graph(&StrassenConfig {
                n: 512,
                ..Default::default()
            }),
        ),
        (
            "ccsd_t1",
            ccsd_t1_graph(&TceConfig {
                n_occ: 16,
                n_virt: 64,
                ..Default::default()
            }),
        ),
    ]
}

/// Rebuilds `g` with the same DAG shape, zero-volume edges, and per-task
/// profiles from `profile(i)` — sequential times and parameters varied
/// deterministically by task index so the suite exercises heterogeneous
/// mixes, not one repeated curve.
fn reshape(g: &TaskGraph, profile: impl Fn(usize) -> ExecutionProfile) -> TaskGraph {
    let mut out = TaskGraph::new();
    for (t, task) in g.tasks() {
        out.add_task(task.name.clone(), profile(t.index()));
    }
    for (_, e) in g.edges() {
        out.add_edge(e.src, e.dst, 0.0).unwrap();
    }
    out
}

/// Roofline: linear speedup up to an average parallelism `p̄`, flat after —
/// Downey's model at `σ = 0`.
fn roofline(i: usize) -> ExecutionProfile {
    let pbar = [1.0, 2.0, 3.0, 5.0, 8.0, 13.0][i % 6];
    let seq = 5.0 + 3.0 * (i % 7) as f64;
    ExecutionProfile::new(seq, SpeedupModel::downey(pbar, 0.0).unwrap()).unwrap()
}

/// Amdahl's law with serial fractions from fully-parallel-ish to heavy.
fn amdahl(i: usize) -> ExecutionProfile {
    let f = [0.02, 0.05, 0.1, 0.2, 0.4][i % 5];
    let seq = 4.0 + 5.0 * (i % 5) as f64;
    ExecutionProfile::new(seq, SpeedupModel::amdahl(f).unwrap()).unwrap()
}

fn assert_ratio(family: &str, ratio: f64, profile: impl Fn(usize) -> ExecutionProfile + Copy) {
    let ps = OnlineMoldable;
    for (wname, shape) in zoo_shapes() {
        let g = reshape(&shape, profile);
        for p in [2usize, 4, 7, 16] {
            let cluster = Cluster::new(p, 125.0);
            let out = ps.schedule(&g, &cluster).expect("zoo schedules");
            let ms = out.schedule.makespan();
            let lb = makespan_lower_bound(&g, p);
            assert!(
                lb > 0.0 && ms >= lb - 1e-9,
                "{family}/{wname}/P={p}: makespan {ms} below the lower bound {lb}"
            );
            let observed = ms / lb;
            assert!(
                observed <= ratio + 1e-9,
                "{family}/{wname}/P={p}: observed ratio {observed:.3} exceeds \
                 the paper's {ratio} (makespan {ms:.3}, bound {lb:.3})"
            );
        }
    }
}

#[test]
fn roofline_profiles_meet_the_paper_ratio() {
    assert_ratio("roofline", ROOFLINE_RATIO, roofline);
}

#[test]
fn amdahl_profiles_meet_the_paper_ratio() {
    assert_ratio("amdahl", AMDAHL_RATIO, amdahl);
}

/// The cap is what the proof leans on: PS-ONLINE can never allot more
/// than ⌈P/2⌉ to any task — verified across the zoo.
#[test]
fn default_cap_is_respected_across_the_zoo() {
    let ps = OnlineMoldable;
    for (wname, shape) in zoo_shapes() {
        let g = reshape(&shape, roofline);
        let cluster = Cluster::new(16, 125.0);
        let out = ps.schedule(&g, &cluster).expect("zoo schedules");
        for t in g.task_ids() {
            assert!(
                out.allocation.np(t) <= 8,
                "{wname}: task {t:?} allotted {} > P/2",
                out.allocation.np(t)
            );
        }
    }
}
