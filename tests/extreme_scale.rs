//! Extreme-scale inputs: one task's sequential time or one edge's volume
//! rescaled by up to 10^12, so task and transfer times span many orders of
//! magnitude within one graph. Relative tolerances grow with the times
//! they compare, and at these scales they exceed whole task durations
//! unless every one is bounded by the intervals it compares.
//!
//! Every registered scheduler must, on every such input, either return a
//! schedule that passes `Schedule::validate` or a typed `SchedError`; it
//! must never panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use locmps::analysis::replay_and_audit;
use locmps::baselines::registry::{locality_aware, scheduler_by_name, scheduler_names};
use locmps::core::{CommModel, SchedError};
use locmps::prelude::*;
use locmps::workloads::strassen::{strassen_graph, StrassenConfig};
use locmps::workloads::synthetic::{synthetic_graph, SyntheticConfig};
use locmps::workloads::tce::{ccsd_t1_graph, TceConfig};
use locmps::workloads::toys::{chain, fork_join, independent};
use proptest::prelude::*;

/// The golden zoo's graphs of at most 24 tasks.
fn zoo() -> Vec<(&'static str, TaskGraph)> {
    let all = vec![
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
    ];
    all.into_iter().filter(|(_, g)| g.n_tasks() <= 24).collect()
}

/// What an input rescales.
#[derive(Debug, Clone, Copy)]
enum Target {
    /// The sequential time of task `i mod |V|`.
    Task(usize),
    /// The volume of edge `i mod |E|` (a task when the graph has no edge).
    Edge(usize),
}

/// `g` with one task's sequential time or one edge's volume multiplied by
/// `factor`.
fn rescaled(g: &TaskGraph, target: Target, factor: f64) -> TaskGraph {
    let target = match target {
        Target::Edge(i) if g.n_edges() > 0 => Target::Edge(i % g.n_edges()),
        Target::Edge(i) | Target::Task(i) => Target::Task(i % g.n_tasks()),
    };
    let mut out = TaskGraph::new();
    for (t, task) in g.tasks() {
        let mut profile = task.profile.clone();
        if matches!(target, Target::Task(i) if i == t.index()) {
            profile = ExecutionProfile::new(profile.seq_time() * factor, profile.model().clone())
                .expect("a positive finite time");
        }
        out.add_task(task.name.clone(), profile);
    }
    for (e, edge) in g.edges() {
        let scale = if matches!(target, Target::Edge(i) if i == e.index()) {
            factor
        } else {
            1.0
        };
        out.add_edge(edge.src, edge.dst, edge.volume * scale)
            .expect("a rescaled copy of a valid graph");
    }
    out
}

/// The model a scheduler's plan is valid under: exact block-cyclic
/// transfers for the schedulers that plan with them (LoC-MPS, its
/// no-backfill ablation, TASK and DATA); no communication for iCASLB,
/// which plans without it, and for CPR, CPA, TSAS and PS-ONLINE, which
/// plan with the aggregate estimate their runtime pays wherever the groups
/// land.
fn planned_model<'c>(name: &str, cluster: &'c Cluster) -> CommModel<'c> {
    if locality_aware(name) && name != "icaslb" {
        CommModel::new(cluster)
    } else {
        CommModel::blind(cluster)
    }
}

/// Runs every registered scheduler on `g` and replays its plan as the CLI
/// does; returns the first violation.
fn check_all(g: &TaskGraph, cluster: &Cluster) -> Result<(), String> {
    for name in scheduler_names() {
        let scheduler = scheduler_by_name(name)?;
        let run = catch_unwind(AssertUnwindSafe(|| {
            let out = scheduler.schedule(g, cluster)?;
            let replayed = replay_and_audit(g, cluster, name, &out);
            Ok::<_, SchedError>((out, replayed))
        }));
        let (out, replayed) = match run {
            Ok(Ok(done)) => done,
            Ok(Err(_)) => continue,
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string payload");
                return Err(format!("{name} panicked: {msg}"));
            }
        };
        out.schedule
            .validate(g, &planned_model(name, cluster))
            .map_err(|e| format!("{name}: invalid plan: {e:?}"))?;
        replayed
            .sim
            .executed
            .validate(g, &replayed.model)
            .map_err(|e| format!("{name}: invalid replay: {e:?}"))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn registry_schedulers_never_panic_on_extreme_scales(
        graph in 0usize..6,
        on_edge in any::<bool>(),
        which in any::<u64>(),
        k in 0i32..=12,
        p in prop_oneof![Just(8usize), Just(16usize)],
    ) {
        let zoo = zoo();
        let (name, g) = &zoo[graph % zoo.len()];
        let which = which as usize;
        let target = if on_edge { Target::Edge(which) } else { Target::Task(which) };
        let g = rescaled(g, target, 10f64.powi(k));
        for cluster in [Cluster::new(p, 50.0), Cluster::new(p, 50.0).without_overlap()] {
            let verdict = check_all(&g, &cluster);
            prop_assert!(
                verdict.is_ok(),
                "{}: {:?} x1e{} at P = {} ({:?}): {}",
                name, target, k, p, cluster.overlap, verdict.unwrap_err()
            );
        }
    }
}

/// The reproducer, through the graph's JSON as the CLI reads it:
/// `locmps generate strassen --n 1024`, task `S10`'s `seq_time` raised
/// from 0.0012582912 to 12582912, then `locmps schedule --procs 8` (125
/// MB/s). LoCBS used to find no start for a later task (the candidate
/// cursor dropped booking ends within a relative tolerance of about 6 s)
/// and the no-backfill variant booked a processor twice (its idle test
/// forgave more than the booking it overlapped).
#[test]
fn strassen_with_one_huge_task_schedules_under_every_scheduler() {
    let json = strassen_graph(&StrassenConfig {
        n: 1024,
        ..Default::default()
    })
    .to_json();
    let s10 = json.find("\"S10\"").expect("Strassen has S10");
    let (head, tail) = json.split_at(s10);
    let tail = tail.replacen("\"seq_time\": 0.0012582912,", "\"seq_time\": 12582912,", 1);
    assert_ne!(tail, json[s10..], "S10's seq_time is rewritten");
    let g = TaskGraph::from_json(&format!("{head}{tail}")).expect("the edited graph parses");
    for cluster in [
        Cluster::new(8, 125.0),
        Cluster::new(8, 125.0).without_overlap(),
    ] {
        if let Err(e) = check_all(&g, &cluster) {
            panic!("{:?}: {e}", cluster.overlap);
        }
    }
}
