//! Pruning-exactness properties: the accelerations of the LoC-MPS
//! refinement search (the corner-probe bound, bounded-horizon probes, the
//! allocation-keyed memo of passes and walk steps, the prefix replay) must
//! be **lossless** —
//! the search with them on selects the same commits and produces the
//! byte-identical schedule, allocation and schedule-DAG as the exhaustive
//! reference that runs every LoCBS pass to completion — and the bounds
//! must be admissible (never above a true LoCBS makespan).

use locmps::core::bounds::{allocation_lower_bound, WideningBounds};
use locmps::core::{Allocation, CommModel, Locbs, LocbsOptions, SchedulerOutput};
use locmps::prelude::*;
use locmps::speedup::DowneyParams;
use locmps::taskgraph::TaskId;
use locmps::workloads::synthetic::{synthetic_graph, SyntheticConfig};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = TaskGraph> {
    (2usize..14, any::<u64>(), 0.1..0.45f64).prop_map(|(n, seed, density)| {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut g = TaskGraph::new();
        for i in 0..n {
            let work = 2.0 + 30.0 * next();
            let a = 1.0 + 40.0 * next();
            let sigma = 2.5 * next();
            let model = SpeedupModel::Downey(DowneyParams::new(a, sigma).unwrap());
            g.add_task(format!("t{i}"), ExecutionProfile::new(work, model).unwrap());
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if next() < density {
                    g.add_edge(TaskId(i as u32), TaskId(j as u32), 200.0 * next())
                        .unwrap();
                }
            }
        }
        g
    })
}

/// Full-precision serialization: byte equality pins exact f64 bits.
fn serialized(s: &Schedule) -> String {
    serde_json::to_string(s).expect("schedules serialize")
}

/// A schedule-DAG as JSON: the data graph, then every edge in id order
/// with its kind, so pseudo-edges and their order are part of the bytes.
fn serialized_dag(out: &SchedulerOutput) -> String {
    let dag = out.schedule_dag.as_ref().expect("LoC-MPS builds G'");
    let edges: Vec<_> = dag.edges().map(|(_, e)| e).collect();
    dag.to_json() + &serde_json::to_string(&edges).expect("edges serialize")
}

/// The pruned search and the exhaustive reference on one input: the same
/// schedule, allocation, schedule-DAG and commits.
fn assert_matches_reference(pruned: &SchedulerOutput, reference: &SchedulerOutput) {
    assert_eq!(
        serialized(&pruned.schedule),
        serialized(&reference.schedule)
    );
    assert_eq!(
        pruned.allocation.as_slice(),
        reference.allocation.as_slice()
    );
    assert_eq!(serialized_dag(pruned), serialized_dag(reference));
    assert_eq!(pruned.schedule_dag, reference.schedule_dag);
    assert_eq!(pruned.counters.commits, reference.counters.commits);
}

/// The golden zoo's 18-task synthetic graph (seed 77) at P = 7, in both
/// overlap regimes: walks reuse memoized successors there, and the
/// schedule-DAG still equals the exhaustive reference's, which reuses none.
#[test]
fn memoized_walk_steps_keep_the_reference_schedule_dag() {
    let g = synthetic_graph(&SyntheticConfig {
        n_tasks: 18,
        ccr: 0.5,
        seed: 77,
        ..Default::default()
    });
    for cluster in [
        Cluster::new(7, 50.0),
        Cluster::new(7, 50.0).without_overlap(),
    ] {
        let pruned = LocMps::default().schedule(&g, &cluster).unwrap();
        let reference = LocMps::new(LocMpsConfig::exhaustive())
            .schedule(&g, &cluster)
            .unwrap();
        assert!(
            pruned.counters.successors_reused > 0,
            "no walk step took a memoized successor: {:?}",
            pruned.counters
        );
        assert_eq!(reference.counters.successors_reused, 0);
        assert_matches_reference(&pruned, &reference);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: pruned and exhaustive searches are
    /// indistinguishable in everything but effort. Identical commit counts
    /// mean the two walked the same commit/mark trajectory (the same entry
    /// was selected in every improving round); identical serialized
    /// schedules, allocations and schedule-DAGs (pseudo-edge order
    /// included) mean not one placement bit drifted.
    #[test]
    fn pruned_search_matches_exhaustive_reference(
        g in arb_graph(),
        p in 1usize..9,
        overlap in any::<bool>(),
    ) {
        let cluster = if overlap {
            Cluster::new(p, 25.0)
        } else {
            Cluster::new(p, 25.0).without_overlap()
        };
        let pruned = LocMps::default().schedule(&g, &cluster).unwrap();
        let reference = LocMps::new(LocMpsConfig::exhaustive())
            .schedule(&g, &cluster)
            .unwrap();

        prop_assert_eq!(serialized(&pruned.schedule), serialized(&reference.schedule));
        prop_assert_eq!(
            pruned.allocation.as_slice(),
            reference.allocation.as_slice()
        );
        prop_assert_eq!(serialized_dag(&pruned), serialized_dag(&reference));
        prop_assert_eq!(pruned.counters.commits, reference.counters.commits);
        // The reference by construction does none of the accelerated work.
        prop_assert_eq!(reference.counters.pass_memo_hits, 0);
        prop_assert_eq!(reference.counters.successors_reused, 0);
        prop_assert_eq!(reference.counters.probes_aborted, 0);
        prop_assert_eq!(reference.counters.branches_pruned, 0);
        prop_assert_eq!(reference.counters.lookahead_cutoffs, 0);
        // And never executes fewer passes than the pruned search.
        prop_assert!(reference.counters.locbs_passes >= pruned.counters.locbs_passes);
    }

    /// The counters are pure functions of the input: two runs of the same
    /// configuration agree exactly.
    #[test]
    fn counters_are_deterministic(g in arb_graph(), p in 1usize..7) {
        let cluster = Cluster::new(p, 25.0);
        let a = LocMps::default().schedule(&g, &cluster).unwrap();
        let b = LocMps::default().schedule(&g, &cluster).unwrap();
        prop_assert_eq!(a.counters, b.counters);
    }

    /// Admissibility of the allocation-level bound: never above the true
    /// LoCBS makespan of that allocation.
    #[test]
    fn allocation_bound_is_admissible(
        g in arb_graph(),
        p in 1usize..9,
        widths in proptest::collection::vec(1usize..9, 14..15),
    ) {
        let cluster = Cluster::new(p, 25.0);
        let alloc = Allocation::from_vec(
            g.task_ids().map(|t| widths[t.index()].min(p)).collect(),
        );
        let model = CommModel::new(&cluster);
        let locbs = Locbs::new(model, LocbsOptions::default());
        let res = locbs.run(&g, &alloc).unwrap();
        let bound = allocation_lower_bound(&g, &alloc, p);
        prop_assert!(
            bound <= res.makespan * (1.0 + 1e-9),
            "bound {bound} above true makespan {}", res.makespan
        );
    }

    /// Admissibility of the widening-cone bound: never above the true
    /// LoCBS makespan of ANY allocation reachable by widening, whatever the
    /// number and size of the moves, and never above the allocation bound
    /// of its own apex.
    #[test]
    fn cone_bound_is_admissible_over_reachable_allocations(
        g in arb_graph(),
        p in 2usize..9,
        widths in proptest::collection::vec(1usize..9, 14..15),
        moves in proptest::collection::vec((0usize..14, 1usize..9), 0..7),
    ) {
        let cluster = Cluster::new(p, 25.0);
        let alloc = Allocation::from_vec(
            g.task_ids().map(|t| widths[t.index()].min(p)).collect(),
        );
        let bound = WideningBounds::new(&g, p).cone_bound(&g, &alloc);
        prop_assert!(bound <= allocation_lower_bound(&g, &alloc, p) * (1.0 + 1e-12));

        // Widen tasks by any amount and compare against the true makespan
        // of the reached allocation.
        let mut widened = alloc.clone();
        for &(idx, by) in &moves {
            let t = TaskId((idx % g.n_tasks()) as u32);
            widened.set(t, (widened.np(t) + by).min(p));
        }
        let model = CommModel::new(&cluster);
        let locbs = Locbs::new(model, LocbsOptions::default());
        let res = locbs.run(&g, &widened).unwrap();
        prop_assert!(
            bound <= res.makespan * (1.0 + 1e-9),
            "cone bound {bound} above reachable makespan {}", res.makespan
        );
    }
}
