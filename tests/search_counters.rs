//! Search-efficiency pinning: the deterministic [`SearchCounters`] of a
//! fixed LoC-MPS case are pure functions of the input, so CI can assert
//! exact values — a regression in the corner-probe bound, the pass memo,
//! the walk memo's successors, the prefix replay or the reuse of refine's
//! transfer prices shows up as a counter drift long before it is
//! measurable as flaky wall-clock. (Neither reuse changes an output bit,
//! so `successors_reused` and `transfers_reused` are the only checks that
//! they still happen.) `candidates_examined` is likewise the only check
//! that the placement scan still stops at its exact finish bound: a
//! candidate past the bound can never win, so a loosened bound changes no
//! schedule, only this count. `lookahead_cutoffs` and `probes_aborted` are
//! pinned at 0 because nothing cuts a look-ahead walk or a LoCBS pass
//! short any more.
//!
//! `PASS_BUDGET` bounds the LoCBS passes the search starts. Every pass
//! now places every task; when corner probes and the last pass of each
//! walk could still abort part-way, this input started 36,229 passes
//! (34,222 completed, 2,007 aborted). Running those passes to the end
//! memoizes the walks' last passes, so later walks that reach the same
//! allocations take 281 more memo hits, and the search starts 35,948.
//!
//! The pinned (200 tasks, 32 procs) case is `#[ignore]`d from the default
//! suite (it runs a full refinement search) and executed by the CI
//! perf-smoke job via
//! `cargo test --release --test search_counters -- --ignored`.

use locmps::core::bounds::{allocation_lower_bound, WideningBounds};
use locmps::core::{Allocation, CommModel, Locbs, LocbsOptions, SearchCounters};
use locmps::prelude::*;
use locmps::workloads::strassen::{strassen_graph, StrassenConfig};
use locmps::workloads::synthetic::{synthetic_graph, SyntheticConfig};
use locmps::workloads::tce::{ccsd_t1_graph, TceConfig};
use locmps::workloads::toys::{chain, fork_join, independent};

fn zoo() -> Vec<(&'static str, TaskGraph)> {
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

/// The same deterministic mixed-width allocation the golden zoo pins.
fn mixed_alloc(g: &TaskGraph, p: usize) -> Allocation {
    let half = (p / 2).max(1);
    Allocation::from_vec(g.task_ids().map(|t| 1 + (t.index() * 7) % half).collect())
}

/// Both admissible bounds hold on every golden-zoo workload: never above
/// the true LoCBS makespan of the allocation, and the widening cone, which
/// also covers every wider allocation, never above the allocation bound.
#[test]
fn bounds_are_admissible_on_golden_zoo() {
    for (name, g) in zoo() {
        for p in [3usize, 7, 16] {
            let cluster = Cluster::new(p, 50.0);
            let model = CommModel::new(&cluster);
            let locbs = Locbs::new(model, LocbsOptions::default());
            let alloc = mixed_alloc(&g, p);
            let makespan = locbs.run(&g, &alloc).expect("zoo places").makespan;

            let lb = allocation_lower_bound(&g, &alloc, p);
            assert!(
                lb <= makespan * (1.0 + 1e-9),
                "{name}/P={p}: allocation bound {lb} above makespan {makespan}"
            );

            let cone = WideningBounds::new(&g, p).cone_bound(&g, &alloc);
            assert!(
                cone <= makespan * (1.0 + 1e-9),
                "{name}/P={p}: cone bound {cone} above makespan {makespan}"
            );
            assert!(
                cone <= lb * (1.0 + 1e-12),
                "{name}/P={p}: cone bound {cone} above allocation bound {lb}"
            );
        }
    }
}

/// CI perf-smoke: the pinned (200 tasks, 32 procs) search-effort budget.
///
/// Every value below is a pure function of the input, so exact equality is
/// safe to assert. `locbs_passes` is pinned as a ≤ budget (any improvement
/// to the memo/pruning only lowers it; a regression that re-runs memoized
/// or pruned work raises it past the budget and fails), the remaining
/// counters exactly.
#[test]
#[ignore = "perf-smoke: full refinement search; run in release via CI's perf-smoke job"]
fn pinned_200x32_search_effort() {
    let g = synthetic_graph(&SyntheticConfig {
        n_tasks: 200,
        ccr: 0.5,
        seed: 42,
        ..Default::default()
    });
    let cluster = Cluster::fast_ethernet(32);
    let out = LocMps::default().schedule(&g, &cluster).expect("schedules");
    let c = out.counters;

    // Budget: started passes may only go down. Measured 35_948 when this
    // pin was taken; the slack absorbs nothing — any counter change
    // already fails the exact pins below, the budget exists to phrase the
    // *direction* a pass-count regression takes.
    const PASS_BUDGET: u64 = 35_948;
    assert!(
        c.locbs_passes <= PASS_BUDGET,
        "started {} LoCBS passes, budget is {PASS_BUDGET} — \
         a memo/pruning regression re-runs avoided work",
        c.locbs_passes
    );

    // Exact pins: deterministic counters of this exact input.
    let expected = SearchCounters {
        locbs_passes: c.locbs_passes, // budgeted above, not pinned
        pass_memo_hits: 4_257,
        successors_reused: 3_976,
        placements_replayed: 2_567_805,
        candidates_examined: 140_944_798,
        transfers_reused: 15_083_562,
        probes_aborted: 0,
        branches_pruned: 2,
        lookahead_cutoffs: 0,
        commits: 83,
    };
    assert_eq!(c, expected, "search-effort counters drifted");
}
