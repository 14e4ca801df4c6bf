//! A brute-force LoCBS (Algorithm 2) built only from public API, against
//! which `Locbs::run` must return the bitwise-equal schedule.
//!
//! The reference ranks ready tasks by `Locbs`'s priority (the bottom level
//! over the planning edge estimates plus the heaviest in-edge estimate) and
//! examines *every* candidate start, with no horizon: the task's data-ready
//! time and each booking end after it (`Timeline::candidate_times`), or
//! without backfill each processor's last booking end, deduplicated as
//! `Timeline` documents for its no-backfill candidates. At each it takes
//! the free processors, the maximum-locality subset, the exact transfer
//! times and the set-free check, and keeps the minimum finish under the
//! placer's tie rule. `Locbs` stops its scan at the first candidate that
//! can no longer displace the best placement; since the default and the
//! exhaustive LoC-MPS searches share that scan, this test is what checks
//! the stop is exact.

use locmps::core::locality::{input_locality_scores_into, select_max_locality};
use locmps::core::schedule::time_eps;
use locmps::core::timeline::Timeline;
use locmps::core::{Allocation, CommModel, Locbs, LocbsOptions, ScheduledTask};
use locmps::platform::{CommOverlap, ProcSet};
use locmps::prelude::*;
use proptest::prelude::*;

/// Random DAGs whose works and speedups come from small sets, so
/// placements often tie on their finish time, with zero and heavy edge
/// volumes mixed.
fn arb_graph() -> impl Strategy<Value = TaskGraph> {
    (2usize..18, any::<u64>(), 0.15..0.5f64).prop_map(|(n, seed, density)| {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut g = TaskGraph::new();
        for i in 0..n {
            let work = [3.0, 6.0, 12.0, 24.0][(4.0 * next()) as usize];
            let model = if next() < 0.5 {
                SpeedupModel::Linear
            } else {
                SpeedupModel::Downey(DowneyParams::new(8.0, 1.0).unwrap())
            };
            g.add_task(format!("t{i}"), ExecutionProfile::new(work, model).unwrap());
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if next() < density {
                    let volume = if next() < 0.25 { 0.0 } else { 300.0 * next() };
                    g.add_edge(TaskId(i as u32), TaskId(j as u32), volume)
                        .unwrap();
                }
            }
        }
        g
    })
}

/// Cluster sizes of one bitmap word, plus two and three words.
fn arb_procs() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..10, Just(70usize), Just(130usize)]
}

/// The reference placer: Algorithm 2 with an unbounded candidate scan.
fn reference(g: &TaskGraph, alloc: &Allocation, model: &CommModel<'_>, backfill: bool) -> Schedule {
    let cluster = model.cluster();
    let p_total = cluster.n_procs;
    let full_overlap = cluster.overlap == CommOverlap::Full;
    let n = g.n_tasks();
    let et: Vec<f64> = g
        .task_ids()
        .map(|t| g.task(t).profile.time(alloc.np(t)))
        .collect();

    let edge_est: Vec<f64> = g
        .edge_ids()
        .map(|e| model.edge_estimate(g, alloc, e))
        .collect();
    let order = g.topo_order().unwrap();
    let mut bottom = Vec::new();
    g.bottom_levels_along(
        &order,
        |t| et[t.index()],
        |e| edge_est[e.index()],
        &mut bottom,
    );
    let priority: Vec<f64> = g
        .task_ids()
        .map(|t| {
            let heaviest_in = g
                .in_edges(t)
                .map(|e| edge_est[e.index()])
                .fold(0.0f64, f64::max);
            bottom[t.index()] + heaviest_in
        })
        .collect();

    let mut timeline = Timeline::new(p_total);
    // Each processor's last booking: its end and its length.
    let mut last_end = vec![f64::NEG_INFINITY; p_total];
    let mut last_len = vec![0.0f64; p_total];
    let mut placed: Vec<Option<ScheduledTask>> = vec![None; n];
    let mut unplaced_preds: Vec<usize> = g.task_ids().map(|t| g.in_degree(t)).collect();
    let mut ready: Vec<TaskId> = g
        .task_ids()
        .filter(|t| unplaced_preds[t.index()] == 0)
        .collect();
    let mut scores = Vec::new();

    while !ready.is_empty() {
        let i = (0..ready.len())
            .max_by(|&a, &b| {
                let (ta, tb) = (ready[a], ready[b]);
                priority[ta.index()]
                    .total_cmp(&priority[tb.index()])
                    .then(tb.cmp(&ta))
            })
            .unwrap();
        let t = ready.swap_remove(i);
        let np = alloc.np(t);
        let et = et[t.index()];
        let parent = |s: TaskId| placed[s.index()].as_ref().unwrap();
        let data_ready = g
            .in_edges(t)
            .map(|e| parent(g.edge(e).src).finish)
            .fold(0.0f64, f64::max);
        input_locality_scores_into(g, t, p_total, |s| &parent(s).procs, &mut scores);

        let candidates: Vec<f64> = if backfill {
            timeline.candidate_times(data_ready, et)
        } else {
            let mut ends: Vec<(f64, f64)> = last_end
                .iter()
                .zip(&last_len)
                .map(|(&end, &len)| (end.max(data_ready), len))
                .collect();
            ends.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut kept: Vec<f64> = Vec::new();
            for (s, len) in ends {
                let duplicate = kept
                    .last()
                    .is_some_and(|&k| s - k <= time_eps(k).min(0.5 * et.min(len)));
                if !duplicate {
                    kept.push(s);
                }
            }
            kept
        };

        let mut best: Option<ScheduledTask> = None;
        for s in candidates {
            let free: ProcSet = if backfill {
                timeline.free_set(s, s + et)
            } else {
                (0..p_total as u32)
                    .filter(|&q| timeline.idle_from(q, s, et))
                    .collect()
            };
            let Some(procs) = select_max_locality(&free, np, &scores) else {
                continue;
            };
            let (mut rct, mut total) = (data_ready, 0.0);
            for e in g.in_edges(t) {
                let edge = g.edge(e);
                let src = parent(edge.src);
                let ct = model.transfer_time(&src.procs, &procs, edge.volume);
                rct = rct.max(src.finish + ct);
                total += ct;
            }
            let (start, compute_start, finish) = if full_overlap {
                let st = s.max(rct);
                (st, st, st + et)
            } else {
                let st = s.max(data_ready);
                (st, st + total, st + total + et)
            };
            let feasible = if backfill {
                timeline.is_set_free(&procs, start, finish)
            } else {
                procs
                    .iter()
                    .all(|q| timeline.idle_from(q, start, finish - start))
            };
            if !feasible {
                continue;
            }
            let better = best.as_ref().is_none_or(|b| {
                finish < b.finish - time_eps(finish)
                    || ((finish - b.finish).abs() <= time_eps(finish) && start < b.start)
            });
            if better {
                best = Some(ScheduledTask {
                    task: t,
                    procs,
                    start,
                    compute_start,
                    finish,
                });
            }
        }

        let entry = best.expect("the last booking end always fits");
        timeline.occupy(&entry.procs, entry.start, entry.finish);
        if entry.finish > entry.start {
            for q in entry.procs.iter() {
                let q = q as usize;
                if entry.finish > last_end[q] {
                    last_end[q] = entry.finish;
                    last_len[q] = entry.finish - entry.start;
                }
            }
        }
        placed[t.index()] = Some(entry);
        for s in g.successors(t) {
            unplaced_preds[s.index()] -= 1;
            if unplaced_preds[s.index()] == 0 {
                ready.push(s);
            }
        }
    }
    Schedule::from_entries(placed.into_iter().map(Option::unwrap).collect())
}

/// Every field of every entry, floats as bits.
fn bits(s: &Schedule) -> Vec<(TaskId, Vec<u32>, u64, u64, u64)> {
    s.entries()
        .iter()
        .map(|e| {
            (
                e.task,
                e.procs.to_vec(),
                e.start.to_bits(),
                e.compute_start.to_bits(),
                e.finish.to_bits(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn locbs_matches_the_exhaustive_reference(
        g in arb_graph(),
        p in arb_procs(),
        overlap in any::<bool>(),
        backfill in any::<bool>(),
        bandwidth in prop_oneof![Just(10.0f64), Just(40.0f64)],
        widths in proptest::collection::vec(any::<u64>(), 18..19),
    ) {
        let cluster = if overlap {
            Cluster::new(p, bandwidth)
        } else {
            Cluster::new(p, bandwidth).without_overlap()
        };
        let model = CommModel::new(&cluster);
        // Mostly narrow widths, so tasks share the chart, and some up to
        // the whole cluster.
        let alloc = Allocation::from_vec(
            g.task_ids()
                .map(|t| {
                    let r = widths[t.index()];
                    let cap = if r >> 63 == 1 { p } else { p.min(4) };
                    1 + (r % cap as u64) as usize
                })
                .collect(),
        );
        let got = Locbs::new(model, LocbsOptions { backfill })
            .run(&g, &alloc)
            .unwrap();
        let want = reference(&g, &alloc, &model, backfill);
        prop_assert_eq!(bits(&got.schedule), bits(&want));
        prop_assert_eq!(got.makespan.to_bits(), want.makespan().to_bits());
    }
}
