//! Property-based tests over randomly generated DAGs.

use locmps_speedup::ExecutionProfile;
use proptest::prelude::*;

use crate::{ConcurrencyInfo, EdgeId, GraphStats, Levels, TaskGraph, TaskId};

/// Strategy producing a random DAG: `n` tasks, edges only from lower to
/// higher ids (guaranteeing acyclicity), each potential edge present with
/// probability ~`density`.
pub fn arb_dag(max_tasks: usize) -> impl Strategy<Value = TaskGraph> {
    (2..max_tasks, any::<u64>(), 0.05..0.5f64).prop_map(|(n, seed, density)| {
        // Simple deterministic LCG so the strategy stays shrinkable via its
        // inputs rather than a giant Vec<bool>.
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut g = TaskGraph::new();
        for i in 0..n {
            let work = 1.0 + 29.0 * next();
            g.add_task(format!("t{i}"), ExecutionProfile::linear(work));
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if next() < density {
                    let vol = 50.0 * next();
                    g.add_edge(TaskId(i as u32), TaskId(j as u32), vol).unwrap();
                }
            }
        }
        g
    })
}

/// Node and edge weights for `g` drawn from `seed`, spread over six
/// orders of magnitude so that sums taken in different association orders
/// round differently; every fifth edge weighs nothing, like a pseudo-edge.
fn arb_weights(g: &TaskGraph, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut weight = move || 10f64.powf(6.0 * next() - 3.0) * (1.0 + next());
    let node = g.task_ids().map(|_| weight()).collect();
    let edge = g
        .edge_ids()
        .map(|e| if e.index() % 5 == 4 { 0.0 } else { weight() })
        .collect();
    (node, edge)
}

/// A topological order unlike Kahn's FIFO one: always release the ready
/// task with the largest id.
fn largest_ready_first(g: &TaskGraph) -> Vec<TaskId> {
    let mut in_deg: Vec<usize> = g.task_ids().map(|t| g.in_degree(t)).collect();
    let mut ready: Vec<TaskId> = g.task_ids().filter(|t| in_deg[t.index()] == 0).collect();
    let mut order = Vec::new();
    while let Some(t) = ready.iter().copied().max() {
        ready.retain(|&r| r != t);
        order.push(t);
        for s in g.successors(t) {
            in_deg[s.index()] -= 1;
            if in_deg[s.index()] == 0 {
                ready.push(s);
            }
        }
    }
    order
}

/// Top and bottom levels straight from their definitions (memoized
/// recursion over the edges, no order), with the sweeps' association:
/// `top(v) = max_e (top(u) + w(u)) + c(e)` over in-edges,
/// `bottom(v) = w(v) + max(0, max_e c(e) + bottom(d))` over out-edges.
fn reference_levels(g: &TaskGraph, w: &[f64], c: &[f64]) -> (Vec<f64>, Vec<f64>) {
    fn top(g: &TaskGraph, w: &[f64], c: &[f64], v: TaskId, memo: &mut [Option<f64>]) -> f64 {
        if let Some(x) = memo[v.index()] {
            return x;
        }
        let mut best = 0.0f64;
        for e in g.in_edges(v) {
            let u = g.edge(e).src;
            let cand = top(g, w, c, u, memo) + w[u.index()] + c[e.index()];
            if cand > best {
                best = cand;
            }
        }
        memo[v.index()] = Some(best);
        best
    }
    fn bottom(g: &TaskGraph, w: &[f64], c: &[f64], v: TaskId, memo: &mut [Option<f64>]) -> f64 {
        if let Some(x) = memo[v.index()] {
            return x;
        }
        let mut best = 0.0f64;
        for e in g.out_edges(v) {
            let cand = c[e.index()] + bottom(g, w, c, g.edge(e).dst, memo);
            if cand > best {
                best = cand;
            }
        }
        let x = w[v.index()] + best;
        memo[v.index()] = Some(x);
        x
    }
    let (mut tm, mut bm) = (vec![None; g.n_tasks()], vec![None; g.n_tasks()]);
    let t = g.task_ids().map(|v| top(g, w, c, v, &mut tm)).collect();
    let b = g.task_ids().map(|v| bottom(g, w, c, v, &mut bm)).collect();
    (t, b)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sweeps_along_any_order_match_levels_bit_for_bit(
        g in arb_dag(24),
        seed in any::<u64>(),
    ) {
        let (node, edge) = arb_weights(&g, seed);
        let w = |t: TaskId| node[t.index()];
        let c = |e: EdgeId| edge[e.index()];
        let (ref_top, ref_bottom) = reference_levels(&g, &node, &edge);
        let ref_cp = ref_top
            .iter()
            .zip(&ref_bottom)
            .map(|(t, b)| t + b)
            .fold(f64::NEG_INFINITY, f64::max);

        let lv = g.levels(w, c);
        prop_assert_eq!(bits(&lv.top), bits(&ref_top));
        prop_assert_eq!(bits(&lv.bottom), bits(&ref_bottom));
        prop_assert_eq!(lv.cp_length().to_bits(), ref_cp.to_bits());
        let cp = g.critical_path(w, c);
        prop_assert_eq!(cp.length.to_bits(), ref_cp.to_bits());

        let kahn = g.topo_order().unwrap();
        let mut order = Vec::new();
        let mut in_deg = vec![7; 3];
        g.topo_order_into(&mut order, &mut in_deg).unwrap();
        prop_assert_eq!(&order, &kahn);
        prop_assert!(in_deg.iter().all(|&d| d == 0));
        let other = largest_ready_first(&g);
        prop_assert_eq!(other.len(), g.n_tasks());

        // Buffers reused across orders start out holding another graph's
        // levels.
        let mut levels = Levels {
            top: vec![1.0; 30],
            bottom: vec![-1.0; 2],
        };
        let mut bottom = vec![5.0; 40];
        for order in [&kahn, &other] {
            g.levels_along(order, w, c, &mut levels);
            prop_assert_eq!(bits(&levels.top), bits(&lv.top));
            prop_assert_eq!(bits(&levels.bottom), bits(&lv.bottom));
            prop_assert_eq!(levels.cp_length().to_bits(), ref_cp.to_bits());
            g.bottom_levels_along(order, w, c, &mut bottom);
            prop_assert_eq!(bits(&bottom), bits(&lv.bottom));
            let mut top = Vec::new();
            g.top_levels_along(order, w, c, &mut top);
            prop_assert_eq!(bits(&top), bits(&lv.top));
            let along = g.critical_path_along(order, w, c, &mut levels);
            prop_assert_eq!(&along.tasks, &cp.tasks);
            prop_assert_eq!(&along.edges, &cp.edges);
            prop_assert_eq!(along.length.to_bits(), cp.length.to_bits());
        }
    }

    #[test]
    fn topo_order_is_a_valid_linearization(g in arb_dag(24)) {
        let order = g.topo_order().unwrap();
        prop_assert_eq!(order.len(), g.n_tasks());
        let mut pos = vec![usize::MAX; g.n_tasks()];
        for (i, t) in order.iter().enumerate() {
            pos[t.index()] = i;
        }
        for (_, e) in g.edges() {
            prop_assert!(pos[e.src.index()] < pos[e.dst.index()]);
        }
    }

    #[test]
    fn levels_are_consistent(g in arb_dag(24)) {
        let w = |t: TaskId| g.task(t).profile.time(1);
        let c = |e: crate::EdgeId| g.edge(e).volume * 0.01;
        let lv = g.levels(w, c);
        let cp = lv.cp_length();
        for t in g.task_ids() {
            // Level definitions: bottomL includes the own weight.
            prop_assert!(lv.bottom[t.index()] >= w(t) - 1e-9);
            prop_assert!(lv.top[t.index()] >= -1e-9);
            prop_assert!(lv.top[t.index()] + lv.bottom[t.index()] <= cp * (1.0 + 1e-9));
            // Recurrences hold.
            for e in g.in_edges(t) {
                let src = g.edge(e).src;
                prop_assert!(
                    lv.top[t.index()] + 1e-6 >= lv.top[src.index()] + w(src) + c(e),
                    "top level recurrence violated"
                );
            }
        }
        // Some task attains the CP.
        prop_assert!(g.task_ids().any(|t| lv.on_critical_path(t)));
    }

    #[test]
    fn critical_path_is_a_real_path_of_full_length(g in arb_dag(24)) {
        let w = |t: TaskId| g.task(t).profile.time(1);
        let c = |e: crate::EdgeId| g.edge(e).volume * 0.01;
        let cp = g.critical_path(w, c);
        prop_assert!(!cp.tasks.is_empty());
        prop_assert_eq!(cp.edges.len() + 1, cp.tasks.len());
        // Consecutive tasks are connected by the listed edges.
        for (i, &e) in cp.edges.iter().enumerate() {
            prop_assert_eq!(g.edge(e).src, cp.tasks[i]);
            prop_assert_eq!(g.edge(e).dst, cp.tasks[i + 1]);
        }
        // Path length equals sum of weights equals the levels' cp length.
        let len: f64 = cp.tasks.iter().map(|&t| w(t)).sum::<f64>()
            + cp.edges.iter().map(|&e| c(e)).sum::<f64>();
        prop_assert!((len - cp.length).abs() <= 1e-6 * cp.length.max(1.0));
        let lv = g.levels(w, c);
        prop_assert!((lv.cp_length() - cp.length).abs() <= 1e-6 * cp.length.max(1.0));
    }

    #[test]
    fn concurrency_is_symmetric_and_excludes_dependents(g in arb_dag(20)) {
        let info = ConcurrencyInfo::compute(&g);
        for t in g.task_ids() {
            let set = info.concurrent_set(t);
            prop_assert!(!set.contains(&t));
            for &u in set {
                prop_assert!(
                    info.concurrent_set(u).contains(&t),
                    "concurrency must be symmetric"
                );
            }
            // Direct neighbors are never concurrent.
            for s in g.successors(t) {
                prop_assert!(!set.contains(&s));
            }
            for p in g.predecessors(t) {
                prop_assert!(!set.contains(&p));
            }
        }
    }

    #[test]
    fn json_round_trip(g in arb_dag(16)) {
        let back = TaskGraph::from_json(&g.to_json()).unwrap();
        prop_assert_eq!(g, back);
    }

    #[test]
    fn stats_invariants(g in arb_dag(24)) {
        let s = GraphStats::compute(&g);
        prop_assert_eq!(s.n_tasks, g.n_tasks());
        prop_assert!(s.depth >= 1 && s.depth <= s.n_tasks);
        prop_assert!(s.width >= 1 && s.width <= s.n_tasks);
        prop_assert!(s.total_work > 0.0);
        // Depth * width >= n is not guaranteed, but depth + width <= n + 1
        // and both bound the CP/parallelism trivially; check work is the sum.
        let sum: f64 = g.tasks().map(|(_, t)| t.profile.seq_time()).sum();
        prop_assert!((s.total_work - sum).abs() < 1e-9);
    }
}
