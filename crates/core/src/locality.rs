//! Locality scoring: which processors already hold a task's input data?
//!
//! Algorithm 2, step 9 chooses "the subset of processors in `p` that have
//! maximum locality for `tp`". A task's input data lives block-cyclically
//! spread over each parent's processor group, so the value of placing the
//! task on processor `x` is the input volume resident on `x`:
//! `score(x) = Σ_{e=(s,t)} volume(e) · share_s(x)` where `share_s(x)` is
//! `1/np(s)` if `x` is in `s`'s group and 0 otherwise.

use locmps_platform::{ProcId, ProcSet};
use locmps_taskgraph::{TaskGraph, TaskId};

/// Per-processor resident input volume for task `t`, written into `out`
/// (resized to `n_procs`). `parent_procs` returns the processor set each
/// parent of `t` runs on; a parent that maps to the empty set adds nothing.
pub fn input_locality_scores_into<'p>(
    g: &TaskGraph,
    t: TaskId,
    n_procs: usize,
    parent_procs: impl Fn(TaskId) -> &'p ProcSet,
    out: &mut Vec<f64>,
) {
    out.clear();
    out.resize(n_procs, 0.0);
    for e in g.in_edges(t) {
        let edge = g.edge(e);
        if edge.volume <= 0.0 {
            continue;
        }
        let procs = parent_procs(edge.src);
        let np = procs.len();
        if np == 0 {
            continue;
        }
        let share = edge.volume / np as f64;
        for p in procs.iter() {
            if (p as usize) < n_procs {
                out[p as usize] += share;
            }
        }
    }
}

/// Picks the `np` highest-scoring processors out of `free` (ties broken
/// toward lower ids for determinism). Returns `None` when `free` has fewer
/// than `np` members.
pub fn select_max_locality(free: &ProcSet, np: usize, scores: &[f64]) -> Option<ProcSet> {
    let mut scratch = Vec::new();
    let mut out = ProcSet::new();
    select_max_locality_into(free, np, scores, &mut scratch, &mut out).then_some(out)
}

/// Buffer-reusing form of [`select_max_locality`]: fills `out` with the
/// selected set and returns whether selection succeeded (`free` had at
/// least `np` members). `scratch` holds the candidate ids between calls.
///
/// Selection uses `select_nth_unstable_by` — `O(F)` instead of the full
/// `O(F log F)` sort — under a *total* order (score descending via
/// `total_cmp`, then id ascending), so the top-`np` set it partitions out
/// is exactly the one the sorting implementation took.
pub fn select_max_locality_into(
    free: &ProcSet,
    np: usize,
    scores: &[f64],
    scratch: &mut Vec<ProcId>,
    out: &mut ProcSet,
) -> bool {
    scratch.clear();
    scratch.extend(free.iter());
    if scratch.len() < np {
        return false;
    }
    let cmp = |&a: &ProcId, &b: &ProcId| {
        let sa = scores.get(a as usize).copied().unwrap_or(0.0);
        let sb = scores.get(b as usize).copied().unwrap_or(0.0);
        sb.total_cmp(&sa).then(a.cmp(&b))
    };
    if np > 0 && np < scratch.len() {
        scratch.select_nth_unstable_by(np - 1, cmp);
    }
    out.clear();
    for &p in &scratch[..np] {
        out.insert(p);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmps_speedup::ExecutionProfile;

    fn set(ids: &[u32]) -> ProcSet {
        ids.iter().copied().collect()
    }

    #[test]
    fn scores_follow_parent_shares() {
        // Two parents: a on {0,1} sending 40 MB, b on {1,2} sending 20 MB.
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(1.0));
        let b = g.add_task("b", ExecutionProfile::linear(1.0));
        let t = g.add_task("t", ExecutionProfile::linear(1.0));
        g.add_edge(a, t, 40.0).unwrap();
        g.add_edge(b, t, 20.0).unwrap();
        // The buffer's previous contents and length are discarded.
        let (pa, pb) = (set(&[0, 1]), set(&[1, 2]));
        let mut out = vec![99.0; 2];
        input_locality_scores_into(&g, t, 4, |p| if p == a { &pa } else { &pb }, &mut out);
        assert_eq!(out, vec![20.0, 30.0, 10.0, 0.0]);
        // A parent mapped to the empty set (not placed yet) adds nothing.
        let unplaced = ProcSet::new();
        input_locality_scores_into(&g, t, 4, |p| if p == a { &pa } else { &unplaced }, &mut out);
        assert_eq!(out, vec![20.0, 20.0, 0.0, 0.0]);
    }

    #[test]
    fn zero_volume_edges_do_not_score() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", ExecutionProfile::linear(1.0));
        let t = g.add_task("t", ExecutionProfile::linear(1.0));
        g.add_edge(a, t, 0.0).unwrap();
        let on_zero = set(&[0]);
        let mut out = Vec::new();
        input_locality_scores_into(&g, t, 2, |_| &on_zero, &mut out);
        assert_eq!(out, vec![0.0, 0.0]);
    }

    #[test]
    fn selection_prefers_high_scores_then_low_ids() {
        let free = set(&[0, 1, 2, 3]);
        let scores = vec![5.0, 9.0, 5.0, 0.0];
        let picked = select_max_locality(&free, 2, &scores).unwrap();
        assert_eq!(
            picked.to_vec(),
            vec![0, 1],
            "9.0 first, then tie 5.0 -> lower id"
        );
        let picked3 = select_max_locality(&free, 3, &scores).unwrap();
        assert_eq!(picked3.to_vec(), vec![0, 1, 2]);
    }

    #[test]
    fn selection_requires_enough_free_procs() {
        let free = set(&[4]);
        assert!(select_max_locality(&free, 2, &[]).is_none());
        assert_eq!(
            select_max_locality(&free, 1, &[]).unwrap().to_vec(),
            vec![4]
        );
    }

    #[test]
    fn reused_buffers_match_the_allocating_form() {
        let free = set(&[0, 1, 2, 3, 5, 8]);
        let scores = vec![1.0, 4.0, 4.0, 0.5, 0.0, 2.0, 0.0, 0.0, 7.0];
        let mut scratch = Vec::new();
        let mut out = ProcSet::new();
        for np in 0..=6 {
            let fresh = select_max_locality(&free, np, &scores);
            let ok = select_max_locality_into(&free, np, &scores, &mut scratch, &mut out);
            assert_eq!(ok, fresh.is_some());
            if let Some(fresh) = fresh {
                assert_eq!(out, fresh, "np={np}");
            }
        }
        assert!(!select_max_locality_into(
            &free,
            7,
            &scores,
            &mut scratch,
            &mut out
        ));
    }
}
