//! Property-based tests for processor sets and redistribution.

use proptest::prelude::*;

use crate::blockcyclic::{redistribution_time, Distribution, RedistributionMatrix};
use crate::cluster::aggregate_edge_cost;
use crate::procset::ProcSet;
use crate::transfers::TransferSchedule;

fn arb_procset() -> impl Strategy<Value = ProcSet> {
    proptest::collection::btree_set(0u32..96, 1..16).prop_map(|s| s.into_iter().collect())
}

/// Sets over ids `0..200` (up to four bitmap words); about half of them
/// end in zero words, left by inserting a high id and removing it again.
fn arb_wide_procset() -> impl Strategy<Value = ProcSet> {
    (
        proptest::collection::btree_set(0u32..200, 1..48),
        any::<bool>(),
        200u32..400,
    )
        .prop_map(|(ids, pad, high)| {
            let mut s: ProcSet = ids.into_iter().collect();
            if pad {
                s.insert(high);
                s.remove(high);
            }
            s
        })
}

/// A lockstep walk over both sorted member lists, counting each side's
/// slot index as it goes: the bit-exact reference for the word-wise
/// [`redistribution_time`].
fn lockstep_redistribution_time(src: &ProcSet, dst: &ProcSet, volume: f64, bandwidth: f64) -> f64 {
    if volume <= 0.0 || src.is_empty() || dst.is_empty() {
        return 0.0;
    }
    let p = src.len();
    let q = dst.len();
    let (mut g, mut r) = (p, q);
    while r != 0 {
        (g, r) = (r, g % r);
    }
    let per_pair = volume / (p / g * q) as f64;
    let mut max_busy = 0.0f64;
    let mut shared = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    let mut si = src.iter().peekable();
    let mut di = dst.iter().peekable();
    while let (Some(&a), Some(&b)) = (si.peek(), di.peek()) {
        match a.cmp(&b) {
            std::cmp::Ordering::Less => {
                si.next();
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                di.next();
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let mut busy = volume / p as f64 + volume / q as f64;
                if i % g == j % g {
                    busy -= 2.0 * per_pair;
                }
                max_busy = max_busy.max(busy);
                shared += 1;
                si.next();
                di.next();
                i += 1;
                j += 1;
            }
        }
    }
    if shared < p {
        max_busy = max_busy.max(volume / p as f64);
    }
    if shared < q {
        max_busy = max_busy.max(volume / q as f64);
    }
    max_busy.max(0.0) / bandwidth
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn set_algebra_laws(a in arb_procset(), b in arb_procset()) {
        let union = a.union(&b);
        let inter = a.intersection(&b);
        prop_assert!(inter.is_subset(&a) && inter.is_subset(&b));
        prop_assert!(a.is_subset(&union) && b.is_subset(&union));
        // Inclusion-exclusion on cardinalities.
        prop_assert_eq!(union.len() + inter.len(), a.len() + b.len());
        // Difference partitions.
        let diff = a.difference(&b);
        prop_assert_eq!(diff.len() + inter.len(), a.len());
        prop_assert!(diff.is_disjoint(&b));
        prop_assert_eq!(a.intersection_len(&b), inter.len());
    }

    #[test]
    fn iter_round_trip(a in arb_procset()) {
        let v = a.to_vec();
        prop_assert!(v.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
        let back: ProcSet = v.into_iter().collect();
        prop_assert_eq!(a, back);
    }

    #[test]
    fn redistribution_conserves_volume(a in arb_procset(), b in arb_procset(), vol in 0.0..1000.0f64) {
        let m = RedistributionMatrix::compute(
            &Distribution::block_cyclic(&a),
            &Distribution::block_cyclic(&b),
            vol,
        );
        let p = a.len();
        let q = b.len();
        let sum: f64 = (0..p).flat_map(|i| (0..q).map(move |j| (i, j)))
            .map(|(i, j)| m.volume(i, j)).sum();
        prop_assert!((sum - vol).abs() <= 1e-9 * vol.max(1.0));
        prop_assert!(m.local_volume() >= -1e-12);
        prop_assert!(m.nonlocal_volume() >= -1e-9);
    }

    #[test]
    fn same_set_is_free(a in arb_procset(), vol in 0.0..1000.0f64) {
        let t = redistribution_time(&a, &a, vol, 12.5);
        prop_assert_eq!(t, 0.0);
    }

    #[test]
    fn disjoint_sets_move_everything(vol in 1.0..1000.0f64) {
        let a: ProcSet = (0u32..4).collect();
        let b: ProcSet = (10u32..14).collect();
        let m = RedistributionMatrix::compute(
            &Distribution::block_cyclic(&a),
            &Distribution::block_cyclic(&b),
            vol,
        );
        prop_assert!((m.nonlocal_volume() - vol).abs() <= 1e-9 * vol);
    }

    #[test]
    fn single_port_time_sandwiched_by_bandwidth_bounds(
        a in arb_procset(), b in arb_procset(), vol in 1.0..1000.0f64
    ) {
        let bw = 12.5;
        let t = redistribution_time(&a, &b, vol, bw);
        let m = RedistributionMatrix::compute(
            &Distribution::block_cyclic(&a),
            &Distribution::block_cyclic(&b),
            vol,
        );
        // Never faster than perfectly parallel transfer of the non-local
        // volume over min(p, q) lanes; never slower than serializing it all
        // through one port.
        let lanes = a.len().min(b.len()) as f64;
        prop_assert!(t * (1.0 + 1e-9) >= m.nonlocal_volume() / (lanes * bw));
        prop_assert!(t <= 2.0 * m.nonlocal_volume() / bw + 1e-9);
        prop_assert!(t >= 0.0);
    }

    #[test]
    fn fast_single_port_time_matches_the_matrix(
        a in arb_procset(), b in arb_procset(), vol in 0.0..1000.0f64
    ) {
        let bw = 12.5;
        let fast = redistribution_time(&a, &b, vol, bw);
        let exact = RedistributionMatrix::compute(
            &Distribution::block_cyclic(&a),
            &Distribution::block_cyclic(&b),
            vol,
        )
        .single_port_time(bw);
        prop_assert!(
            (fast - exact).abs() <= 1e-9 * exact.max(1.0),
            "closed form {fast} != matrix {exact} for {a} -> {b}"
        );
    }

    #[test]
    fn word_kernel_is_bit_identical_to_the_lockstep_walk(
        a in arb_wide_procset(),
        b in arb_wide_procset(),
        vol in 0.0..1000.0f64,
        bw in 0.5..200.0f64,
        keep in 1usize..48,
    ) {
        // A prefix of `a` shares its first slots with `a` (every shared
        // node aligned); a shifted copy shares nothing with it.
        let mut prefix = a.clone();
        prefix.truncate(keep);
        let shifted: ProcSet = a.iter().map(|p| p + 200).collect();
        let union = a.union(&b);
        let pairs = [
            (&a, &b),
            (&b, &a),
            (&a, &a),
            (&a, &prefix),
            (&prefix, &a),
            (&a, &shifted),
            (&a, &union),
            (&union, &b),
        ];
        for (src, dst) in pairs {
            for v in [vol, 0.0] {
                let fast = redistribution_time(src, dst, v, bw);
                let reference = lockstep_redistribution_time(src, dst, v, bw);
                prop_assert_eq!(
                    fast.to_bits(),
                    reference.to_bits(),
                    "word kernel {} != lockstep walk {} for {} -> {} ({} MB)",
                    fast, reference, src, dst, v
                );
            }
        }
    }

    #[test]
    fn transfer_schedules_are_feasible_and_near_optimal(
        a in arb_procset(), b in arb_procset(), vol in 0.0..500.0f64
    ) {
        let bw = 12.5;
        let m = RedistributionMatrix::compute(
            &Distribution::block_cyclic(&a),
            &Distribution::block_cyclic(&b),
            vol,
        );
        let s = TransferSchedule::build(&m, bw);
        // Volume conservation.
        prop_assert!((s.total_volume() - m.nonlocal_volume()).abs() <= 1e-9 * vol.max(1.0));
        // Single-port feasibility.
        for (i, x) in s.ops.iter().enumerate() {
            prop_assert!(x.end >= x.start);
            for y in &s.ops[i + 1..] {
                let shared = x.src == y.src || x.src == y.dst
                    || x.dst == y.src || x.dst == y.dst;
                if shared {
                    prop_assert!(
                        x.end <= y.start + 1e-9 || y.end <= x.start + 1e-9,
                        "endpoint double-booked: {x:?} vs {y:?}"
                    );
                }
            }
        }
        // Sandwiched by the busy bound and LPT's 2-approximation.
        let bound = m.single_port_time(bw);
        prop_assert!(s.duration + 1e-9 >= bound);
        prop_assert!(s.duration <= 2.0 * bound + 1e-9);
    }

    #[test]
    fn wider_groups_never_slow_the_paper_estimate(
        vol in 1.0..500.0f64, p in 1usize..32, q in 1usize..32
    ) {
        let bw = 12.5;
        let base = aggregate_edge_cost(vol, p, q, bw);
        prop_assert!(aggregate_edge_cost(vol, p + 1, q, bw) <= base + 1e-12);
        prop_assert!(aggregate_edge_cost(vol, p, q + 1, bw) <= base + 1e-12);
    }
}
