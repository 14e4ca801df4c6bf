//! Property-based tests for processor sets and redistribution.

use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use serde::Serialize;

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

/// `ProcSet` as it was before it kept two words inline: a plain
/// `Vec<u64>` bitmap. The inline-or-heap set must match it in every
/// observable: its JSON, its words, its members, equality and hashing.
#[derive(Debug, Clone, Default, Serialize)]
struct VecSet {
    words: Vec<u64>,
}

impl VecSet {
    fn insert(&mut self, p: u32) {
        let w = p as usize / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (p % 64);
    }

    fn remove(&mut self, p: u32) {
        if let Some(word) = self.words.get_mut(p as usize / 64) {
            *word &= !(1 << (p % 64));
        }
    }

    fn union_with(&mut self, other: &VecSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    fn difference_with(&mut self, other: &VecSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    fn intersection(&self, other: &VecSet) -> VecSet {
        let n = self.words.len().min(other.words.len());
        VecSet {
            words: (0..n).map(|i| self.words[i] & other.words[i]).collect(),
        }
    }

    fn difference(&self, other: &VecSet) -> VecSet {
        let mut d = self.clone();
        d.difference_with(other);
        d
    }

    fn members(&self) -> Vec<u32> {
        (0..self.words.len() * 64)
            .filter(|&i| self.words[i / 64] & (1 << (i % 64)) != 0)
            .map(|i| i as u32)
            .collect()
    }

    /// The words without their trailing zeros: what `==` and `Hash` see.
    fn significant(&self) -> &[u64] {
        let end = self
            .words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |i| i + 1);
        &self.words[..end]
    }

    fn hash_value(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.significant().hash(&mut h);
        h.finish()
    }
}

fn hash_of(s: &ProcSet) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// Checks one set against its reference.
fn agrees(s: &ProcSet, r: &VecSet) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        serde_json::to_string(s).unwrap(),
        serde_json::to_string(r).unwrap()
    );
    prop_assert_eq!(s.words(), r.words.as_slice());
    prop_assert_eq!(s.to_vec(), r.members());
    prop_assert_eq!(s.len(), r.members().len());
    prop_assert_eq!(s.is_empty(), r.members().is_empty());
    prop_assert_eq!(s.first(), r.members().first().copied());
    prop_assert_eq!(hash_of(s), r.hash_value());
    let back: ProcSet = serde_json::from_str(&serde_json::to_string(s).unwrap()).unwrap();
    prop_assert_eq!(
        back.words().len(),
        s.words().len(),
        "a round trip keeps every word"
    );
    prop_assert!(back == *s);
    Ok(())
}

/// Checks every pairwise query of two sets against their references.
fn pair_agrees(a: &ProcSet, b: &ProcSet, ra: &VecSet, rb: &VecSet) -> Result<(), TestCaseError> {
    prop_assert_eq!(a == b, ra.significant() == rb.significant());
    prop_assert_eq!(hash_of(a) == hash_of(b), ra.hash_value() == rb.hash_value());
    let inter = ra.intersection(rb).members();
    prop_assert_eq!(a.intersection_len(b), inter.len());
    prop_assert_eq!(a.is_disjoint(b), inter.is_empty());
    prop_assert_eq!(a.is_subset(b), ra.difference(rb).members().is_empty());
    agrees(&a.intersection(b), &ra.intersection(rb))?;
    agrees(&a.difference(b), &ra.difference(rb))?;
    let mut union = ra.clone();
    union.union_with(rb);
    agrees(&a.union(b), &union)
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

    /// Three registers of sets over ids `0..256` (0–4 words) go through a
    /// random program of set operations, each mirrored on the `Vec<u64>`
    /// reference. Ids below and above 128 move the sets between the inline
    /// and the heap form in both directions: `insert` spills, `intersection`
    /// and `clone_from` of a narrow set come back inline (or keep a heap
    /// buffer), `clear` empties either form, and `remove` leaves trailing
    /// zero words behind.
    #[test]
    fn inline_words_match_the_vec_reference(
        program in proptest::collection::vec((0u8..10, 0usize..3, 0usize..3, 0u32..256), 1..48)
    ) {
        let mut sets = [ProcSet::new(), ProcSet::new(), ProcSet::new()];
        let mut refs = [VecSet::default(), VecSet::default(), VecSet::default()];
        for (op, i, j, id) in program {
            // Low ids most of the time, so inline sets are common.
            let id = if id % 4 == 0 { id } else { id % 128 };
            let (src, rsrc) = (sets[j].clone(), refs[j].clone());
            match op {
                0 | 1 => {
                    sets[i].insert(id);
                    refs[i].insert(id);
                }
                2 => {
                    sets[i].remove(id);
                    refs[i].remove(id);
                }
                3 => {
                    sets[i].clear();
                    refs[i].words.clear();
                }
                4 => {
                    sets[i].clone_from(&src);
                    refs[i].clone_from(&rsrc);
                }
                5 => {
                    sets[i].union_with(&src);
                    refs[i].union_with(&rsrc);
                }
                6 => {
                    sets[i].difference_with(&src);
                    refs[i].difference_with(&rsrc);
                }
                7 => {
                    sets[i] = sets[i].intersection(&src);
                    refs[i] = refs[i].intersection(&rsrc);
                }
                8 => {
                    sets[i] = sets[i].difference(&src);
                    refs[i] = refs[i].difference(&rsrc);
                }
                _ => {
                    sets[i] = serde_json::from_str(&serde_json::to_string(&sets[i]).unwrap()).unwrap();
                }
            }
            agrees(&sets[i], &refs[i])?;
            prop_assert_eq!(sets[i].contains(id), refs[i].members().contains(&id));
            pair_agrees(&sets[i], &sets[j], &refs[i], &refs[j])?;
        }
    }

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
        let prefix: ProcSet = if a.len() <= keep {
            a.clone()
        } else {
            a.iter().take(keep).collect()
        };
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
