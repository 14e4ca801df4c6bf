//! Block-cyclic data layouts and redistribution volumes.
//!
//! The paper (§IV) evaluates all schemes "using a block cyclic distribution
//! of data" and estimates redistribution volumes "using the fast runtime
//! block cyclic data redistribution algorithm presented in [13]" (Prylli &
//! Tourancheau). The key structural fact that makes the fast algorithm work
//! is that when an array distributed block-cyclically over `p` processors is
//! re-laid-out block-cyclically over `q` processors, the block→processor
//! mapping on both sides is periodic with period `lcm(p, q)` blocks, so the
//! per-processor-pair communication volumes are exactly determined by a
//! single period. [`RedistributionMatrix::compute`] implements that.

use serde::{Deserialize, Serialize};

use crate::procset::{ProcId, ProcSet};

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: usize, b: usize) -> usize {
    a / gcd(a, b) * b
}

/// A block-cyclic distribution of a data object over an ordered processor
/// group: block `i` lives on `procs[i mod p]`.
///
/// The *order* of the group matters for which data lands where; the
/// canonical constructor sorts by processor id (deterministic and matching
/// how processor groups are formed by the schedulers).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Distribution {
    procs: Vec<ProcId>,
}

impl Distribution {
    /// Canonical block-cyclic distribution over a processor set (ascending
    /// id order).
    pub fn block_cyclic(procs: &ProcSet) -> Self {
        let v = procs.to_vec();
        assert!(!v.is_empty(), "a distribution needs at least one processor");
        Self { procs: v }
    }

    /// Distribution with an explicit processor order.
    pub fn from_ordered(procs: Vec<ProcId>) -> Self {
        assert!(
            !procs.is_empty(),
            "a distribution needs at least one processor"
        );
        Self { procs }
    }

    /// Group size `p`.
    pub fn n_procs(&self) -> usize {
        self.procs.len()
    }

    /// The ordered processor group.
    pub fn procs(&self) -> &[ProcId] {
        &self.procs
    }

    /// The group as a set.
    pub fn proc_set(&self) -> ProcSet {
        self.procs.iter().copied().collect()
    }

    /// Fraction of the object resident on physical processor `p` (0 if not
    /// in the group; `k/p` where `k` is the number of group slots `p`
    /// occupies — normally `1/p`).
    pub fn share(&self, p: ProcId) -> f64 {
        let slots = self.procs.iter().filter(|&&q| q == p).count();
        slots as f64 / self.procs.len() as f64
    }
}

/// Exact redistribution volumes between two block-cyclic layouts.
///
/// `volume(i, j)` is the number of MB that must move from the `i`-th
/// processor of the source group to the `j`-th processor of the destination
/// group; transfers between *the same physical processor* are local and
/// free.
#[derive(Debug, Clone, PartialEq)]
pub struct RedistributionMatrix {
    src: Vec<ProcId>,
    dst: Vec<ProcId>,
    /// Row-major `p × q` volumes.
    vol: Vec<f64>,
    total: f64,
}

impl RedistributionMatrix {
    /// Computes the exact volume matrix for redistributing `total_volume`
    /// MB from `src` to `dst` layout.
    ///
    /// One `lcm(p, q)`-block period determines the pattern; the data volume
    /// is spread uniformly over the period (the continuous approximation is
    /// exact whenever the block count is a multiple of the period, and
    /// within one block's volume otherwise — the regime the fast runtime
    /// algorithm [13] targets).
    pub fn compute(src: &Distribution, dst: &Distribution, total_volume: f64) -> Self {
        let p = src.n_procs();
        let q = dst.n_procs();
        let period = lcm(p, q);
        let mut vol = vec![0.0; p * q];
        if total_volume > 0.0 {
            let per_block = total_volume / period as f64;
            for k in 0..period {
                vol[(k % p) * q + (k % q)] += per_block;
            }
        }
        Self {
            src: src.procs().to_vec(),
            dst: dst.procs().to_vec(),
            vol,
            total: total_volume.max(0.0),
        }
    }

    /// The ordered source processor group.
    pub fn src_procs(&self) -> &[ProcId] {
        &self.src
    }

    /// The ordered destination processor group.
    pub fn dst_procs(&self) -> &[ProcId] {
        &self.dst
    }

    /// Volume moving from source slot `i` to destination slot `j`.
    pub fn volume(&self, i: usize, j: usize) -> f64 {
        self.vol[i * self.dst.len() + j]
    }

    /// Total redistributed volume (local + remote).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Volume that stays on the same physical processor (no transfer).
    pub fn local_volume(&self) -> f64 {
        let mut local = 0.0;
        for (i, &s) in self.src.iter().enumerate() {
            for (j, &d) in self.dst.iter().enumerate() {
                if s == d {
                    local += self.volume(i, j);
                }
            }
        }
        local
    }

    /// Volume that must cross the network.
    pub fn nonlocal_volume(&self) -> f64 {
        self.total - self.local_volume()
    }

    /// Single-port redistribution time at `bandwidth` MB/s per link.
    ///
    /// Under the single-port model a node's busy time is at least
    /// `(bytes sent + bytes received)/bandwidth` (local volume excluded);
    /// by König's edge-coloring theorem a preemptive schedule attains the
    /// maximum of that bound over all nodes, which is what we return.
    pub fn single_port_time(&self, bandwidth: f64) -> f64 {
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        // BTreeMap, not HashMap: the fold below is order-insensitive
        // today, but iteration on a schedule-producing path must stay
        // deterministic by construction (LX010).
        use std::collections::BTreeMap;
        let mut busy: BTreeMap<ProcId, f64> = BTreeMap::new();
        for (i, &s) in self.src.iter().enumerate() {
            for (j, &d) in self.dst.iter().enumerate() {
                if s != d {
                    let v = self.volume(i, j);
                    if v > 0.0 {
                        *busy.entry(s).or_default() += v;
                        *busy.entry(d).or_default() += v;
                    }
                }
            }
        }
        busy.values().fold(0.0f64, |a, &b| a.max(b)) / bandwidth
    }
}

/// Convenience: exact single-port redistribution time between canonical
/// block-cyclic layouts on two processor sets.
///
/// Uses the closed form of the `lcm` cycle instead of materializing the
/// matrix: a slot pair `(i, j)` communicates iff `i ≡ j (mod gcd(p, q))`
/// (Chinese remainder theorem), and then carries exactly `volume / lcm`,
/// so each source slot sends `volume/p` in total and each destination slot
/// receives `volume/q`; locality discounts apply only to physical
/// processors present in both groups. It costs a few popcounts over the
/// bitmap words, none for zero volume; LoCBS prices every candidate subset
/// with it, and LoC-MPS every edge it weighs.
///
/// # Examples
/// ```
/// use locmps_platform::{redistribution_time, ProcSet};
///
/// let src = ProcSet::all(2);                       // {0, 1}
/// let dst: ProcSet = [4u32, 5].into_iter().collect();
/// // Disjoint equal-size groups move everything, two lanes in parallel:
/// // 100 MB / (2 × 12.5 MB/s) = 4 s.
/// let t = redistribution_time(&src, &dst, 100.0, 12.5);
/// assert!((t - 4.0).abs() < 1e-9);
/// // The same layout costs nothing.
/// assert_eq!(redistribution_time(&src, &src, 100.0, 12.5), 0.0);
/// ```
pub fn redistribution_time(src: &ProcSet, dst: &ProcSet, volume: f64, bandwidth: f64) -> f64 {
    if volume <= 0.0 {
        return 0.0;
    }
    let (p, q) = (src.len(), dst.len());
    if p == 0 || q == 0 {
        return 0.0;
    }
    let g = gcd(p, q);
    let per_pair = volume / lcm(p, q) as f64;

    // Busy time per physical node: sent + received, minus local pairs. A
    // send-only node is busy `volume/p`, a receive-only node `volume/q`,
    // and a shared node both, less `2·per_pair` when its send and receive
    // slots talk to each other (that volume never touches the network).
    // `max` is order-independent, so one value per kind of node will do.
    let shared = src.intersection_len(dst);
    let mut max_busy = 0.0f64;
    if shared > 0 {
        max_busy = volume / p as f64 + volume / q as f64;
        if g == 1 || shared_slots_aligned(src.words(), dst.words(), g) {
            max_busy -= 2.0 * per_pair;
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

/// Whether every node in both bitmaps holds slots `i ≡ j (mod g)`. A
/// node's slot counts the members below it: the popcount of the lower bits
/// in its word plus the members of earlier words. Stops at the first
/// misaligned node, which alone sets the maximum busy time.
fn shared_slots_aligned(a: &[u64], b: &[u64], g: usize) -> bool {
    let (mut base_i, mut base_j) = (0usize, 0usize);
    for (&wa, &wb) in a.iter().zip(b) {
        let mut both = wa & wb;
        while both != 0 {
            let below = (both & both.wrapping_neg()) - 1;
            let i = base_i + (wa & below).count_ones() as usize;
            let j = base_j + (wb & below).count_ones() as usize;
            if i % g != j % g {
                return false;
            }
            both &= both - 1;
        }
        base_i += wa.count_ones() as usize;
        base_j += wb.count_ones() as usize;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> ProcSet {
        ids.iter().copied().collect()
    }

    #[test]
    fn identical_layout_is_all_local() {
        let d = Distribution::block_cyclic(&set(&[0, 1, 2, 3]));
        let m = RedistributionMatrix::compute(&d, &d, 100.0);
        assert!((m.local_volume() - 100.0).abs() < 1e-9);
        assert!(m.nonlocal_volume().abs() < 1e-9);
        assert_eq!(m.single_port_time(12.5), 0.0);
    }

    #[test]
    fn disjoint_groups_move_everything() {
        let s = Distribution::block_cyclic(&set(&[0, 1]));
        let d = Distribution::block_cyclic(&set(&[2, 3]));
        let m = RedistributionMatrix::compute(&s, &d, 100.0);
        assert!((m.nonlocal_volume() - 100.0).abs() < 1e-9);
        // lcm(2,2)=2: proc 0 -> proc 2 (50), proc 1 -> proc 3 (50); each
        // node busy 50 MB -> 4 s at 12.5 MB/s.
        assert!((m.single_port_time(12.5) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn one_to_many_spreads_data() {
        let s = Distribution::block_cyclic(&set(&[0]));
        let d = Distribution::block_cyclic(&set(&[0, 1, 2, 3]));
        let m = RedistributionMatrix::compute(&s, &d, 80.0);
        // 1/4 stays on proc 0, the rest fans out 20 MB each.
        assert!((m.local_volume() - 20.0).abs() < 1e-9);
        assert!((m.nonlocal_volume() - 60.0).abs() < 1e-9);
        // Sender busy 60 MB; receivers 20 each: bottleneck is the sender.
        assert!((m.single_port_time(10.0) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn volume_is_conserved() {
        let s = Distribution::block_cyclic(&set(&[0, 1, 2]));
        let d = Distribution::block_cyclic(&set(&[1, 2, 3, 4]));
        let m = RedistributionMatrix::compute(&s, &d, 55.0);
        let sum: f64 = (0..3)
            .flat_map(|i| (0..4).map(move |j| (i, j)))
            .map(|(i, j)| m.volume(i, j))
            .sum();
        assert!((sum - 55.0).abs() < 1e-9);
        assert!((m.local_volume() + m.nonlocal_volume() - 55.0).abs() < 1e-9);
    }

    #[test]
    fn lcm_period_pattern_2_to_3() {
        // p=2 {0,1}, q=3 {0,1,2}: period 6; blocks k: src k%2, dst k%3.
        // pairs: (0,0),(1,1),(0,2),(1,0),(0,1),(1,2) — each 1/6 of volume.
        let s = Distribution::block_cyclic(&set(&[0, 1]));
        let d = Distribution::block_cyclic(&set(&[0, 1, 2]));
        let m = RedistributionMatrix::compute(&s, &d, 60.0);
        assert!((m.volume(0, 0) - 10.0).abs() < 1e-9);
        assert!((m.volume(0, 1) - 10.0).abs() < 1e-9);
        assert!((m.volume(0, 2) - 10.0).abs() < 1e-9);
        assert!((m.volume(1, 0) - 10.0).abs() < 1e-9);
        // local: (0,0) and (1,1) = 20.
        assert!((m.local_volume() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn aligned_overlapping_groups_keep_shared_data_local() {
        // Shrinking {0,1,2,3} -> {0,1}: lcm 4, blocks map (0->0),(1->1),
        // (2->0),(3->1): the halves already on 0 and 1 stay put.
        let a = set(&[0, 1, 2, 3]);
        let b = set(&[0, 1]);
        let m = RedistributionMatrix::compute(
            &Distribution::block_cyclic(&a),
            &Distribution::block_cyclic(&b),
            100.0,
        );
        assert!((m.local_volume() - 50.0).abs() < 1e-9);
        assert!((m.nonlocal_volume() - 50.0).abs() < 1e-9);
        // Completely disjoint same-size target moves strictly more.
        let c = set(&[4, 5]);
        let m2 = RedistributionMatrix::compute(
            &Distribution::block_cyclic(&a),
            &Distribution::block_cyclic(&c),
            100.0,
        );
        assert!(m2.nonlocal_volume() > m.nonlocal_volume());
    }

    #[test]
    fn shifted_equal_size_groups_have_no_locality() {
        // {0,1,2,3} -> {2,3,4,5}: slot alignment shifts, so even the shared
        // physical processors 2 and 3 receive *different* blocks than they
        // hold — block-cyclic redistribution moves everything.
        let a = set(&[0, 1, 2, 3]);
        let b = set(&[2, 3, 4, 5]);
        let m = RedistributionMatrix::compute(
            &Distribution::block_cyclic(&a),
            &Distribution::block_cyclic(&b),
            100.0,
        );
        assert_eq!(m.local_volume(), 0.0);
        assert!((m.nonlocal_volume() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn redistribution_time_convenience() {
        assert_eq!(
            redistribution_time(&set(&[0]), &set(&[0]), 100.0, 12.5),
            0.0
        );
        assert_eq!(redistribution_time(&set(&[0]), &set(&[1]), 0.0, 12.5), 0.0);
        let t = redistribution_time(&set(&[0]), &set(&[1]), 100.0, 12.5);
        assert!((t - 8.0).abs() < 1e-9);
    }

    #[test]
    fn share_accounting() {
        let d = Distribution::block_cyclic(&set(&[3, 7]));
        assert_eq!(d.share(3), 0.5);
        assert_eq!(d.share(7), 0.5);
        assert_eq!(d.share(0), 0.0);
        assert_eq!(d.n_procs(), 2);
    }
}
