//! The homogeneous cluster model of §II.

use serde::{Deserialize, Serialize};

/// Whether computation and communication overlap on this system.
///
/// The paper's primary model assumes full overlap ("most clusters today are
/// equipped with high performance interconnects which provide asynchronous
/// communication calls"); Figures 8(b)/11 evaluate the no-overlap case where
/// communication involves I/O at the endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommOverlap {
    /// Transfers proceed concurrently with computation on the endpoints.
    Full,
    /// The receiving processors are busy during redistribution: transfer
    /// time adds to the task's occupancy of its processor set.
    None,
}

/// The largest processor count [`Cluster::try_new`] accepts: 4,096.
///
/// Scheduling cost grows with `P` even when the graph is small: each task's
/// best width is a scan over every width, a processor group is a bitmap of
/// `⌈P/64⌉` words, and the resource chart keeps state per processor. A
/// 12-task LoC-MPS schedule took 0.6 s at `P = 4,096`, 9.8 s at
/// `P = 65,536` and did not finish in two minutes at `P = 2^20` (one
/// 2-vCPU guest). 4,096 is 32 times the largest cluster the paper or any
/// test or benchmark here schedules (`P ≤ 130`) and keeps such a request
/// under a second.
pub const MAX_PROCS: usize = 4096;

/// Why [`Cluster::try_new`] refused a cluster description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterError {
    /// Zero processors.
    NoProcessors,
    /// More than [`MAX_PROCS`] processors (the requested count).
    TooManyProcessors(usize),
    /// A bandwidth that is NaN, infinite, zero or negative.
    BadBandwidth,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NoProcessors => write!(f, "procs must be >= 1"),
            ClusterError::TooManyProcessors(n) => {
                write!(f, "procs must be <= {MAX_PROCS}, got {n}")
            }
            ClusterError::BadBandwidth => write!(f, "bandwidth must be finite and > 0"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// A homogeneous compute cluster: `P` identical nodes on a network of
/// uniform per-link bandwidth, single-port model (each node participates in
/// at most one transfer per time step).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    /// Number of processors `P`.
    pub n_procs: usize,
    /// Per-link bandwidth in MB/s (the paper's synthetic setup uses a
    /// 100 Mbit/s fast ethernet ⇒ 12.5 MB/s).
    pub bandwidth: f64,
    /// Computation/communication overlap regime.
    pub overlap: CommOverlap,
    /// Block size of the block-cyclic layouts, in MB of payload per block.
    /// Only the *ratio* of volumes matters for redistribution patterns; the
    /// default (1.0) keeps volumes and block counts aligned.
    pub block_mb: f64,
}

impl Cluster {
    /// A fully-overlapped cluster with the given size and bandwidth, or why
    /// it cannot exist: `1 ≤ n_procs ≤ MAX_PROCS` and a finite bandwidth
    /// above zero. Every size or bandwidth from outside the program (CLI
    /// flags, daemon requests, the daemon's journal) enters through here.
    pub fn try_new(n_procs: usize, bandwidth: f64) -> Result<Self, ClusterError> {
        if n_procs == 0 {
            return Err(ClusterError::NoProcessors);
        }
        if n_procs > MAX_PROCS {
            return Err(ClusterError::TooManyProcessors(n_procs));
        }
        if !bandwidth.is_finite() || bandwidth <= 0.0 {
            return Err(ClusterError::BadBandwidth);
        }
        Ok(Self {
            n_procs,
            bandwidth,
            overlap: CommOverlap::Full,
            block_mb: 1.0,
        })
    }

    /// [`Cluster::try_new`] for sizes and bandwidths fixed in the program.
    ///
    /// # Panics
    /// Panics where [`Cluster::try_new`] returns an error.
    pub fn new(n_procs: usize, bandwidth: f64) -> Self {
        match Self::try_new(n_procs, bandwidth) {
            Ok(cluster) => cluster,
            Err(e) => panic!("invalid cluster: {e}"),
        }
    }

    /// Same cluster with the no-overlap communication regime.
    pub fn without_overlap(mut self) -> Self {
        self.overlap = CommOverlap::None;
        self
    }

    /// The paper's synthetic-experiment network: 100 Mbps fast ethernet.
    pub fn fast_ethernet(n_procs: usize) -> Self {
        Self::new(n_procs, 12.5)
    }

    /// A 2 Gbps Myrinet-like interconnect (the paper's application testbed).
    pub fn myrinet(n_procs: usize) -> Self {
        Self::new(n_procs, 250.0)
    }
}

/// The paper's aggregate communication-cost estimate for an edge (§III.B):
///
/// `wt(e_ij) = d_ij / bw_ij`, with `bw_ij = min(np(t_i), np(t_j)) ·
/// bandwidth` — widening either endpoint raises the degree of parallel
/// transfer.
///
/// `volume` in MB, result in seconds. Zero volume costs zero regardless of
/// allocations.
pub fn aggregate_edge_cost(volume: f64, np_src: usize, np_dst: usize, bandwidth: f64) -> f64 {
    if volume <= 0.0 {
        return 0.0;
    }
    let lanes = np_src.min(np_dst).max(1) as f64;
    volume / (lanes * bandwidth)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let c = Cluster::fast_ethernet(32);
        assert_eq!(c.n_procs, 32);
        assert_eq!(c.bandwidth, 12.5);
        assert_eq!(c.overlap, CommOverlap::Full);
        assert_eq!(Cluster::myrinet(8).bandwidth, 250.0);
        assert_eq!(
            Cluster::new(4, 1.0).without_overlap().overlap,
            CommOverlap::None
        );
    }

    #[test]
    #[should_panic(expected = "procs must be >= 1")]
    fn zero_procs_panics() {
        Cluster::new(0, 1.0);
    }

    #[test]
    fn try_new_refuses_what_cannot_be_scheduled() {
        assert_eq!(Cluster::try_new(0, 1.0), Err(ClusterError::NoProcessors));
        assert_eq!(
            Cluster::try_new(100_000_000_000, 1.0),
            Err(ClusterError::TooManyProcessors(100_000_000_000))
        );
        assert_eq!(
            Cluster::try_new(MAX_PROCS, 1.0).map(|c| c.n_procs),
            Ok(MAX_PROCS)
        );
        for bw in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
            assert_eq!(Cluster::try_new(4, bw), Err(ClusterError::BadBandwidth));
        }
        assert_eq!(Cluster::try_new(4, 12.5), Ok(Cluster::new(4, 12.5)));
    }

    #[test]
    fn serde_round_trip() {
        let c = Cluster::fast_ethernet(64).without_overlap();
        let json = serde_json::to_string(&c).unwrap();
        let back: Cluster = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn aggregate_cost_matches_formula() {
        // 100 MB between a 4-proc producer and a 2-proc consumer at 12.5
        // MB/s: bw = 2 * 12.5 = 25 MB/s -> 4 s.
        assert!((aggregate_edge_cost(100.0, 4, 2, 12.5) - 4.0).abs() < 1e-12);
        // Widening the narrow side halves the cost.
        assert!((aggregate_edge_cost(100.0, 4, 4, 12.5) - 2.0).abs() < 1e-12);
        // Widening the wide side does nothing.
        assert!((aggregate_edge_cost(100.0, 8, 2, 12.5) - 4.0).abs() < 1e-12);
        assert_eq!(aggregate_edge_cost(0.0, 1, 1, 12.5), 0.0);
    }
}
