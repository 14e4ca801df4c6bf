//! The execution-platform model of the paper (§II): a homogeneous compute
//! cluster with a single-port communication model and block-cyclic data
//! layouts.
//!
//! * [`ProcSet`] — a compact bitset of processor ids, the currency of all
//!   mapping decisions (unions/intersections drive the locality logic);
//! * [`Cluster`] — processor count, network bandwidth, and whether
//!   computation and communication overlap (the paper evaluates both);
//! * [`Distribution`] / [`RedistributionMatrix`] — block-cyclic data layouts
//!   and the exact redistribution volume matrix between two layouts, after
//!   Prylli & Tourancheau's fast runtime block-cyclic redistribution \[13\]:
//!   the communication pattern is periodic with period `lcm(p, q)` blocks,
//!   so one period determines the exact per-processor-pair volumes;
//! * single-port transfer-time bounds and the paper's aggregate-bandwidth
//!   estimate `wt(e) = d / (min(np_i, np_j) · bandwidth)` (§III.B).
#![deny(missing_docs)]

mod blockcyclic;
mod cluster;
mod procset;
mod transfers;

pub use blockcyclic::{redistribution_time, Distribution, RedistributionMatrix};
pub use cluster::{aggregate_edge_cost, Cluster, ClusterError, CommOverlap, MAX_PROCS};
pub use procset::{ProcId, ProcSet};
pub use transfers::{TransferOp, TransferSchedule};

#[cfg(test)]
mod proptests;
