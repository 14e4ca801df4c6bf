//! The baseline schedulers the paper compares LoC-MPS against (§IV):
//!
//! * [`TaskParallel`] — **TASK**: one processor per task, scheduled with
//!   the locality conscious backfill scheduler;
//! * [`DataParallel`] — **DATA**: every task on all `P` processors, run in
//!   sequence; identical block-cyclic layouts mean no redistribution cost;
//! * [`Cpr`] — **CPR** (Radulescu et al., IPDPS 2001): single-step critical
//!   path reduction that widens critical-path tasks and keeps only strict
//!   makespan improvements;
//! * [`Cpa`] — **CPA** (Radulescu & van Gemund, ICPP 2001): a two-phase
//!   scheme — a cheap allocation loop balancing critical-path length
//!   against average processor area, followed by list scheduling;
//! * [`OnlineMoldable`] — **PS-ONLINE** (Perotin & Sun, 2023): an online
//!   moldable allocator — capped local molding plus greedy earliest-start
//!   placement — with proven constant competitive ratios against the
//!   zero-communication lower bound;
//! * the **iCASLB** baseline (the authors' own prior work) is LoC-MPS with
//!   the communication model disabled and lives in `locmps-core`
//!   ([`locmps_core::LocMpsConfig::icaslb`]).
//!
//! CPR, CPA, TSAS and PS-ONLINE model inter-task communication with the
//! aggregate-bandwidth estimate but are *not locality aware*: they place
//! tasks on the earliest-available processors via the [`listsched`] plain
//! list scheduler
//! (no backfilling, no data-locality subset selection), exactly the
//! distinction the paper draws in §IV ("they do not use a locality aware
//! scheduling algorithm").
#![deny(missing_docs)]

pub mod cpa;
pub mod cpr;
pub mod listsched;
pub mod online;
pub mod taskdata;
pub mod tsas;

pub use cpa::Cpa;
pub use cpr::Cpr;
pub use listsched::{PlainListScheduler, ReadyRule};
pub use online::OnlineMoldable;
pub use taskdata::{DataParallel, TaskParallel};
pub use tsas::Tsas;

#[cfg(test)]
mod proptests;
