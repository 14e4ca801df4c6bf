//! The paper's contribution: **LoC-MPS**, a locality conscious processor
//! allocation and scheduling algorithm for mixed-parallel applications
//! (Vydyanathan et al., IEEE CLUSTER 2006, §III), together with its
//! **LoCBS** locality-conscious backfill scheduler.
//!
//! ## Module map
//!
//! * [`allocation`] — per-task processor counts `np(t)` and area accounting;
//! * [`schedule`] — the [`Schedule`] produced by every scheduler in this
//!   workspace, its legality checker ([`Schedule::violations`], behind
//!   both `validate` and the analyzer's `LM1xx` diagnostics) and a text
//!   Gantt renderer;
//! * [`commcost`] — the communication-cost model: the paper's aggregate
//!   estimate for planning and the exact block-cyclic single-port transfer
//!   time for placement, with a *communication-blind* switch that turns the
//!   whole model off (that switch **is** the iCASLB baseline of §IV);
//! * [`timeline`] — the 2-D (processors × time) resource chart with hole
//!   enumeration for backfilling;
//! * [`locality`] — scoring of candidate processors by resident input data;
//! * [`locbs`] — Algorithm 2: priority-driven, locality-conscious backfill
//!   scheduling, producing the schedule plus the pseudo-edge schedule-DAG;
//! * [`locmps`] — Algorithm 1: the iterative allocation refinement with
//!   computation/communication domination, best-candidate selection
//!   (execution-time gain + concurrency ratio), heaviest-edge widening,
//!   bounded look-ahead and marking;
//! * [`bounds`] — simple makespan lower bounds used by tests and reports.
#![deny(missing_docs)]

pub mod allocation;
pub mod bounds;
pub mod commcost;
pub mod invariant;
pub mod locality;
pub mod locbs;
pub mod locmps;
pub mod residual;
pub mod schedule;
pub mod timeline;

mod scheduler;

pub use allocation::Allocation;
pub use bounds::{allocation_lower_bound, makespan_lower_bound, WideningBounds};
pub use commcost::CommModel;
pub use locbs::{Locbs, LocbsOptions, LocbsResult, LocbsScratch, PassWork, PlacementLog};
pub use locmps::{LocMps, LocMpsConfig};
pub use residual::ResidualDag;
pub use schedule::{GanttOptions, Schedule, ScheduleError, ScheduledTask};
pub use scheduler::{ReportedCounter, SchedError, Scheduler, SchedulerOutput, SearchCounters};

#[cfg(test)]
mod paper_figures;
#[cfg(test)]
mod proptests;
