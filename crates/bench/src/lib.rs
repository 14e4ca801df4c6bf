//! Experiment harness regenerating every figure of the paper's evaluation
//! (§IV). See DESIGN.md §3 for the figure-by-figure index.
//!
//! The harness separates *planning* from *execution*: each scheduler
//! produces a [`SchedulerOutput`](locmps_core::SchedulerOutput) under its
//! own planning model, and the discrete-event simulator replays it under
//! the **true** communication model — so communication-blind schemes
//! (iCASLB) and locality-oblivious ones (CPR, CPA) pay their real costs,
//! exactly as the paper's simulation methodology demands.
//!
//! Results are reported as the paper's *relative performance*:
//! `makespan(LoC-MPS) / makespan(X)`, averaged over a graph suite; values
//! below 1 mean scheme `X` trails LoC-MPS.
#![deny(missing_docs)]

pub mod campaign;
pub mod experiments;
pub mod report;
pub mod runner;

pub use report::Table;
pub use runner::{relative_performance, run_suite, RunMeasurement, SuiteResult};
