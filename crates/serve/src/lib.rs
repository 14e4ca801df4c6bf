//! **Scheduler-as-a-service**: a long-running, multi-tenant front end for
//! the LoC-MPS scheduling library.
//!
//! The offline algorithms in `locmps-core` and the online runtime in
//! `locmps-runtime` are one-shot libraries; this crate makes them
//! *resident*. A daemon accepts task-graph submissions over a minimal
//! HTTP/1.1 + JSON protocol (std `TcpListener` only — no external
//! dependencies), schedules them on a worker pool, and keeps a cache of
//! finished schedules keyed by a canonical task-graph fingerprint so
//! near-identical DAG submissions are answered without recomputation.
//!
//! The crate is split so that scheduling never touches I/O:
//!
//! * [`run`] — the online-run path shared with `locmps run`: execute,
//!   audit, and learn from the trace;
//! * [`fingerprint`] — canonical task-graph/job fingerprints (cache keys);
//! * [`svc`] — the I/O-free service core: job table, schedule cache,
//!   per-tenant admission control and quotas, a bounded work queue with
//!   backpressure, a worker pool with retries/deadlines, and graceful
//!   drain;
//! * [`journal`] — the durable job journal: an append-only, fsync'd,
//!   checksummed record log that makes acknowledgements survive `kill -9`;
//! * [`health`] — the three-state load monitor behind graceful
//!   degradation and load shedding;
//! * [`chaos`] — seeded service-level fault injection (worker panics,
//!   slow passes) for the crash/overload test harness;
//! * [`http`] — a minimal HTTP/1.1 request parser / response writer;
//! * [`server`] — the TCP accept loop, request routing, structured
//!   per-request logging, and the shutdown endpoint.
//!
//! Scheduler names resolve through `locmps_baselines::registry`, the
//! table the CLI and the bench harness use too; its lookups are
//! re-exported here.
//!
//! See `docs/SERVE.md` for the wire protocol, durability and degradation
//! semantics, and README § Service for a curl-able walkthrough.
#![deny(missing_docs)]

pub mod chaos;
pub mod fingerprint;
pub mod health;
pub mod http;
pub mod journal;
pub mod run;
pub mod server;
pub mod svc;

pub use chaos::ChaosConfig;
pub use fingerprint::{graph_fingerprint, job_fingerprint};
pub use health::{degraded_fallback, HealthMonitor, HealthState};
pub use journal::{Journal, JournalError, Record, Replay};
pub use locmps_baselines::registry::{scheduler_by_name, scheduler_names};
pub use run::{run_and_audit, RunOutcome, RunSummary};
pub use server::{Server, ServerHandle};
pub use svc::{
    JobErrorKind, JobSpec, JobState, JobStatus, Mode, RunParams, ServeConfig, Service, Stats,
    SubmitAck, SubmitError, MAX_RETRY_DELAY_MS, RETRY_AFTER_SECS,
};
