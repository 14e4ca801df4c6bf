//! The I/O-free service core: everything the daemon does between parsing
//! a request and writing a response.
//!
//! * a **job table** with monotonically increasing ids;
//! * a **schedule cache** keyed by [`crate::job_fingerprint`]: finished
//!   results are shared (`Arc`) across jobs, and submissions that arrive
//!   while the same fingerprint is still being computed are *coalesced*
//!   onto the in-flight computation — a fingerprint is never scheduled
//!   twice;
//! * **per-tenant admission control**: each tenant may hold at most
//!   `tenant_quota` non-terminal jobs; excess submissions are rejected
//!   with a typed error (the HTTP layer maps it to 429);
//! * a **bounded work queue**: when `queue_cap` computations are already
//!   pending, new work is rejected (backpressure) instead of queued
//!   without bound;
//! * a **durable job journal** ([`crate::journal`], opt-in): every ack
//!   and every terminal transition is fsync'd before the caller sees it,
//!   so a `kill -9` loses at most the in-flight response —
//!   [`Service::start_with_journal`] replays, admits unfinished jobs
//!   again through the live admission path, and compacts on boot;
//! * **deadlines, retries and backoff**: a submission may carry a budget;
//!   panicking attempts are retried with capped exponential backoff (the
//!   same saturation discipline as the runtime engine's
//!   `MAX_RETRY_DELAY`) and finally failed with a typed
//!   [`JobErrorKind`];
//! * **graceful degradation** ([`crate::health`]): under pressure,
//!   expensive schedulers fall back to the cheap online-moldable
//!   baseline (results tagged `degraded`, excluded from the cache), and
//!   past the shed threshold submissions are refused with a typed
//!   overload error;
//! * **graceful drain**: [`Service::drain`] stops admission and blocks
//!   until every accepted job reached a terminal state, so a shutdown
//!   loses nothing that was acknowledged.
//!
//! All waiting is done with a `Mutex` + `Condvar` pair; worker threads
//! compute schedules outside the lock. The state lock is accessed only
//! through `Inner::lock_state`, which recovers from poisoning: a
//! panicking worker must not wedge the daemon (every critical section
//! leaves the state structurally consistent — see the accessor docs),
//! and the worker's own panic is caught and recorded as a `Failed` job
//! so drain never waits on a job nobody will finish.
//!
//! **Lock order**: journal before state (never the reverse). Writers take
//! the journal lock first so journal record order always agrees with the
//! state-commit order the records describe; the model-store lock is only
//! ever held on its own.

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use locmps_analysis::{analyze_service, ServiceSnapshot};
use locmps_baselines::registry::scheduler_by_name;
use locmps_platform::Cluster;
use locmps_runtime::{FaultPlan, OnlineConfig, PerfModelStore};
use locmps_taskgraph::TaskGraph;
use serde::{Deserialize, Serialize};

use crate::chaos::{self, ChaosConfig, ChaosDraw};
use crate::fingerprint::{graph_fingerprint, job_fingerprint};
use crate::health::{degraded_fallback, HealthMonitor, HealthState};
use crate::journal::{
    CacheRecord, Journal, JournalError, Record, Replay, SubmitRecord, TerminalRecord,
};
use crate::run::{resolve_run, run_and_audit, Dispatch};

/// Ceiling on the retry backoff — the same saturation discipline as the
/// runtime engine's `MAX_RETRY_DELAY`: `(base << attempt)` is capped here
/// so a large base or attempt count can neither overflow nor park a
/// worker for minutes.
pub const MAX_RETRY_DELAY_MS: u64 = 2_000;

/// The `Retry-After` hint (seconds) attached to shed submissions.
pub const RETRY_AFTER_SECS: u64 = 1;

/// Daemon sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads computing schedules.
    pub workers: usize,
    /// Maximum queued (not yet running) computations before submissions
    /// are rejected with backpressure.
    pub queue_cap: usize,
    /// Maximum non-terminal jobs one tenant may hold at once.
    pub tenant_quota: usize,
    /// How many times a panicking scheduling attempt is re-run before the
    /// job fails with [`JobErrorKind::RetriesExhausted`].
    pub max_retries: u32,
    /// Base backoff before the first re-run; doubles per attempt, capped
    /// at [`MAX_RETRY_DELAY_MS`].
    pub retry_backoff_ms: u64,
    /// Queue depth at which the health machine leaves `full`.
    pub degrade_queue: usize,
    /// Queue depth at which submissions are shed with a typed overload
    /// error (HTTP 429 + `Retry-After`).
    pub shed_queue: usize,
    /// p95 schedule latency (ms) at which the health machine degrades.
    pub degrade_p95_ms: f64,
    /// Master switch for overload handling: when `false` the health
    /// machine still reports, but nothing is degraded or shed (the
    /// overload bench compares the two).
    pub degradation: bool,
    /// Socket read timeout for connection threads (ms; `0` disables).
    /// Lives here so the service core and HTTP front end share one
    /// config, though only the server uses it.
    pub read_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_cap: 64,
            tenant_quota: 8,
            max_retries: 2,
            retry_backoff_ms: 20,
            degrade_queue: 16,
            shed_queue: 48,
            degrade_p95_ms: 400.0,
            degradation: true,
            read_timeout_ms: 10_000,
        }
    }
}

/// Online-run parameters of a `mode: "run"` job, journaled as the `run`
/// field of its submit record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunParams {
    /// Engine seed (duration noise).
    pub seed: u64,
    /// Coefficient of variation of the duration noise.
    pub exec_cv: f64,
    /// Dispatch policy: `plan`, `online` or `greedy`.
    pub policy: String,
    /// Recovery policy name (`failstop`, `retry`, `replan`, `hedged-…`).
    pub recovery: String,
    /// Fault script in the `--faults` grammar (empty for none).
    pub faults: String,
    /// Close the observation loop: seed a `remold` recovery with the
    /// daemon's shared performance-model store and ingest the trace back
    /// into it afterwards, so the daemon learns across jobs.
    pub adapt: bool,
}

impl Default for RunParams {
    fn default() -> Self {
        Self {
            seed: 0,
            exec_cv: 0.0,
            policy: "plan".into(),
            recovery: "failstop".into(),
            faults: String::new(),
            adapt: false,
        }
    }
}

/// What a job computes.
#[derive(Debug, Clone)]
pub enum Mode {
    /// Offline schedule only.
    Schedule,
    /// Offline schedule plus an online execution producing a trace.
    Run(RunParams),
}

/// One validated submission.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Submitting tenant (admission control key).
    pub tenant: String,
    /// The task graph to schedule.
    pub graph: TaskGraph,
    /// Cluster size.
    pub procs: usize,
    /// Link bandwidth (MB/s).
    pub bandwidth: f64,
    /// Scheduler name (see [`locmps_baselines::registry`]).
    pub algo: String,
    /// Offline-only or online run.
    pub mode: Mode,
    /// Optional budget: milliseconds from admission until the job must be
    /// done. An attempt finishing past the deadline fails the job with
    /// [`JobErrorKind::Deadline`] (recovered jobs get a fresh window).
    pub deadline_ms: Option<u64>,
}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum JobState {
    /// Waiting for a worker (or for the in-flight twin computation).
    Queued,
    /// A worker is computing it.
    Running,
    /// Finished; results are available.
    Done,
    /// The scheduler rejected it (the error text says why).
    Failed,
}

impl JobState {
    fn terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed)
    }

    /// Lower-case wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// Why a job failed — typed, JSON-visible, and stable on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobErrorKind {
    /// The scheduler returned a deterministic error (never retried).
    Scheduler,
    /// A scheduling attempt panicked and no retry was available.
    Panic,
    /// The job's deadline passed before a usable result existed.
    Deadline,
    /// Every retry of a panicking attempt panicked too.
    RetriesExhausted,
}

impl JobErrorKind {
    /// Lower-case wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobErrorKind::Scheduler => "scheduler",
            JobErrorKind::Panic => "panic",
            JobErrorKind::Deadline => "deadline",
            JobErrorKind::RetriesExhausted => "retries_exhausted",
        }
    }

    /// Parses a wire name (journal replay).
    pub fn from_wire(s: &str) -> Option<JobErrorKind> {
        Some(match s {
            "scheduler" => JobErrorKind::Scheduler,
            "panic" => JobErrorKind::Panic,
            "deadline" => JobErrorKind::Deadline,
            "retries_exhausted" => JobErrorKind::RetriesExhausted,
            _ => return None,
        })
    }
}

/// A status snapshot of one job.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Job id.
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Cache key.
    pub fingerprint: u64,
    /// Current state.
    pub state: JobState,
    /// Whether the result came from the schedule cache (hit or coalesced).
    pub cached: bool,
    /// Whether the job ran on the degraded fallback scheduler.
    pub degraded: bool,
    /// Failure message for [`JobState::Failed`].
    pub error: Option<String>,
    /// Typed failure kind for [`JobState::Failed`].
    pub error_kind: Option<JobErrorKind>,
    /// Planned makespan once done.
    pub makespan: Option<f64>,
}

/// Acknowledgement of an accepted submission.
#[derive(Debug, Clone, Copy)]
pub struct SubmitAck {
    /// The job id to poll.
    pub job_id: u64,
    /// The canonical cache key the submission mapped to.
    pub fingerprint: u64,
    /// `true` when a finished cache entry answered the submission
    /// immediately — the job is already `Done`.
    pub cached: bool,
    /// `true` when the submission was attached to an identical in-flight
    /// computation instead of being scheduled again.
    pub coalesced: bool,
    /// `true` when admission swapped in the degraded fallback scheduler.
    pub degraded: bool,
}

/// Why a submission was refused. The daemon maps these to HTTP statuses
/// (400 / 429 / 503); the service core stays transport-free.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The request itself is invalid (unknown algorithm, bad config…).
    Invalid(String),
    /// The tenant already holds `limit` non-terminal jobs.
    QuotaExceeded {
        /// The tenant at its limit.
        tenant: String,
        /// The configured quota.
        limit: usize,
    },
    /// The work queue is full; retry later.
    QueueFull {
        /// The configured queue bound.
        cap: usize,
    },
    /// The service is shedding load; retry after the hinted delay
    /// (HTTP: 429 + `Retry-After`).
    Overloaded {
        /// Suggested client backoff, seconds.
        retry_after_secs: u64,
    },
    /// The durable journal refused the submission record — nothing was
    /// admitted, so a retry is safe (HTTP: 503).
    Journal(String),
    /// The service is draining for shutdown and admits nothing new.
    Draining,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Invalid(msg) => write!(f, "invalid request: {msg}"),
            SubmitError::QuotaExceeded { tenant, limit } => {
                write!(f, "tenant {tenant:?} already holds {limit} active jobs")
            }
            SubmitError::QueueFull { cap } => {
                write!(f, "work queue is full ({cap} pending computations)")
            }
            SubmitError::Overloaded { retry_after_secs } => {
                write!(f, "service is shedding load; retry in {retry_after_secs}s")
            }
            SubmitError::Journal(msg) => write!(f, "journal append failed: {msg}"),
            SubmitError::Draining => write!(f, "service is draining; not accepting jobs"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Monotonic counters a `GET /v1/stats` reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct Stats {
    /// Jobs accepted (acked with a job id).
    pub submitted: u64,
    /// Jobs that reached `Done`.
    pub completed: u64,
    /// Jobs that reached `Failed`.
    pub failed: u64,
    /// Submissions answered by a finished cache entry.
    pub cache_hits: u64,
    /// Submissions that required a fresh computation.
    pub cache_misses: u64,
    /// Submissions attached to an identical in-flight computation.
    pub coalesced: u64,
    /// Submissions rejected by per-tenant quota.
    pub rejected_quota: u64,
    /// Submissions rejected by queue backpressure.
    pub rejected_queue: u64,
    /// Submissions refused because the daemon was shedding load.
    pub shed: u64,
    /// Jobs admitted on the degraded fallback scheduler.
    pub degraded_jobs: u64,
    /// Panicking scheduling attempts that were re-run.
    pub retried_attempts: u64,
    /// Jobs failed because their deadline passed.
    pub deadline_failures: u64,
    /// Non-terminal jobs re-admitted from the journal at the last boot.
    pub recovered_jobs: u64,
    /// Schedules actually computed by workers. Equal to
    /// `cache_misses` at quiescence in a journal-free run: a fingerprint
    /// is never computed twice (after a journal recovery, work done by
    /// the previous process makes this `<= cache_misses`).
    pub schedules_computed: u64,
}

/// The immutable output of one computed fingerprint, shared by every job
/// that mapped to it. JSON is rendered once, through the checked writer,
/// so cache hits are a string clone and the daemon can never emit a
/// non-finite float.
pub(crate) struct JobOutput {
    pub(crate) makespan: f64,
    pub(crate) result_json: Arc<String>,
    pub(crate) trace_json: Option<Arc<String>>,
}

struct Job {
    tenant: String,
    fingerprint: u64,
    state: JobState,
    cached: bool,
    degraded: bool,
    deadline: Option<Instant>,
    spec: Option<JobSpec>, // taken by the worker that computes it
    output: Option<Arc<JobOutput>>,
    error: Option<String>,
    error_kind: Option<JobErrorKind>,
    /// The journal form of this submission, retained (journaled services
    /// only) so compaction can rewrite the job without re-deriving it.
    submit_rec: Option<Box<SubmitRecord>>,
}

enum CacheEntry {
    /// Being computed by a worker; later identical submissions wait here.
    InFlight { waiters: Vec<u64> },
    /// Finished successfully.
    Done(Arc<JobOutput>),
}

// The job/cache/tenant tables are BTreeMaps although nothing iterates
// them today: any future iteration (an admin endpoint listing jobs, a
// cache eviction sweep) is then deterministic by construction instead of
// depending on HashMap's per-process random order (LX010).
#[derive(Default)]
struct State {
    next_id: u64,
    jobs: BTreeMap<u64, Job>,
    queue: VecDeque<u64>,
    cache: BTreeMap<u64, CacheEntry>,
    tenant_load: BTreeMap<String, usize>,
    active_jobs: usize,
    /// Computations currently on a worker (popped, not yet finalized).
    /// Part of the health machine's pressure signal: see
    /// [`HealthMonitor::assess`] for why running work must count.
    computing: usize,
    draining: bool,
    stats: Stats,
    health: HealthMonitor,
    chaos: ChaosConfig,
    chaos_draws: u64,
    /// Whether the last journal replay discarded a torn tail (LM341).
    journal_truncated: bool,
}

/// Where an admitted job's result comes from.
enum Route {
    /// A finished identical job: the job is done on admission.
    Hit(Arc<JobOutput>),
    /// An identical job still computing: the job waits for its result.
    Coalesce,
    /// A new computation. A degraded one runs the fallback scheduler and
    /// owns no cache entry.
    Fresh {
        /// Whether the job runs the degraded fallback.
        degraded: bool,
    },
}

impl State {
    /// The route of a job with fingerprint `fp`. A degraded job always
    /// computes afresh: its result never enters the shared cache, so it
    /// takes none from it either.
    fn route(&self, fp: u64, degraded: bool) -> Route {
        match self.cache.get(&fp) {
            _ if degraded => Route::Fresh { degraded },
            Some(CacheEntry::Done(out)) => Route::Hit(Arc::clone(out)),
            Some(CacheEntry::InFlight { .. }) => Route::Coalesce,
            None => Route::Fresh { degraded: false },
        }
    }

    /// Adds job `id` along `route` and counts it: the one admission of
    /// live submissions and journal replay alike, so a recovered job's
    /// deadline window opens at boot. A hit is done at once; any other job
    /// holds a tenant slot until it finishes, and a fresh one enters the
    /// queue.
    fn admit(
        &mut self,
        id: u64,
        spec: JobSpec,
        fp: u64,
        submit_rec: Option<Box<SubmitRecord>>,
        route: Route,
    ) {
        let mut job = Job {
            tenant: spec.tenant.clone(),
            fingerprint: fp,
            state: JobState::Queued,
            cached: true,
            degraded: false,
            deadline: spec
                .deadline_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
            spec: None,
            output: None,
            error: None,
            error_kind: None,
            submit_rec,
        };
        self.stats.submitted += 1;
        match route {
            Route::Hit(out) => {
                job.state = JobState::Done;
                job.output = Some(out);
                self.stats.completed += 1;
                self.stats.cache_hits += 1;
            }
            Route::Coalesce => {
                if let Some(CacheEntry::InFlight { waiters }) = self.cache.get_mut(&fp) {
                    waiters.push(id);
                }
                self.stats.coalesced += 1;
                self.stats.cache_hits += 1;
            }
            Route::Fresh { degraded } => {
                if !degraded {
                    self.cache
                        .insert(fp, CacheEntry::InFlight { waiters: vec![] });
                }
                job.cached = false;
                job.degraded = degraded;
                job.spec = Some(spec);
                self.queue.push_back(id);
                self.stats.cache_misses += 1;
            }
        }
        if !job.state.terminal() {
            *self.tenant_load.entry(job.tenant.clone()).or_insert(0) += 1;
            self.active_jobs += 1;
        }
        self.jobs.insert(id, job);
    }
}

struct Inner {
    state: Mutex<State>,
    /// Signals workers that the queue (or the draining flag) changed.
    work_cv: Condvar,
    /// Signals waiters that a job reached a terminal state.
    done_cv: Condvar,
    /// The daemon-wide performance-model store adaptive runs learn into.
    /// A separate lock from `state`: workers snapshot it before computing
    /// and ingest after, never holding it across the compute itself.
    model_store: Mutex<PerfModelStore>,
    /// The durable journal, absent for in-memory services. **Lock order:
    /// journal before state** — every writer takes this lock first, so
    /// the record order on disk always agrees with the state-commit order
    /// it describes.
    journal: Option<Mutex<Journal>>,
    /// The boot-time config: admission bounds, retry, backoff and health
    /// thresholds.
    cfg: ServeConfig,
}

impl Inner {
    /// Locks the service state, recovering from poisoning.
    ///
    /// A panic on a thread holding the lock poisons the mutex; every
    /// subsequent `lock().unwrap()` would then panic too, permanently
    /// wedging the daemon (no `/healthz`, no drain). Recovery is sound
    /// here because every critical section either only reads, or brings
    /// the state to a consistent point before any operation that could
    /// panic: the compute path runs outside the lock (and behind
    /// `catch_unwind`), so a poisoned guard can only come from a panic
    /// *between* state mutations, never half-way through one entry.
    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the journal (when present), with the same poison recovery as
    /// [`Self::lock_state`]. Call **before** `lock_state` — see the field
    /// docs for the lock order.
    fn lock_journal(&self) -> Option<MutexGuard<'_, Journal>> {
        self.journal
            .as_ref()
            .map(|j| j.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// `work_cv.wait` with the same poison recovery as [`Self::lock_state`].
    fn wait_work<'a>(&self, st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.work_cv
            .wait(st)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// `done_cv.wait` with the same poison recovery as [`Self::lock_state`].
    fn wait_done<'a>(&self, st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.done_cv
            .wait(st)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Re-assesses the health machine against current pressure:
    /// everything queued plus everything currently computing.
    fn assess_health(&self, st: &mut State) -> HealthState {
        let outstanding = st.queue.len() + st.computing;
        st.health.assess(
            outstanding,
            self.cfg.degrade_queue,
            self.cfg.shed_queue,
            self.cfg.degrade_p95_ms,
        )
    }
}

/// The resident scheduling service. Cloneable handle; the worker pool
/// lives until [`Service::shutdown`].
pub struct Service {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts the worker pool. `workers: 0` is admission-only — jobs are
    /// validated, fingerprinted and queued but never computed — which
    /// gives tests a deterministic view of quota and queue state (the
    /// daemon front end always runs with at least one worker).
    pub fn start(cfg: ServeConfig) -> Self {
        let state = State {
            queue: VecDeque::with_capacity(cfg.queue_cap),
            ..State::default()
        };
        Self::boot(cfg, state, None)
    }

    /// Starts a journaled service: replays `path`, admits again every
    /// acknowledged job that never reached a terminal state, compacts the
    /// log, and only then opens for business. Recovered jobs keep their
    /// original ids; deadlines restart from boot (wall clocks do not
    /// survive a crash).
    ///
    /// # Errors
    /// [`JournalError`] — unreadable file, or checksum-valid records that
    /// no longer decode (version skew). A merely *torn* journal is not an
    /// error: the tail is truncated and reported via `/v1/diagnostics`.
    pub fn start_with_journal(cfg: ServeConfig, path: &Path) -> Result<Self, JournalError> {
        let (journal, replay) = Journal::open(path)?;
        drop(journal); // `rewrite` below replaces the handle
        let state = replayed_state(&replay)?;
        let records = compaction_records(&state);
        let journal = Journal::rewrite(path, &records)?;
        Ok(Self::boot(cfg, state, Some(journal)))
    }

    fn boot(cfg: ServeConfig, state: State, journal: Option<Journal>) -> Self {
        let inner = Arc::new(Inner {
            state: Mutex::new(state),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            model_store: Mutex::new(PerfModelStore::new()),
            journal: journal.map(Mutex::new),
            cfg,
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("locmps-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker thread")
            })
            .collect();
        Service { inner, workers }
    }

    /// The admission path. Validates the spec, maps it to its canonical
    /// fingerprint, and either answers from cache, coalesces onto an
    /// identical in-flight computation, or enqueues a fresh one. Under
    /// pressure the fresh path may swap in the degraded fallback
    /// scheduler, and past the shed threshold nothing is admitted at all.
    ///
    /// The tenant quota and the queue cap, like the retry and health
    /// thresholds, come from the config the service booted with.
    ///
    /// # Errors
    /// [`SubmitError`] — invalid spec, quota, backpressure, overload,
    /// journal refusal, or draining.
    pub fn submit(&self, mut spec: JobSpec) -> Result<SubmitAck, SubmitError> {
        // Validate everything a worker would need *before* taking the
        // admission decision, so accepted jobs can only fail inside the
        // scheduler itself.
        Cluster::try_new(spec.procs, spec.bandwidth)
            .map_err(|e| SubmitError::Invalid(e.to_string()))?;
        scheduler_by_name(&spec.algo).map_err(SubmitError::Invalid)?;
        if let Mode::Run(run) = &spec.mode {
            let (cfg, store) = (run_config(run), PerfModelStore::new());
            let dispatch = Dispatch {
                policy: &run.policy,
                plan: None,
            };
            resolve_run(&cfg, dispatch, &run.recovery, store).map_err(SubmitError::Invalid)?;
            FaultPlan::parse(&run.faults)
                .and_then(|plan| plan.check_targets(spec.procs, spec.graph.n_tasks()))
                .map_err(|e| SubmitError::Invalid(format!("faults: {e}")))?;
        }

        let graph_fp = graph_fingerprint(&spec.graph);
        // Adaptive runs depend on the model store's contents, which grow
        // as jobs complete: folding the store's observation count into
        // the key keeps the cache honest — a job submitted after the
        // store learned something is a different computation.
        let adapt_key: String;
        let run_key = match &spec.mode {
            Mode::Schedule => None,
            Mode::Run(r) => {
                let recovery_key = if r.adapt {
                    let epoch = self
                        .inner
                        .model_store
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .n_observations();
                    adapt_key = format!("{}+adapt#{epoch}", r.recovery);
                    adapt_key.as_str()
                } else {
                    r.recovery.as_str()
                };
                Some((
                    r.seed,
                    r.exec_cv,
                    r.policy.as_str(),
                    recovery_key,
                    r.faults.as_str(),
                ))
            }
        };
        let fp = job_fingerprint(graph_fp, spec.procs, spec.bandwidth, &spec.algo, run_key);

        // Lock order: journal before state. Holding the journal lock
        // across the admission decision serializes record order with
        // state-commit order; the append itself happens before the state
        // mutations it describes, so a refused append admits nothing.
        let mut journal = self.inner.lock_journal();
        let mut st = self.inner.lock_state();
        if st.draining {
            return Err(SubmitError::Draining);
        }

        let health = self.inner.assess_health(&mut st);
        if self.inner.cfg.degradation && health == HealthState::Shedding {
            st.stats.shed += 1;
            return Err(SubmitError::Overloaded {
                retry_after_secs: RETRY_AFTER_SECS,
            });
        }

        let load = st.tenant_load.get(&spec.tenant).copied().unwrap_or(0);
        if load >= self.inner.cfg.tenant_quota {
            st.stats.rejected_quota += 1;
            return Err(SubmitError::QuotaExceeded {
                tenant: spec.tenant.clone(),
                limit: self.inner.cfg.tenant_quota,
            });
        }

        let mut route = st.route(fp, false);
        if let Route::Fresh { degraded } = &mut route {
            // Only a new computation meets the bounded queue.
            if st.queue.len() >= self.inner.cfg.queue_cap {
                st.stats.rejected_queue += 1;
                return Err(SubmitError::QueueFull {
                    cap: self.inner.cfg.queue_cap,
                });
            }
            // Under pressure, expensive schedulers fall back to the cheap
            // baseline. The job keeps its original fingerprint for the ack,
            // but never touches the shared cache: a degraded result must not
            // masquerade as the full-quality one.
            if self.inner.cfg.degradation && health == HealthState::Degraded {
                if let Some(fallback) = degraded_fallback(&spec.algo) {
                    spec.algo = fallback.to_string();
                    *degraded = true;
                }
            }
        }
        let ack = SubmitAck {
            job_id: st.next_id,
            fingerprint: fp,
            cached: matches!(route, Route::Hit(_)),
            coalesced: matches!(route, Route::Coalesce),
            degraded: matches!(route, Route::Fresh { degraded: true }),
        };
        st.next_id += 1;
        // A hit is done on admission: its outcome is journaled with it.
        let hit = ack.cached.then_some(TerminalRecord {
            id: ack.job_id,
            ok: true,
            degraded: false,
            error: None,
            error_kind: None,
            makespan: None,
            result_json: None,
            trace_json: None,
        });
        let submit_rec = journal_submit(
            journal.as_deref_mut(),
            ack.job_id,
            fp,
            &spec,
            ack.degraded,
            hit.as_ref(),
        )?;
        let queued = matches!(route, Route::Fresh { .. });
        st.admit(ack.job_id, spec, fp, submit_rec, route);
        if ack.degraded {
            st.stats.degraded_jobs += 1;
        }
        drop(st);
        drop(journal);
        // Only a queued job has work for a worker.
        if queued {
            self.inner.work_cv.notify_one();
        }
        Ok(ack)
    }

    /// A snapshot of one job.
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        let st = self.inner.lock_state();
        st.jobs.get(&id).map(|j| JobStatus {
            id,
            tenant: j.tenant.clone(),
            fingerprint: j.fingerprint,
            state: j.state,
            cached: j.cached,
            degraded: j.degraded,
            error: j.error.clone(),
            error_kind: j.error_kind,
            makespan: j.output.as_ref().map(|o| o.makespan),
        })
    }

    /// The rendered schedule result of a `Done` job.
    pub fn result_json(&self, id: u64) -> Option<Arc<String>> {
        let st = self.inner.lock_state();
        st.jobs
            .get(&id)
            .and_then(|j| j.output.as_ref())
            .map(|o| Arc::clone(&o.result_json))
    }

    /// The rendered `ExecutionTrace` of a `Done` run-mode job.
    pub fn trace_json(&self, id: u64) -> Option<Arc<String>> {
        let st = self.inner.lock_state();
        st.jobs
            .get(&id)
            .and_then(|j| j.output.as_ref())
            .and_then(|o| o.trace_json.as_ref().map(Arc::clone))
    }

    /// Blocks until `id` reaches a terminal state (or returns `None` for
    /// an unknown id).
    pub fn wait(&self, id: u64) -> Option<JobStatus> {
        let mut st = self.inner.lock_state();
        loop {
            match st.jobs.get(&id) {
                None => return None,
                Some(j) if j.state.terminal() => break,
                Some(_) => st = self.inner.wait_done(st),
            }
        }
        drop(st);
        self.status(id)
    }

    /// A counters snapshot.
    pub fn stats(&self) -> Stats {
        self.inner.lock_state().stats
    }

    /// Number of non-terminal jobs.
    pub fn active_jobs(&self) -> usize {
        self.inner.lock_state().active_jobs
    }

    /// Re-assesses and returns the health machine's state. Assessing on
    /// read means an idle daemon recovers (`/healthz` polls are the only
    /// events an idle process has).
    pub fn health(&self) -> HealthState {
        let mut st = self.inner.lock_state();
        self.inner.assess_health(&mut st)
    }

    /// Health state plus the pressure behind it: `(state, outstanding
    /// work — queued plus computing, p95 schedule latency ms)` — the
    /// `/v1/stats` surfacing.
    pub fn health_snapshot(&self) -> (HealthState, usize, f64) {
        let mut st = self.inner.lock_state();
        let health = self.inner.assess_health(&mut st);
        (health, st.queue.len() + st.computing, st.health.p95_ms())
    }

    /// Installs (or, with the default config, clears) service-level chaos
    /// injection. Takes effect on the next scheduling attempt.
    pub fn set_chaos(&self, cfg: ChaosConfig) {
        self.inner.lock_state().chaos = cfg;
    }

    /// The LM34x service diagnostics over a live snapshot.
    pub fn service_report(&self) -> locmps_analysis::Report {
        let snapshot = {
            let mut st = self.inner.lock_state();
            let health = self.inner.assess_health(&mut st);
            ServiceSnapshot {
                submitted: st.stats.submitted,
                completed: st.stats.completed,
                failed: st.stats.failed,
                active_jobs: st.active_jobs as u64,
                queue_depth: (st.queue.len() + st.computing) as u64,
                shed: st.stats.shed,
                degraded_jobs: st.stats.degraded_jobs,
                recovered_jobs: st.stats.recovered_jobs,
                p95_ms: st.health.p95_ms(),
                health: health.as_str().to_string(),
                journal_truncated: st.journal_truncated,
            }
        };
        analyze_service(&snapshot)
    }

    /// Stops admission and blocks until every accepted job is terminal.
    pub fn drain(&self) {
        let mut st = self.inner.lock_state();
        st.draining = true;
        self.inner.work_cv.notify_all();
        while st.active_jobs > 0 {
            st = self.inner.wait_done(st);
        }
    }

    /// Drains and joins the worker pool.
    pub fn shutdown(mut self) {
        self.drain();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Deliberately poisons the state mutex (a helper thread panics while
    /// holding it). Test-only: lets the poison-recovery tests exercise the
    /// exact failure a panicking lock holder leaves behind.
    #[doc(hidden)]
    pub fn poison_for_tests(&self) {
        let inner = Arc::clone(&self.inner);
        let h = std::thread::spawn(move || {
            let _guard = inner.lock_state();
            panic!("deliberate poison (test-only)");
        });
        let _ = h.join();
        assert!(
            self.inner.state.is_poisoned(),
            "the helper thread must have poisoned the state mutex"
        );
    }
}

/// Builds and durably appends the `Submit` (and, for cache hits, the
/// paired `Terminal`) record. Returns the record for the job table, or
/// `None` when the service is journal-free.
///
/// Called with the state lock held but *before* any state mutation for
/// this submission, so a refused append leaves nothing to roll back.
fn journal_submit(
    journal: Option<&mut Journal>,
    id: u64,
    fingerprint: u64,
    spec: &JobSpec,
    degraded: bool,
    terminal: Option<&TerminalRecord>,
) -> Result<Option<Box<SubmitRecord>>, SubmitError> {
    let Some(journal) = journal else {
        return Ok(None);
    };
    let rec = SubmitRecord {
        id,
        fingerprint,
        tenant: spec.tenant.clone(),
        graph_json: spec.graph.to_json(),
        procs: spec.procs as u64,
        bandwidth: spec.bandwidth,
        algo: spec.algo.clone(),
        degraded,
        deadline_ms: spec.deadline_ms,
        run: match &spec.mode {
            Mode::Schedule => None,
            Mode::Run(r) => Some(r.clone()),
        },
    };
    journal
        .append(&Record::Submit(rec.clone()))
        .map_err(|e| SubmitError::Journal(e.to_string()))?;
    if let Some(t) = terminal {
        journal
            .append(&Record::Terminal(t.clone()))
            .map_err(|e| SubmitError::Journal(e.to_string()))?;
    }
    Ok(Some(Box::new(rec)))
}

/// The backoff before retry number `attempt` (1-based): base doubled per
/// attempt, saturating at [`MAX_RETRY_DELAY_MS`].
fn retry_delay(base_ms: u64, attempt: u32) -> Duration {
    let factor = 1u64 << attempt.min(20);
    Duration::from_millis(base_ms.saturating_mul(factor).min(MAX_RETRY_DELAY_MS))
}

/// One deterministic chaos draw (service-wide attempt counter).
fn next_chaos_draw(inner: &Inner) -> ChaosDraw {
    let mut st = inner.lock_state();
    let n = st.chaos_draws;
    st.chaos_draws += 1;
    chaos::draw(&st.chaos, n)
}

fn worker_loop(inner: &Inner) {
    loop {
        let (id, spec, deadline) = {
            let mut st = inner.lock_state();
            loop {
                if let Some(id) = st.queue.pop_front() {
                    st.computing += 1;
                    let job = st.jobs.get_mut(&id).expect("queued job exists");
                    job.state = JobState::Running;
                    let spec = job.spec.take().expect("fresh job carries its spec");
                    break (id, spec, job.deadline);
                }
                if st.draining {
                    return;
                }
                st = inner.wait_work(st);
            }
        };

        let started = Instant::now();
        let mut attempt: u32 = 0;
        // A panicking scheduler must not kill the worker with the job
        // stuck in `Running` (drain would then wait forever): catch the
        // panic, retry with capped backoff while budget remains, and
        // finally record a typed failure.
        let outcome: Result<JobOutput, (JobErrorKind, String)> = loop {
            let draw = next_chaos_draw(inner);
            if draw.slow_ms > 0 && degraded_fallback(&spec.algo).is_some() {
                // Chaos models a slow LoC-MPS pass; the cheap fallback
                // stays fast so degradation remains observable.
                std::thread::sleep(Duration::from_millis(draw.slow_ms));
            }
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                assert!(!draw.panic, "chaos: injected worker panic");
                compute(&spec, inner)
            }));
            match result {
                Ok(Ok(output)) => break Ok(output),
                // A deterministic scheduler error would fail identically
                // on every retry: fail it immediately.
                Ok(Err(msg)) => break Err((JobErrorKind::Scheduler, msg)),
                Err(payload) => {
                    let msg = format!("scheduler panicked: {}", panic_text(&payload));
                    let budget_left = deadline.is_none_or(|d| Instant::now() < d);
                    if attempt < inner.cfg.max_retries && budget_left {
                        attempt += 1;
                        inner.lock_state().stats.retried_attempts += 1;
                        std::thread::sleep(retry_delay(inner.cfg.retry_backoff_ms, attempt));
                        continue;
                    }
                    let kind = if attempt > 0 {
                        JobErrorKind::RetriesExhausted
                    } else {
                        JobErrorKind::Panic
                    };
                    break Err((kind, msg));
                }
            }
        };

        finalize(inner, id, outcome, started);
    }
}

/// Commits one computed attempt: journal records first (lock order:
/// journal before state), then cache and job-table updates, then the
/// wake-up. Journal append failures after admission are logged and
/// tolerated — the in-memory state stays consistent and a restart simply
/// recomputes the affected jobs.
fn finalize(
    inner: &Inner,
    id: u64,
    outcome: Result<JobOutput, (JobErrorKind, String)>,
    started: Instant,
) {
    let mut journal = inner.lock_journal();
    let mut append = |record: &Record| {
        if let Some(j) = journal.as_deref_mut() {
            if let Err(e) = j.append(record) {
                let _ = writeln!(
                    std::io::stderr(),
                    "{{\"at\":\"locmps-serve\",\"journal_error\":{:?}}}",
                    e.to_string()
                );
            }
        }
    };
    let mut st = inner.lock_state();
    st.computing = st.computing.saturating_sub(1);
    st.stats.schedules_computed += 1;
    st.health
        .record_latency_ms(started.elapsed().as_secs_f64() * 1e3);
    let job = st.jobs.get(&id).expect("job exists");
    let (fp, degraded) = (job.fingerprint, job.degraded);
    // Degraded jobs never own a cache entry (and must not steal the
    // waiters of a full-quality twin computation).
    let waiters = if degraded {
        Vec::new()
    } else {
        match st.cache.get_mut(&fp) {
            Some(CacheEntry::InFlight { waiters }) => std::mem::take(waiters),
            _ => Vec::new(),
        }
    };
    match outcome {
        Ok(output) => {
            let output = Arc::new(output);
            if !degraded {
                // Cache record strictly before the terminals that rely on
                // it: a crash between the two replays the jobs as
                // unfinished, never as done-without-output.
                append(&Record::Cache(CacheRecord {
                    fingerprint: fp,
                    makespan: output.makespan,
                    result_json: (*output.result_json).clone(),
                    trace_json: output.trace_json.as_deref().cloned(),
                }));
                st.cache.insert(fp, CacheEntry::Done(Arc::clone(&output)));
            }
            let now = Instant::now();
            for jid in std::iter::once(id).chain(waiters) {
                // Each rider checks its own budget: the computation is
                // shared, the deadline is not.
                let expired = st
                    .jobs
                    .get(&jid)
                    .and_then(|j| j.deadline)
                    .is_some_and(|d| now > d);
                if expired {
                    finish_job(
                        &mut st,
                        jid,
                        Err((
                            JobErrorKind::Deadline,
                            "job deadline passed before the result was ready".into(),
                        )),
                    );
                } else {
                    finish_job(&mut st, jid, Ok(Arc::clone(&output)));
                }
                append(&Record::Terminal(terminal_record(
                    &st,
                    jid,
                    degraded.then_some(&output),
                )));
            }
        }
        Err((kind, msg)) => {
            // Drop the entry so a corrected resubmission recomputes.
            if !degraded {
                st.cache.remove(&fp);
            }
            for jid in std::iter::once(id).chain(waiters) {
                finish_job(&mut st, jid, Err((kind, msg.clone())));
                append(&Record::Terminal(terminal_record(&st, jid, None)));
            }
        }
    }
    inner.assess_health(&mut st);
    drop(st);
    drop(journal);
    inner.done_cv.notify_all();
}

use std::io::Write;

/// The journal form of job `id`'s terminal state, written when the job
/// finishes and again on compaction. `inline` carries the output for
/// results outside the shared cache (degraded jobs) so replay can restore
/// them.
fn terminal_record(st: &State, id: u64, inline: Option<&Arc<JobOutput>>) -> TerminalRecord {
    let job = st.jobs.get(&id).expect("finished job exists");
    let inline = if job.state == JobState::Done {
        inline
    } else {
        None
    };
    TerminalRecord {
        id,
        ok: job.state == JobState::Done,
        degraded: job.degraded,
        error: job.error.clone(),
        error_kind: job.error_kind.map(|k| k.as_str().to_string()),
        makespan: inline.map(|o| o.makespan),
        result_json: inline.map(|o| (*o.result_json).clone()),
        trace_json: inline.and_then(|o| o.trace_json.as_deref().cloned()),
    }
}

/// Best-effort text of a caught panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Commits one job's terminal state and releases its admission resources.
/// Runs on *every* terminal path — success, scheduler error, panic,
/// deadline — so a failed job can never pin its tenant's quota slot.
fn finish_job(st: &mut State, id: u64, result: Result<Arc<JobOutput>, (JobErrorKind, String)>) {
    let job = st.jobs.get_mut(&id).expect("finished job exists");
    match result {
        Ok(out) => {
            job.state = JobState::Done;
            job.output = Some(out);
            st.stats.completed += 1;
        }
        Err((kind, msg)) => {
            job.state = JobState::Failed;
            job.error = Some(msg);
            job.error_kind = Some(kind);
            st.stats.failed += 1;
            if kind == JobErrorKind::Deadline {
                st.stats.deadline_failures += 1;
            }
        }
    }
    // Release the admission slot: tenant quota and global active count.
    if let Some(load) = st.tenant_load.get_mut(&job.tenant) {
        *load = load.saturating_sub(1);
    }
    st.active_jobs = st.active_jobs.saturating_sub(1);
}

/// Rebuilds the executable spec of a journaled submission.
fn spec_from_record(rec: &SubmitRecord) -> Result<JobSpec, JournalError> {
    let graph = TaskGraph::from_json(&rec.graph_json).map_err(|e| JournalError::Corrupt {
        offset: 0,
        reason: format!("submit record for job {}: graph: {e}", rec.id),
    })?;
    Ok(JobSpec {
        tenant: rec.tenant.clone(),
        graph,
        procs: rec.procs as usize,
        bandwidth: rec.bandwidth,
        algo: rec.algo.clone(),
        mode: rec.run.clone().map_or(Mode::Schedule, Mode::Run),
        deadline_ms: rec.deadline_ms,
    })
}

/// Folds a journal replay into a boot-ready state: terminal jobs keep
/// their outcome, and every other job is admitted again through
/// [`State::admit`], in id order (submission order: recovery preserves
/// fairness). Counter assignment keeps `submitted = completed + failed +
/// active` and `cache_hits + cache_misses = submitted` exact; only
/// `schedules_computed` restarts at zero (it counts this process's work).
fn replayed_state(replay: &Replay) -> Result<State, JournalError> {
    let mut st = State {
        journal_truncated: replay.truncated,
        ..State::default()
    };
    // Submissions without an outcome yet, by id.
    let mut open: BTreeMap<u64, (&SubmitRecord, JobSpec)> = BTreeMap::new();
    for rec in &replay.records {
        match rec {
            Record::Cache(c) => {
                st.cache.insert(
                    c.fingerprint,
                    CacheEntry::Done(Arc::new(JobOutput {
                        makespan: c.makespan,
                        result_json: Arc::new(c.result_json.clone()),
                        trace_json: c.trace_json.clone().map(Arc::new),
                    })),
                );
            }
            Record::Submit(s) => {
                st.next_id = st.next_id.max(s.id + 1);
                open.insert(s.id, (s, spec_from_record(s)?));
            }
            Record::Terminal(t) => {
                // Never fabricate: a terminal for an unknown or finished id
                // (possible only through outside editing) is dropped, and an
                // ok-terminal whose output did not survive leaves the job
                // open for recomputation.
                let Some(&(s, _)) = open.get(&t.id) else {
                    continue;
                };
                let mut job = Job {
                    tenant: s.tenant.clone(),
                    fingerprint: s.fingerprint,
                    state: JobState::Done,
                    cached: false,
                    degraded: s.degraded,
                    deadline: None,
                    spec: None,
                    output: None,
                    error: None,
                    error_kind: None,
                    submit_rec: Some(Box::new(s.clone())),
                };
                if t.ok {
                    let output =
                        if let (Some(makespan), Some(result_json)) = (t.makespan, &t.result_json) {
                            Arc::new(JobOutput {
                                makespan,
                                result_json: Arc::new(result_json.clone()),
                                trace_json: t.trace_json.clone().map(Arc::new),
                            })
                        } else if let Some(CacheEntry::Done(out)) = st.cache.get(&s.fingerprint) {
                            Arc::clone(out)
                        } else {
                            continue;
                        };
                    job.degraded = t.degraded;
                    job.output = Some(output);
                    st.stats.completed += 1;
                    st.stats.cache_hits += 1;
                } else {
                    job.state = JobState::Failed;
                    job.error = Some(
                        t.error
                            .clone()
                            .unwrap_or_else(|| "failed before restart".into()),
                    );
                    job.error_kind = t.error_kind.as_deref().and_then(JobErrorKind::from_wire);
                    st.stats.failed += 1;
                    st.stats.cache_misses += 1;
                }
                st.stats.submitted += 1;
                st.jobs.insert(t.id, job);
                open.remove(&t.id);
            }
        }
    }
    for (id, (s, spec)) in open {
        let route = st.route(s.fingerprint, s.degraded);
        st.admit(id, spec, s.fingerprint, Some(Box::new(s.clone())), route);
        st.stats.recovered_jobs += 1;
    }
    Ok(st)
}

/// Renders the entire live state back to journal records (compaction):
/// finished cache entries first, then every job's submission and — for
/// terminal jobs — its outcome.
fn compaction_records(st: &State) -> Vec<Record> {
    let mut out = Vec::new();
    for (fp, entry) in &st.cache {
        if let CacheEntry::Done(o) = entry {
            out.push(Record::Cache(CacheRecord {
                fingerprint: *fp,
                makespan: o.makespan,
                result_json: (*o.result_json).clone(),
                trace_json: o.trace_json.as_deref().cloned(),
            }));
        }
    }
    for (&id, job) in &st.jobs {
        let Some(rec) = &job.submit_rec else { continue };
        out.push(Record::Submit((**rec).clone()));
        if job.state.terminal() {
            // Inline the output whenever the shared cache will not have
            // it on the next replay (degraded results, by policy).
            let inline = job
                .output
                .as_ref()
                .filter(|_| !matches!(st.cache.get(&job.fingerprint), Some(CacheEntry::Done(_))));
            out.push(Record::Terminal(terminal_record(st, id, inline)));
        }
    }
    out
}

/// The engine configuration of a `"run"` job.
fn run_config(run: &RunParams) -> OnlineConfig {
    OnlineConfig {
        seed: run.seed,
        exec_cv: run.exec_cv,
        ..OnlineConfig::default()
    }
}

/// JSON payload of `GET /v1/jobs/<id>/schedule`.
#[derive(Serialize)]
struct ScheduleResultDto {
    algo: String,
    procs: usize,
    bandwidth: f64,
    n_tasks: usize,
    makespan: f64,
    allocation: Vec<u64>,
    schedule: locmps_core::Schedule,
}

/// The compute path (state lock not held; adaptive runs take the
/// model-store lock briefly before and after the execution, never across
/// it, see [`run_and_audit`]): schedule, optionally execute online, render
/// both payloads through the checked JSON writer. A `plan` run follows
/// the schedule served at `/schedule`.
fn compute(spec: &JobSpec, inner: &Inner) -> Result<JobOutput, String> {
    let cluster = Cluster::try_new(spec.procs, spec.bandwidth).map_err(|e| e.to_string())?;
    let scheduler = scheduler_by_name(&spec.algo)?;
    let out = scheduler
        .schedule(&spec.graph, &cluster)
        .map_err(|e| format!("{}: {e}", scheduler.name()))?;

    let result = ScheduleResultDto {
        algo: spec.algo.clone(),
        procs: spec.procs,
        bandwidth: spec.bandwidth,
        n_tasks: spec.graph.n_tasks(),
        makespan: out.makespan(),
        allocation: out
            .allocation
            .as_slice()
            .iter()
            .map(|&n| n as u64)
            .collect(),
        schedule: out.schedule,
    };
    let result_json =
        serde_json::to_string_checked(&result).map_err(|e| format!("render schedule: {e}"))?;

    let trace_json = match &spec.mode {
        Mode::Schedule => None,
        Mode::Run(run) => {
            let faults = FaultPlan::parse(&run.faults).map_err(|e| e.to_string())?;
            let store = run.adapt.then_some(&inner.model_store);
            let dispatch = Dispatch {
                policy: &run.policy,
                plan: Some(&result.schedule),
            };
            let outcome = run_and_audit(
                &spec.graph,
                &cluster,
                run_config(run),
                dispatch,
                &run.recovery,
                &faults,
                store,
            )?;
            Some(Arc::new(
                serde_json::to_string_checked(&outcome.summary)
                    .map_err(|e| format!("render trace: {e}"))?,
            ))
        }
    };

    Ok(JobOutput {
        makespan: result.makespan,
        result_json: Arc::new(result_json),
        trace_json,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmps_speedup::ExecutionProfile;

    fn chain(n: usize, work: f64) -> TaskGraph {
        let mut g = TaskGraph::new();
        let ids: Vec<_> = (0..n)
            .map(|i| g.add_task(format!("t{i}"), ExecutionProfile::linear(work)))
            .collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], 10.0).unwrap();
        }
        g
    }

    fn spec(tenant: &str, work: f64) -> JobSpec {
        JobSpec {
            tenant: tenant.into(),
            graph: chain(4, work),
            procs: 4,
            bandwidth: 125.0,
            algo: "locmps".into(),
            mode: Mode::Schedule,
            deadline_ms: None,
        }
    }

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("locmps-svc-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.log");
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn duplicate_submissions_hit_the_cache() {
        let cfg = ServeConfig::default();
        let svc = Service::start(cfg);
        let a = svc.submit(spec("alice", 10.0)).unwrap();
        assert!(!a.cached);
        let done = svc.wait(a.job_id).unwrap();
        assert_eq!(done.state, JobState::Done);
        let b = svc.submit(spec("bob", 10.0)).unwrap();
        assert!(b.cached, "identical DAG must be answered from cache");
        assert_eq!(b.fingerprint, a.fingerprint);
        assert_eq!(
            svc.result_json(a.job_id).unwrap(),
            svc.result_json(b.job_id).unwrap()
        );
        let stats = svc.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.schedules_computed, 1);
        svc.shutdown();
    }

    #[test]
    fn quota_rejects_the_excess_submission() {
        // Admission-only mode: nothing completes, so tenant load is
        // exactly what was submitted and the quota check is deterministic.
        let cfg = ServeConfig {
            workers: 0,
            tenant_quota: 2,
            ..ServeConfig::default()
        };
        let svc = Service::start(cfg);
        assert!(svc.submit(spec("alice", 11.0)).is_ok());
        assert!(svc.submit(spec("alice", 12.0)).is_ok());
        match svc.submit(spec("alice", 13.0)) {
            Err(SubmitError::QuotaExceeded { limit, .. }) => assert_eq!(limit, 2),
            other => panic!("expected quota rejection, got {other:?}"),
        }
        // Another tenant is unaffected; the queue bound is independent.
        assert!(svc.submit(spec("bob", 14.0)).is_ok());
        assert_eq!(svc.stats().rejected_quota, 1);
    }

    #[test]
    fn full_queue_pushes_back() {
        let cfg = ServeConfig {
            workers: 0,
            queue_cap: 2,
            tenant_quota: 64,
            // Keep the health machine out of a bounds test.
            degrade_queue: usize::MAX,
            shed_queue: usize::MAX,
            ..ServeConfig::default()
        };
        let svc = Service::start(cfg);
        assert!(svc.submit(spec("alice", 11.0)).is_ok());
        assert!(svc.submit(spec("bob", 12.0)).is_ok());
        match svc.submit(spec("carol", 13.0)) {
            Err(SubmitError::QueueFull { cap }) => assert_eq!(cap, 2),
            other => panic!("expected queue backpressure, got {other:?}"),
        }
        // A duplicate of a queued graph coalesces instead of queueing, so
        // backpressure never rejects work that needs no new computation.
        let dup = svc.submit(spec("carol", 11.0)).unwrap();
        assert!(dup.coalesced);
        assert_eq!(svc.stats().rejected_queue, 1);
    }

    #[test]
    fn run_mode_produces_a_trace_and_clean_audit() {
        let cfg = ServeConfig::default();
        let svc = Service::start(cfg);
        let mut s = spec("alice", 10.0);
        s.mode = Mode::Run(RunParams::default());
        let ack = svc.submit(s).unwrap();
        let done = svc.wait(ack.job_id).unwrap();
        assert_eq!(done.state, JobState::Done, "{:?}", done.error);
        let trace = svc.trace_json(ack.job_id).expect("run mode has a trace");
        assert!(trace.contains("\"aborted\""));
        svc.shutdown();
    }

    #[test]
    fn invalid_specs_are_rejected_at_the_boundary() {
        let cfg = ServeConfig::default();
        let svc = Service::start(cfg);
        let mut bad_algo = spec("alice", 10.0);
        bad_algo.algo = "nope".into();
        assert!(matches!(svc.submit(bad_algo), Err(SubmitError::Invalid(_))));
        let mut bad_cv = spec("alice", 10.0);
        bad_cv.mode = Mode::Run(RunParams {
            exec_cv: f64::NAN,
            ..RunParams::default()
        });
        assert!(matches!(svc.submit(bad_cv), Err(SubmitError::Invalid(_))));
        let mut bad_procs = spec("alice", 10.0);
        bad_procs.procs = 0;
        assert!(matches!(
            svc.submit(bad_procs),
            Err(SubmitError::Invalid(_))
        ));
        svc.shutdown();
    }

    #[test]
    fn a_poisoned_lock_does_not_wedge_the_service() {
        let cfg = ServeConfig::default();
        let svc = Service::start(cfg);
        let a = svc.submit(spec("alice", 10.0)).unwrap();
        assert_eq!(svc.wait(a.job_id).unwrap().state, JobState::Done);

        svc.poison_for_tests();

        // Reads, admission, computation and drain all still work.
        assert!(svc.stats().submitted >= 1);
        assert_eq!(svc.active_jobs(), 0);
        let b = svc.submit(spec("bob", 20.0)).unwrap();
        let done = svc.wait(b.job_id).unwrap();
        assert_eq!(done.state, JobState::Done, "{:?}", done.error);
        svc.drain();
        assert!(matches!(
            svc.submit(spec("carol", 30.0)),
            Err(SubmitError::Draining)
        ));
        svc.shutdown();
    }

    #[test]
    fn adaptive_runs_learn_across_jobs_and_bypass_stale_cache() {
        let cfg = ServeConfig::default();
        let svc = Service::start(cfg);
        let adaptive = |work: f64| JobSpec {
            mode: Mode::Run(RunParams {
                adapt: true,
                recovery: "remold".into(),
                ..RunParams::default()
            }),
            ..spec("alice", work)
        };
        let a = svc.submit(adaptive(10.0)).unwrap();
        let done = svc.wait(a.job_id).unwrap();
        assert_eq!(done.state, JobState::Done, "{:?}", done.error);
        let trace = svc.trace_json(a.job_id).unwrap();
        assert!(trace.contains("\"remold\""), "adaptive runs re-mold");
        // The first job's trace was ingested, so the store epoch moved:
        // an identical resubmission is a *different* computation and must
        // not be answered from the stale cache entry.
        assert!(
            svc.inner
                .model_store
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .n_observations()
                > 0,
            "the daemon store must have learned from the completed run"
        );
        let b = svc.submit(adaptive(10.0)).unwrap();
        assert!(!b.cached, "store epoch changed → cache must miss");
        assert_ne!(b.fingerprint, a.fingerprint);
        assert_eq!(svc.wait(b.job_id).unwrap().state, JobState::Done);
        svc.shutdown();
    }

    #[test]
    fn drain_finishes_everything_before_refusing() {
        let cfg = ServeConfig::default();
        let svc = Service::start(cfg);
        let acks: Vec<_> = (0..6)
            .map(|i| svc.submit(spec("alice", 10.0 + i as f64)).unwrap())
            .collect();
        svc.drain();
        for ack in &acks {
            let st = svc.status(ack.job_id).unwrap();
            assert_eq!(st.state, JobState::Done, "{:?}", st.error);
        }
        assert!(matches!(
            svc.submit(spec("alice", 99.0)),
            Err(SubmitError::Draining)
        ));
        svc.shutdown();
    }

    #[test]
    fn a_failed_job_releases_its_quota_slot() {
        // Regression: every terminal path must release the tenant's slot.
        // Force a failure via chaos (all attempts panic, no retries) and
        // check the tenant can immediately submit again under quota 1.
        let cfg = ServeConfig {
            tenant_quota: 1,
            max_retries: 0,
            ..ServeConfig::default()
        };
        let svc = Service::start(cfg);
        svc.set_chaos(ChaosConfig {
            panic_per_mille: 1000,
            ..ChaosConfig::default()
        });
        let a = svc.submit(spec("alice", 10.0)).unwrap();
        let failed = svc.wait(a.job_id).unwrap();
        assert_eq!(failed.state, JobState::Failed);
        assert_eq!(failed.error_kind, Some(JobErrorKind::Panic));
        svc.set_chaos(ChaosConfig::default());
        let b = svc.submit(spec("alice", 11.0)).unwrap();
        assert_eq!(svc.wait(b.job_id).unwrap().state, JobState::Done);
        // Deadline failures release the slot too.
        let mut dead = spec("alice", 12.0);
        dead.deadline_ms = Some(0);
        let c = svc.submit(dead).unwrap();
        let st = svc.wait(c.job_id).unwrap();
        assert_eq!(st.state, JobState::Failed);
        assert_eq!(st.error_kind, Some(JobErrorKind::Deadline));
        let d = svc.submit(spec("alice", 13.0)).unwrap();
        assert_eq!(svc.wait(d.job_id).unwrap().state, JobState::Done);
        assert_eq!(svc.stats().deadline_failures, 1);
        svc.shutdown();
    }

    #[test]
    fn panicking_attempts_are_retried_with_backoff() {
        let cfg = ServeConfig {
            max_retries: 2,
            retry_backoff_ms: 1,
            ..ServeConfig::default()
        };
        let svc = Service::start(cfg);
        // Exactly the first attempt panics; the retry succeeds.
        svc.set_chaos(ChaosConfig {
            panic_first: 1,
            ..ChaosConfig::default()
        });
        let a = svc.submit(spec("alice", 10.0)).unwrap();
        let done = svc.wait(a.job_id).unwrap();
        assert_eq!(done.state, JobState::Done, "{:?}", done.error);
        assert_eq!(svc.stats().retried_attempts, 1);
        svc.shutdown();
    }

    #[test]
    fn exhausted_retries_fail_with_a_typed_error() {
        let cfg = ServeConfig {
            max_retries: 2,
            retry_backoff_ms: 1,
            ..ServeConfig::default()
        };
        let svc = Service::start(cfg);
        svc.set_chaos(ChaosConfig {
            panic_per_mille: 1000,
            ..ChaosConfig::default()
        });
        let a = svc.submit(spec("alice", 10.0)).unwrap();
        let failed = svc.wait(a.job_id).unwrap();
        assert_eq!(failed.state, JobState::Failed);
        assert_eq!(failed.error_kind, Some(JobErrorKind::RetriesExhausted));
        assert_eq!(svc.stats().retried_attempts, 2);
        svc.shutdown();
    }

    #[test]
    fn retry_delay_saturates_at_the_cap() {
        assert_eq!(retry_delay(20, 1), Duration::from_millis(40));
        assert_eq!(retry_delay(20, 2), Duration::from_millis(80));
        // Huge attempt counts and bases saturate instead of overflowing —
        // the runtime engine's MAX_RETRY_DELAY discipline.
        assert_eq!(
            retry_delay(u64::MAX, 63),
            Duration::from_millis(MAX_RETRY_DELAY_MS)
        );
        assert_eq!(
            retry_delay(20, u32::MAX),
            Duration::from_millis(MAX_RETRY_DELAY_MS)
        );
    }

    #[test]
    fn degraded_admission_swaps_the_scheduler_and_skips_the_cache() {
        // degrade_queue: 0 pins the machine to at least `degraded`.
        let cfg = ServeConfig {
            degrade_queue: 0,
            shed_queue: usize::MAX,
            ..ServeConfig::default()
        };
        let svc = Service::start(cfg);
        let a = svc.submit(spec("alice", 10.0)).unwrap();
        assert!(a.degraded);
        let done = svc.wait(a.job_id).unwrap();
        assert_eq!(done.state, JobState::Done, "{:?}", done.error);
        assert!(done.degraded);
        // The degraded result is not in the shared cache: an identical
        // resubmission computes again instead of hitting.
        let b = svc.submit(spec("bob", 10.0)).unwrap();
        assert!(!b.cached);
        assert_eq!(svc.wait(b.job_id).unwrap().state, JobState::Done);
        let stats = svc.stats();
        assert_eq!(stats.degraded_jobs, 2);
        assert_eq!(stats.schedules_computed, 2, "no cache sharing");
        // The degraded fallback actually ran: the result payload names it.
        assert!(svc.result_json(a.job_id).unwrap().contains("psonline"));
        svc.shutdown();
    }

    #[test]
    fn shedding_refuses_with_a_typed_overload_error() {
        let cfg = ServeConfig {
            workers: 0,
            shed_queue: 0,
            ..ServeConfig::default()
        };
        let svc = Service::start(cfg);
        match svc.submit(spec("alice", 10.0)) {
            Err(SubmitError::Overloaded { retry_after_secs }) => {
                assert_eq!(retry_after_secs, RETRY_AFTER_SECS);
            }
            other => panic!("expected overload, got {other:?}"),
        }
        assert_eq!(svc.stats().shed, 1);
        assert_eq!(svc.health(), HealthState::Shedding);
        // The master switch turns shedding (and degradation) off.
        let off = ServeConfig {
            degradation: false,
            ..cfg
        };
        let svc2 = Service::start(off);
        let ack = svc2.submit(spec("alice", 10.0)).unwrap();
        assert!(!ack.degraded);
    }

    #[test]
    fn journal_recovers_unfinished_jobs_after_a_simulated_crash() {
        let path = temp_journal("recover");
        let cfg = ServeConfig {
            workers: 0, // admission-only: jobs are journaled, never computed
            ..ServeConfig::default()
        };
        let svc = Service::start_with_journal(cfg, &path).unwrap();
        let acks: Vec<_> = (0..5)
            .map(|i| svc.submit(spec("alice", 10.0 + i as f64)).unwrap())
            .collect();
        // Simulate kill -9: drop the service without drain. Every ack was
        // fsync'd before `submit` returned, so the journal has them all.
        drop(svc);

        let cfg2 = ServeConfig::default();
        let svc2 = Service::start_with_journal(cfg2, &path).unwrap();
        let stats = svc2.stats();
        assert_eq!(stats.recovered_jobs, 5);
        assert_eq!(stats.submitted, 5);
        for ack in &acks {
            let st = svc2.wait(ack.job_id).unwrap();
            assert_eq!(st.state, JobState::Done, "{:?}", st.error);
        }
        let stats = svc2.stats();
        assert_eq!(stats.completed, 5);
        assert_eq!(stats.completed + stats.failed, stats.submitted);
        assert_eq!(svc2.active_jobs(), 0);
        // Exactly once: distinct ids, and distinct fingerprints computed
        // exactly one time each.
        assert_eq!(stats.schedules_computed, 5);
        svc2.shutdown();

        // A third boot replays the compacted log: everything terminal,
        // nothing recomputed, ids intact.
        let svc3 = Service::start_with_journal(ServeConfig::default(), &path).unwrap();
        assert_eq!(svc3.stats().recovered_jobs, 0);
        for ack in &acks {
            assert_eq!(svc3.status(ack.job_id).unwrap().state, JobState::Done);
        }
        assert_eq!(svc3.stats().schedules_computed, 0);
        svc3.shutdown();
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn journal_preserves_terminal_outcomes_and_ids_across_restarts() {
        let path = temp_journal("terminal");
        let cfg = ServeConfig::default();
        let svc = Service::start_with_journal(cfg, &path).unwrap();
        let ok = svc.submit(spec("alice", 10.0)).unwrap();
        assert_eq!(svc.wait(ok.job_id).unwrap().state, JobState::Done);
        // A failed job (chaos panic, no retries budgeted via deadline).
        svc.set_chaos(ChaosConfig {
            panic_per_mille: 1000,
            ..ChaosConfig::default()
        });
        let bad = svc.submit(spec("alice", 20.0)).unwrap();
        let failed = svc.wait(bad.job_id).unwrap();
        assert_eq!(failed.state, JobState::Failed);
        svc.shutdown();

        let svc2 = Service::start_with_journal(ServeConfig::default(), &path).unwrap();
        let a = svc2.status(ok.job_id).unwrap();
        assert_eq!(a.state, JobState::Done);
        assert!(svc2.result_json(ok.job_id).is_some(), "output survived");
        let b = svc2.status(bad.job_id).unwrap();
        assert_eq!(b.state, JobState::Failed);
        assert_eq!(b.error_kind, Some(JobErrorKind::RetriesExhausted));
        // New ids continue after the recovered ones.
        let c = svc2.submit(spec("bob", 30.0)).unwrap();
        assert!(c.job_id > bad.job_id);
        svc2.shutdown();
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn replay_readmits_every_route_of_an_unfinished_journal() {
        let path = temp_journal("routes");
        // Boot 1 computes C, so the journal holds C's cache record.
        let svc = Service::start_with_journal(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            &path,
        )
        .unwrap();
        let c = svc.submit(spec("alice", 10.0)).unwrap();
        assert_eq!(svc.wait(c.job_id).unwrap().state, JobState::Done);
        svc.shutdown();

        // Boot 2 admits one job along each route, computes nothing and
        // dies without a drain. One queued computation is enough pressure
        // to degrade B.
        let svc = Service::start_with_journal(
            ServeConfig {
                workers: 0,
                degrade_queue: 1,
                ..ServeConfig::default()
            },
            &path,
        )
        .unwrap();
        let hit = svc.submit(spec("bob", 10.0)).unwrap();
        let a = svc.submit(spec("alice", 20.0)).unwrap();
        let twin = svc.submit(spec("bob", 20.0)).unwrap();
        let b = svc.submit(spec("carol", 30.0)).unwrap();
        assert!(hit.cached && !hit.coalesced && !hit.degraded);
        assert!(!a.cached && !a.coalesced && !a.degraded);
        assert!(!twin.cached && twin.coalesced && !twin.degraded);
        assert!(!b.cached && !b.coalesced && b.degraded);
        drop(svc);

        let svc = Service::start_with_journal(
            ServeConfig {
                workers: 0,
                ..ServeConfig::default()
            },
            &path,
        )
        .unwrap();
        assert_eq!(
            svc.stats(),
            Stats {
                submitted: 5,
                completed: 2,
                cache_hits: 3,
                cache_misses: 2,
                coalesced: 1,
                recovered_jobs: 3,
                ..Stats::default()
            }
        );
        assert_eq!(svc.active_jobs(), 3);
        let expected = [
            (c.job_id, JobState::Done, false, false),
            (hit.job_id, JobState::Done, false, false),
            (a.job_id, JobState::Queued, false, false),
            (twin.job_id, JobState::Queued, true, false),
            (b.job_id, JobState::Queued, false, true),
        ];
        for (id, state, cached, degraded) in expected {
            let st = svc.status(id).unwrap();
            assert_eq!(
                (st.state, st.cached, st.degraded),
                (state, cached, degraded),
                "job {id}"
            );
        }
        drop(svc);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn service_report_flags_conservation_and_recovery() {
        let cfg = ServeConfig::default();
        let svc = Service::start(cfg);
        let a = svc.submit(spec("alice", 10.0)).unwrap();
        svc.wait(a.job_id).unwrap();
        let report = svc.service_report();
        assert!(
            !report.has_errors(),
            "healthy service audits clean: {}",
            report.to_json()
        );
        svc.shutdown();
    }
}
