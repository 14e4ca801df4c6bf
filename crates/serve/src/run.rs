//! The one online-run path of `locmps run` and the daemon's `"run"` jobs:
//! resolve the policies, execute, audit the trace, and for adaptive runs
//! learn from it.

use std::sync::{Mutex, PoisonError};

use locmps_analysis::{analyze_model, analyze_trace, Report};
use locmps_core::Schedule;
use locmps_platform::Cluster;
use locmps_runtime::{
    policy_by_name, recovery_with_store, ExecutionTrace, FaultPlan, IngestReport, OnlineConfig,
    OnlinePolicy, PerfModelStore, RecoveryPolicy, RuntimeEngine,
};
use locmps_taskgraph::TaskGraph;
use serde::Serialize;

/// The payload of `locmps run --json` and `GET /v1/jobs/<id>/trace`: the
/// resilience headline numbers, the structured event log and its audit.
#[derive(Serialize)]
pub struct RunSummary {
    /// Dispatch policy, as reported by the policy.
    pub policy: String,
    /// Recovery policy, as reported by the policy (`hedged-…` when hedged).
    pub recovery: String,
    /// Tasks in the graph.
    pub n_tasks: usize,
    /// Tasks that completed.
    pub completed: usize,
    /// Whether the run aborted.
    pub aborted: bool,
    /// Finish time of the last completed task.
    pub makespan: f64,
    /// Processor-seconds of compute lost to failed attempts.
    pub work_lost: f64,
    /// Task relaunches.
    pub retries: usize,
    /// Replan/remold dispatch rounds.
    pub replans: usize,
    /// Processors lost to permanent failures.
    pub procs_lost: usize,
    /// The full structured event log.
    pub trace: ExecutionTrace,
    /// `LM3xx` trace audit, plus the `LM33x` model audits of adaptive runs.
    pub report: Report,
}

/// A finished run.
pub struct RunOutcome {
    /// The payload.
    pub summary: RunSummary,
    /// What the store ingested from the trace (adaptive runs only).
    pub ingest: Option<IngestReport>,
}

/// A run's dispatch and recovery policies.
pub type Policies = (Box<dyn OnlinePolicy>, Box<dyn RecoveryPolicy>);

/// How a run dispatches: a policy name (see [`policy_by_name`]) and the
/// offline schedule of the run's graph, which the `plan` policy follows
/// (`None`: it plans with the default LoC-MPS).
#[derive(Debug, Clone, Copy)]
pub struct Dispatch<'a> {
    /// The dispatch policy's front-end name.
    pub policy: &'a str,
    /// The schedule `plan` follows.
    pub plan: Option<&'a Schedule>,
}

/// Checks `cfg` and resolves the dispatch policy of `dispatch` and the
/// recovery `recovery`, seeded from `store` (see [`recovery_with_store`]).
/// The daemon calls it on submission, so a run it accepts cannot fail on
/// its configuration.
///
/// # Errors
/// An invalid `cfg`, or an unknown policy or recovery name.
pub fn resolve_run(
    cfg: &OnlineConfig,
    dispatch: Dispatch<'_>,
    recovery: &str,
    store: PerfModelStore,
) -> Result<Policies, String> {
    cfg.validate().map_err(|e| e.to_string())?;
    let name = dispatch.policy;
    let policy =
        policy_by_name(name, dispatch.plan).ok_or_else(|| format!("unknown policy {name:?}"))?;
    let recovery = recovery_with_store(recovery, store)
        .ok_or_else(|| format!("unknown recovery {recovery:?}"))?;
    Ok((policy, recovery))
}

/// Executes `g` on `cluster` online under the policies [`resolve_run`]
/// resolves, injecting `faults`, and audits the trace.
///
/// With a `store` the run is adaptive: a `remold` recovery, plain or
/// hedged, is seeded from a snapshot of the store; afterwards the trace is
/// ingested into it and the report gains the `LM33x` model audits. The
/// lock is taken before and after the execution, never across it, so runs
/// sharing one store do not serialize.
///
/// # Errors
/// Those of [`resolve_run`], a fault naming a processor or task outside
/// the run ([`FaultPlan::check_targets`]), or a trace the store refuses to
/// ingest.
pub fn run_and_audit(
    g: &TaskGraph,
    cluster: &Cluster,
    cfg: OnlineConfig,
    dispatch: Dispatch<'_>,
    recovery: &str,
    faults: &FaultPlan,
    store: Option<&Mutex<PerfModelStore>>,
) -> Result<RunOutcome, String> {
    faults
        .check_targets(cluster.n_procs, g.n_tasks())
        .map_err(|e| format!("faults: {e}"))?;
    let snapshot = store.map_or_else(PerfModelStore::new, |s| {
        s.lock().unwrap_or_else(PoisonError::into_inner).clone()
    });
    let (mut policy, mut recovery) = resolve_run(&cfg, dispatch, recovery, snapshot)?;

    let engine = RuntimeEngine::new(g, cluster, cfg);
    let trace = engine.run_with_faults(policy.as_mut(), faults, recovery.as_mut());
    let mut report = analyze_trace(&trace, g, cluster);
    let ingest = match store {
        None => None,
        Some(store) => {
            // Post-run ingestion deflates slowdown windows out of the
            // observations through the fault plan: the authoritative
            // numbers, unlike the in-run lower bounds remold steers by.
            let mut store = store.lock().unwrap_or_else(PoisonError::into_inner);
            let ingest = store
                .ingest_trace(&trace, g, faults)
                .map_err(|e| format!("ingesting trace: {e}"))?;
            report.merge(analyze_model(&store, g));
            Some(ingest)
        }
    };
    let summary = RunSummary {
        policy: policy.name().to_string(),
        recovery: recovery.name().to_string(),
        n_tasks: trace.n_tasks,
        completed: trace.completed,
        aborted: trace.aborted,
        makespan: trace.makespan,
        work_lost: trace.work_lost(),
        retries: trace.retries(),
        replans: trace.replans(),
        procs_lost: trace.procs_lost(),
        trace,
        report,
    };
    Ok(RunOutcome { summary, ingest })
}
