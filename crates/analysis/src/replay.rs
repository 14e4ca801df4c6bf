//! A scheduler's output as its runtime executes it: the one replay and
//! audit path of `locmps schedule`, `compare` and `analyze`, the daemon's
//! `POST /v1/analyze` and the bench runner.
//!
//! [`analyze_schedulers`] is the whole report of `locmps analyze` and
//! `POST /v1/analyze`.
//!
//! The paper's evaluation (§IV) replays each scheme under its own runtime.
//! Which runtime that is lives in [`locmps_baselines::registry`]: a
//! locality-aware runtime reuses resident block-cyclic data and pays exact
//! transfer times, the others pay the aggregate estimate wherever the
//! groups land. The audit must use the matching model, or it flags the
//! executed timestamps of CPR and CPA as precedence violations.

use locmps_baselines::registry::{locality_aware, scheduler_by_name};
use locmps_core::{CommModel, SchedulerOutput};
use locmps_platform::Cluster;
use locmps_sim::{simulate, NoiseModel, SimConfig, SimReport};
use locmps_taskgraph::TaskGraph;

use crate::{analyze_schedule, lint_input, search_effort_diagnostic, Report};

/// Replays `out` for `g` on `cluster` under the runtime of the registered
/// scheduler `algo`, optionally with seeded noise.
pub fn replay(
    g: &TaskGraph,
    cluster: &Cluster,
    algo: &str,
    out: &SchedulerOutput,
    noise: Option<NoiseModel>,
) -> SimReport {
    simulate(
        g,
        cluster,
        out,
        SimConfig {
            noise,
            locality_aware: locality_aware(algo),
        },
    )
}

/// A noise-free replay and its audit.
pub struct Replayed<'c> {
    /// The replay.
    pub sim: SimReport,
    /// The model the audit checked the executed schedule against: exact
    /// block-cyclic transfers for locality-aware runtimes,
    /// communication-blind otherwise.
    pub model: CommModel<'c>,
    /// `LM1xx`/`LM2xx` over the executed schedule, plus `LM210` when the
    /// scheduler searched.
    pub report: Report,
}

/// Replays `out` without noise under the runtime of scheduler `algo` and
/// audits the executed schedule under the matching [`CommModel`].
pub fn replay_and_audit<'c>(
    g: &TaskGraph,
    cluster: &'c Cluster,
    algo: &str,
    out: &SchedulerOutput,
) -> Replayed<'c> {
    let sim = replay(g, cluster, algo, out, None);
    let model = if locality_aware(algo) {
        CommModel::new(cluster)
    } else {
        CommModel::blind(cluster)
    };
    let mut report = analyze_schedule(&sim.executed, g, &model);
    if let Some(d) = search_effort_diagnostic(&out.counters) {
        report.push(d);
    }
    Replayed { sim, model, report }
}

/// Lints `g` on `cluster` and, when the input has no error, schedules it
/// with each registered scheduler in `algos` and merges the audits of the
/// replays ([`replay_and_audit`]).
///
/// # Errors
/// An unknown scheduler name, or a scheduler that fails on `g`.
pub fn analyze_schedulers(
    g: &TaskGraph,
    cluster: &Cluster,
    algos: &[&str],
) -> Result<Report, String> {
    let mut report = lint_input(g, cluster);
    // Input errors make scheduling pointless; skip it but still report.
    if !report.has_errors() {
        for &algo in algos {
            let scheduler = scheduler_by_name(algo)?;
            let out = scheduler
                .schedule(g, cluster)
                .map_err(|e| format!("{}: {e}", scheduler.name()))?;
            report.merge(replay_and_audit(g, cluster, algo, &out).report);
        }
    }
    Ok(report)
}
