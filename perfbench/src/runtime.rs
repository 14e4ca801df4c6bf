//! `runtime`: the steps `locmps run --json` takes, closed loop, one
//! client. Each request executes a graph under the `online` dispatch
//! policy with the watchdog armed and a fault plan, then audits the
//! trace with `analyze_trace`.
//!
//! Two interleaved classes: *execute* (100–300 tasks, retry-and-shrink
//! recovery, plain or hedged) is dominated by the event loop, hedging and
//! the LM3xx audit and sets the median; *replan* (10–30 tasks, LoC-MPS on
//! residual DAGs via `replan`/`remold`, plain or hedged) sets the tail.

use locmps_analysis::analyze_trace;
use locmps_core::makespan_lower_bound;
use locmps_platform::{Cluster, ProcId, ProcSet};
use locmps_runtime::{
    recovery_by_name, ExecutionTrace, FaultPlan, OnlineConfig, OnlineLocbs, PerfModelStore,
    RecoveryAction, RecoveryCtx, RecoveryPolicy, RuntimeEngine, StragglerAction, TraceEvent,
};
use locmps_taskgraph::{TaskGraph, TaskId};

use crate::common::{
    closed_loop, corpus_graph, cpu_ms, hash_bits, mean, median, reparse, sample_speed, shuffle,
    synthetic, timed, traced_pass, wall_over_cpu, Class, Outcome, PassSummary, Rng, Stopwatch,
    Took, Tracer,
};

/// Requests per pass: every `REPLAN_EVERY`-th request is a replan one.
const PER_PASS: usize = 120;
const REPLAN_EVERY: usize = 4;
const SETUP_REPS: usize = 5;
/// `request_cpu_tail_ms` is this percentile; it lies in the replan class,
/// and a pass holds 120 requests, so at least 12 lie beyond it.
const TAIL_Q: f64 = 0.90;
const EXECUTE_RECOVERIES: [&str; 2] = ["retryshrink", "hedged-retryshrink"];
const REPLAN_RECOVERIES: [&str; 4] = ["replan", "remold", "hedged-replan", "hedged-remold"];

struct Request {
    replan: bool,
    cluster: Cluster,
    graph: TaskGraph,
    faults: FaultPlan,
    recovery: &'static str,
    config: OnlineConfig,
    lower_bound: f64,
}

/// A seeded fault script in the `--faults` grammar: processor failures,
/// one slowdown window and task crashes, timed against the graph's lower
/// bound so they land while the run is in progress.
fn fault_spec(rng: &mut Rng, g: &TaskGraph, procs: usize, horizon: f64) -> String {
    let mut parts = Vec::new();
    let fails = rng.range(1, 2);
    let mut victims = Vec::new();
    while victims.len() < fails {
        let p = rng.range(0, procs - 1);
        if !victims.contains(&p) {
            victims.push(p);
        }
    }
    for p in victims {
        let at = horizon * (0.1 + 0.5 * rng.unit());
        parts.push(format!("fail:{p}@{at:.4}"));
    }
    let p = rng.range(0, procs - 1);
    let from = horizon * 0.4 * rng.unit();
    let to = from + horizon * (0.2 + 0.3 * rng.unit());
    parts.push(format!("slow:{p}@{from:.4}-{to:.4}x{}", rng.range(3, 6)));
    for _ in 0..rng.range(1, 3) {
        let t = rng.range(0, g.n_tasks() - 1);
        parts.push(format!("crash:{t}@{:.3}", 0.2 + 0.6 * rng.unit()));
    }
    parts.join(",")
}

/// Generates the pass: graphs through their JSON form, every fault spec
/// through `FaultPlan::parse`, every `OnlineConfig` validated.
///
/// Replan requests come from the fixed corpus (graphs, fault plans and
/// engine seeds), since LoC-MPS on the residual DAGs dominates them; the
/// seed draws the execute class, whose cost is smooth in its input, and
/// the order of the replan requests.
fn requests(seed: u64) -> Result<Vec<Request>, String> {
    let mut rng = Rng::new(seed, 3);
    let mut replan_slots: Vec<usize> = (0..PER_PASS / REPLAN_EVERY).collect();
    shuffle(&mut rng, &mut replan_slots);
    let mut out = Vec::with_capacity(PER_PASS);
    let (mut executes, mut replans) = (0usize, 0usize);
    for i in 0..PER_PASS {
        let replan = i % REPLAN_EVERY == REPLAN_EVERY - 1;
        let (graph, procs, recovery, mut draw) = if replan {
            let slot = replan_slots[replans];
            replans += 1;
            let class = Class::SYNTHETIC[slot % 3];
            let n = 10 + (slot / 3) % 21;
            let procs = if (slot / 4).is_multiple_of(2) { 16 } else { 32 };
            let g = corpus_graph(3, slot, n, class);
            (
                g,
                procs,
                REPLAN_RECOVERIES[slot % 4],
                Rng::new(2006, slot as u64),
            )
        } else {
            let class = Class::SYNTHETIC[executes % 3];
            let n = 100 + (executes / 3 * 10) % 201;
            let procs = if (executes / 2).is_multiple_of(2) {
                16
            } else {
                32
            };
            let recovery = EXECUTE_RECOVERIES[executes % 2];
            executes += 1;
            let g = synthetic(n, class, rng.next_u64());
            let draw = Rng::new(rng.next_u64(), 4);
            (g, procs, recovery, draw)
        };
        let graph = reparse(&graph)?;
        let lower_bound = makespan_lower_bound(&graph, procs);
        let spec = fault_spec(&mut draw, &graph, procs, lower_bound);
        let faults = FaultPlan::parse(&spec).map_err(|e| format!("{spec}: {e}"))?;
        let config = OnlineConfig {
            seed: draw.next_u64(),
            exec_cv: 0.1,
            straggler_threshold: 2.0,
            ..OnlineConfig::default()
        };
        config.validate().map_err(|e| e.to_string())?;
        out.push(Request {
            replan,
            cluster: Cluster::new(procs, 12.5),
            graph,
            faults,
            recovery,
            config,
            lower_bound,
        });
    }
    Ok(out)
}

/// Delegates to a recovery policy and adds up the CPU time spent in its
/// callbacks, so the traced run measures recovery from outside the engine.
struct TimedRecovery {
    inner: Box<dyn RecoveryPolicy>,
    spent_ms: f64,
}

impl TimedRecovery {
    fn timed<R>(&mut self, f: impl FnOnce(&mut dyn RecoveryPolicy) -> R) -> R {
        let c0 = cpu_ms();
        let r = f(self.inner.as_mut());
        self.spent_ms += cpu_ms() - c0;
        r
    }
}

impl RecoveryPolicy for TimedRecovery {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn prepare(&mut self, g: &TaskGraph, cluster: &Cluster) {
        self.timed(|p| p.prepare(g, cluster));
    }

    fn on_proc_failure(&mut self, ctx: &RecoveryCtx<'_>, proc: ProcId) {
        self.timed(|p| p.on_proc_failure(ctx, proc));
    }

    fn on_task_failure(&mut self, ctx: &RecoveryCtx<'_>, task: TaskId) -> RecoveryAction {
        self.timed(|p| p.on_task_failure(ctx, task))
    }

    fn on_straggler(
        &mut self,
        ctx: &RecoveryCtx<'_>,
        task: TaskId,
        attempt: u32,
    ) -> StragglerAction {
        self.timed(|p| p.on_straggler(ctx, task, attempt))
    }

    fn overrides_dispatch(&self) -> bool {
        self.inner.overrides_dispatch()
    }

    fn dispatch_recovery(
        &mut self,
        ctx: &RecoveryCtx<'_>,
        ready: &[TaskId],
        free: &ProcSet,
        stall: bool,
        log: &mut Vec<TraceEvent>,
    ) -> Vec<(TaskId, ProcSet)> {
        self.timed(|p| p.dispatch_recovery(ctx, ready, free, stall, log))
    }
}

/// One request's timings and trace; the parts are CPU times.
struct Single {
    took: Took,
    engine_ms: f64,
    /// Time inside the recovery policy's callbacks (traced runs only).
    recovery_ms: f64,
    audit_ms: f64,
    ingest_ms: Option<f64>,
    trace: ExecutionTrace,
    ok: bool,
}

/// One request: execute, audit, and (adaptive re-molds) ingest, as
/// `locmps run --json [--adapt]` does. A traced request times its
/// recovery policy through `TimedRecovery`.
fn request(r: &Request, id: u64, tracer: &mut Tracer) -> Single {
    sample_speed();
    let root = tracer.begin("runtime.request", None, id);
    let sw = Stopwatch::start();
    let mut policy = OnlineLocbs::default();
    let recovery = recovery_by_name(r.recovery).expect("registered recovery name");
    let mut timed_recovery = TimedRecovery {
        inner: recovery,
        spent_ms: 0.0,
    };
    let engine = RuntimeEngine::new(&r.graph, &r.cluster, r.config);
    let span = tracer.begin("runtime.engine.run_with_faults", Some(root), id);
    let (trace, engine_took) = timed(|| {
        if tracer.enabled() {
            engine.run_with_faults(&mut policy, &r.faults, &mut timed_recovery)
        } else {
            engine.run_with_faults(&mut policy, &r.faults, timed_recovery.inner.as_mut())
        }
    });
    tracer.end(span);
    let span = tracer.begin("analysis.analyze_trace", Some(root), id);
    let (report, audit) = timed(|| analyze_trace(&trace, &r.graph, &r.cluster));
    tracer.end(span);
    let mut ingest_ms = None;
    let mut ingested = true;
    if r.recovery == "remold" {
        let span = tracer.begin("runtime.perfmodel.ingest_trace", Some(root), id);
        let (ok, ingest) = timed(|| {
            PerfModelStore::new()
                .ingest_trace(&trace, &r.graph, &r.faults)
                .is_ok()
        });
        ingested = ok;
        ingest_ms = Some(ingest.cpu_ms);
        tracer.end(span);
    }
    let took = sw.took();
    tracer.end(root);
    let ok = trace.is_complete() && !report.has_errors() && ingested;
    Single {
        took,
        engine_ms: engine_took.cpu_ms,
        recovery_ms: timed_recovery.spent_ms,
        audit_ms: audit.cpu_ms,
        ingest_ms,
        trace,
        ok,
    }
}

/// What a pass accumulates; `totals` are exact trace counts.
#[derive(Default)]
struct Pass {
    took: Vec<Took>,
    failed: u64,
    quality: Vec<f64>,
    makespans: Vec<f64>,
    totals: Totals,
}

#[derive(Default, Clone, Copy)]
struct Totals {
    events: usize,
    retries: usize,
    procs_lost: usize,
    stragglers: usize,
    spec_launches: usize,
    spec_wins: usize,
    replans: usize,
    work_lost: f64,
}

impl Pass {
    fn record(&mut self, r: &Request, s: &Single) {
        self.took.push(s.took);
        if !s.ok {
            self.failed += 1;
            return;
        }
        let (t, tr) = (&mut self.totals, &s.trace);
        self.quality.push(tr.makespan / r.lower_bound);
        t.events += tr.events.len();
        t.retries += tr.retries();
        t.procs_lost += tr.procs_lost();
        t.stragglers += tr.stragglers_suspected();
        t.spec_launches += tr.speculative_launches();
        t.spec_wins += tr.speculative_wins();
        t.replans += tr.replans();
        t.work_lost += tr.work_lost();
        self.makespans.push(tr.makespan);
    }

    /// Exact values: equal on every pass of one seed.
    fn summary(self) -> PassSummary {
        let t = &self.totals;
        let mut exact = Outcome::default();
        exact.exact("runtime.quality_ratio", mean(&self.quality));
        exact.exact("runtime.failed", self.failed);
        exact.exact(
            "runtime.makespan_hash",
            format!("{:016x}", hash_bits(self.makespans)),
        );
        exact.exact("runtime.trace.events", t.events);
        exact.exact("runtime.trace.retries", t.retries);
        exact.exact("runtime.trace.procs_lost", t.procs_lost);
        exact.exact("runtime.trace.stragglers", t.stragglers);
        exact.exact("runtime.trace.spec_launches", t.spec_launches);
        exact.exact("runtime.trace.spec_wins", t.spec_wins);
        exact.exact("runtime.trace.replans", t.replans);
        exact.exact("runtime.trace.work_lost", t.work_lost);
        PassSummary {
            took: self.took,
            failed: self.failed,
            quality: self.quality,
            exact: exact.exact,
        }
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut reqs = Vec::new();
    for _ in 0..SETUP_REPS {
        sample_speed();
        let (r, took) = timed(|| requests(seed));
        reqs = r?;
        setups.push(took);
    }
    let mut off = Tracer::new(false);
    closed_loop("runtime", &setups, seconds, TAIL_Q, || {
        let mut pass = Pass::default();
        for (i, r) in reqs.iter().enumerate() {
            pass.record(r, &request(r, i as u64, &mut off));
        }
        pass.summary()
    })
}

/// The traced run: each request runs traced; some also run untraced for
/// the overhead estimate (`traced_pass`).
pub fn layers(seed: u64, out: &mut Outcome) -> Result<Tracer, String> {
    let reqs = requests(seed)?;
    let mut tracer = Tracer::new(true);
    let mut off = Tracer::new(false);
    let (runs, overhead) = traced_pass(
        reqs.len(),
        |i| usize::from(reqs[i].replan),
        |i| {
            let s = request(&reqs[i], i as u64, &mut tracer);
            (s.took, s)
        },
        |i| request(&reqs[i], i as u64, &mut off).took,
    );
    let mut pass = Pass::default();
    let mut singles = Vec::with_capacity(reqs.len());
    for (r, (_, s)) in reqs.iter().zip(runs) {
        pass.record(r, &s);
        singles.push((r.replan, s));
    }

    // The execute class prices one event of the loop: its engine time
    // outside the recovery callbacks over its events. Recovery is timed
    // directly (`TimedRecovery`), so the unattributed share is what the
    // replan class spends beyond its events at that price and its
    // recovery, plus the work around the spans.
    let class = |replan: bool| {
        singles
            .iter()
            .filter(move |(r, _)| *r == replan)
            .map(|(_, s)| s)
    };
    let exec_ms: Vec<f64> = class(false).map(|s| s.engine_ms).collect();
    let exec_loop_ms: f64 = class(false).map(|s| s.engine_ms - s.recovery_ms).sum();
    let exec_events: usize = class(false).map(|s| s.trace.events.len()).sum();
    let event_ms = exec_loop_ms / exec_events.max(1) as f64;
    let replan_recovery_ms: f64 = class(true).map(|s| s.recovery_ms).sum();
    let replans: usize = class(true).map(|s| s.trace.replans()).sum();
    let recovery_ms: f64 = singles.iter().map(|(_, s)| s.recovery_ms).sum();
    let audit_ms: Vec<f64> = singles.iter().map(|(_, s)| s.audit_ms).collect();
    let ingest_ms: Vec<f64> = singles.iter().filter_map(|(_, s)| s.ingest_ms).collect();
    let cpu: f64 = pass.took.iter().map(|t| t.cpu_ms).sum();
    let waited = wall_over_cpu(&pass.took);
    let totals = pass.totals;
    let summary = pass.summary();
    out.attempted += summary.took.len() as u64;
    out.failed += summary.failed;
    out.exact.extend(summary.exact);
    let t = &totals;
    let attributed = t.events as f64 * event_ms
        + recovery_ms
        + audit_ms.iter().sum::<f64>()
        + ingest_ms.iter().sum::<f64>();

    out.push("runtime.engine.execute_ms", median(&exec_ms), "ms");
    out.push("runtime.engine.event_us", event_ms * 1e3, "us");
    out.push("analysis.trace_audit_us", median(&audit_ms) * 1e3, "us");
    out.push(
        "runtime.perfmodel.ingest_us",
        median(&ingest_ms) * 1e3,
        "us",
    );
    out.push("runtime.trace.events", t.events as f64, "count");
    out.push("runtime.trace.retries", t.retries as f64, "count");
    out.push("runtime.trace.procs_lost", t.procs_lost as f64, "count");
    out.push("runtime.trace.stragglers", t.stragglers as f64, "count");
    out.push(
        "runtime.trace.spec_launches",
        t.spec_launches as f64,
        "count",
    );
    out.push("runtime.trace.spec_wins", t.spec_wins as f64, "count");
    out.push(
        "runtime.spec_win_ratio",
        t.spec_wins as f64 / t.spec_launches.max(1) as f64,
        "ratio",
    );
    out.push("runtime.trace.work_lost", t.work_lost, "proc-s");
    out.push(
        "runtime.recovery.replan_ms",
        replan_recovery_ms / replans.max(1) as f64,
        "ms",
    );
    out.push("runtime.trace.replans", t.replans as f64, "count");
    out.push(
        "unattributed_share.runtime",
        1.0 - attributed / cpu,
        "ratio",
    );
    out.push("wall_over_cpu.runtime", waited, "ratio");
    out.push("trace.overhead_share.runtime", overhead, "ratio");
    Ok(tracer)
}
