//! `search`: one `LocMps::default().schedule` call per request, closed
//! loop, one client.
//!
//! LoCBS placement and the refine loop do nearly all the work here; the
//! daemon, journal and event loop do none. The CCR mix keeps the
//! communication-cost model busy on two input classes and idle on the
//! third.

use locmps_analysis::analyze_schedule;
use locmps_core::{
    makespan_lower_bound, CommModel, LocMps, Locbs, LocbsOptions, Scheduler, SchedulerOutput,
    SearchCounters, WideningBounds,
};
use locmps_platform::Cluster;
use locmps_taskgraph::{ConcurrencyInfo, EdgeKind, TaskGraph, TaskId};

use crate::common::{
    application, closed_loop, corpus_graph, hash_bits, mean, median, reparse, sample_speed,
    shuffle, sorted, timed, traced_pass, unit_cost_us, wall_over_cpu, window_quantile, Class,
    Outcome, PassSummary, Rng, Took, Tracer,
};

/// Synthetic requests per CCR class in one pass, and application
/// requests per pass.
const PER_CLASS: usize = 36;
const APPS: usize = 12;
/// Set-ups timed per run; the median is reported.
const SETUP_REPS: usize = 5;
/// `request_cpu_tail_ms` is this percentile: a pass holds 120 requests, so at
/// least 12 lie beyond it in every run.
const TAIL_Q: f64 = 0.90;

struct Request {
    class: Class,
    cluster: Cluster,
    graph: TaskGraph,
    json: String,
    lower_bound: f64,
}

/// The fixed corpus: synthetic graphs (classes interleaved, sizes cycling
/// through 10–30 tasks, P alternating 16/32) and the two applications,
/// each rendered to JSON, parsed back and validated.
fn corpus() -> Result<Vec<Request>, String> {
    let total = 3 * PER_CLASS + APPS;
    let app_every = total / APPS;
    let mut synth = 0usize;
    (0..total)
        .map(|slot| {
            let (class, g) = if slot % app_every == app_every - 1 {
                (Class::Apps, application(slot / app_every))
            } else {
                let class = Class::SYNTHETIC[synth % 3];
                let n = 10 + (synth / 3) % 21;
                synth += 1;
                (class, corpus_graph(1, slot, n, class))
            };
            let procs = if slot % 2 == 0 { 16 } else { 32 };
            let json = g.to_json();
            let graph = reparse(&g)?;
            Ok(Request {
                class,
                cluster: Cluster::new(procs, 12.5),
                lower_bound: makespan_lower_bound(&graph, procs),
                graph,
                json,
            })
        })
        .collect()
}

/// Set-up: generate, render, parse back, validate, one warm-up schedule
/// (of the first corpus entry, the same for every seed).
fn setup(seed: u64) -> Result<(Vec<Request>, Took), String> {
    let (reqs, took) = timed(|| -> Result<_, String> {
        let mut reqs = corpus()?;
        LocMps::default()
            .schedule(&reqs[0].graph, &reqs[0].cluster)
            .map_err(|e| e.to_string())?;
        shuffle(&mut Rng::new(seed, 1), &mut reqs);
        Ok(reqs)
    });
    Ok((reqs?, took))
}

/// One request: the timed schedule call, then the output check. Returns
/// its timing and the output when it passed `analyze_schedule`.
fn request(r: &Request, id: u64, tracer: &mut Tracer) -> (Took, Option<SchedulerOutput>) {
    sample_speed();
    let root = tracer.begin("search.request", None, id);
    let call = tracer.begin("core.locmps.schedule", Some(root), id);
    let (result, took) = timed(|| LocMps::default().schedule(&r.graph, &r.cluster));
    tracer.end(call);
    let check = tracer.begin("analysis.analyze_schedule", Some(root), id);
    let model = CommModel::new(&r.cluster);
    let out = result.ok().filter(|out| {
        out.makespan().is_finite()
            && !analyze_schedule(&out.schedule, &r.graph, &model).has_errors()
    });
    tracer.end(check);
    tracer.end(root);
    (took, out)
}

/// What a pass accumulates.
struct Pass {
    took: Vec<Took>,
    failed: u64,
    quality: Vec<f64>,
    counters: SearchCounters,
    makespans: Vec<f64>,
}

impl Pass {
    fn new() -> Self {
        Self {
            took: Vec::new(),
            failed: 0,
            quality: Vec::new(),
            counters: SearchCounters::default(),
            makespans: Vec::new(),
        }
    }

    fn record(&mut self, r: &Request, took: Took, out: Option<&SchedulerOutput>) {
        self.took.push(took);
        let Some(out) = out else {
            self.failed += 1;
            return;
        };
        self.quality.push(out.makespan() / r.lower_bound);
        self.makespans.push(out.makespan());
        let (a, b) = (&mut self.counters, &out.counters);
        a.locbs_passes += b.locbs_passes;
        a.probes_aborted += b.probes_aborted;
        a.branches_pruned += b.branches_pruned;
        a.lookahead_cutoffs += b.lookahead_cutoffs;
        a.pass_memo_hits += b.pass_memo_hits;
        a.commits += b.commits;
    }

    /// Exact values: equal on every pass of one seed.
    fn summary(self) -> PassSummary {
        let c = &self.counters;
        let mut exact = Outcome::default();
        exact.exact("search.quality_ratio", mean(&self.quality));
        exact.exact("search.failed", self.failed);
        exact.exact(
            "search.makespan_hash",
            format!("{:016x}", hash_bits(self.makespans)),
        );
        exact.exact("search.locbs_passes", c.locbs_passes);
        exact.exact("search.probes_aborted", c.probes_aborted);
        exact.exact("search.branches_pruned", c.branches_pruned);
        exact.exact("search.lookahead_cutoffs", c.lookahead_cutoffs);
        exact.exact("search.pass_memo_hits", c.pass_memo_hits);
        exact.exact("search.commits", c.commits);
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
        let (r, s) = setup(seed)?;
        setups.push(s);
        reqs = r;
    }
    let mut off = Tracer::new(false);
    closed_loop("search", &setups, seconds, TAIL_Q, || {
        let mut pass = Pass::new();
        for (i, r) in reqs.iter().enumerate() {
            let (took, out) = request(r, i as u64, &mut off);
            pass.record(r, took, out.as_ref());
        }
        pass.summary()
    })
}

/// Unit costs of one request's layers, measured on its own input and
/// output right after it (outside its timed call).
struct Probe {
    pass_ms: f64,
    widening_ms: f64,
    critical_path_us: f64,
    concurrency_ms: f64,
    from_json_us: f64,
    transfer_us: Option<f64>,
}

fn probe(r: &Request, o: &SchedulerOutput) -> Probe {
    let model = CommModel::new(&r.cluster);
    let locbs = Locbs::new(model, LocbsOptions::default());
    let p = r.cluster.n_procs;
    let alloc = &o.allocation;
    let dag = o.schedule_dag.as_ref().unwrap_or(&r.graph);
    let placed = |t: TaskId| o.schedule.get(t).map(|s| &s.procs);
    let edges: Vec<_> = r
        .graph
        .edges()
        .filter_map(|(_, e)| Some((placed(e.src)?, placed(e.dst)?, e.volume)))
        .collect();
    Probe {
        pass_ms: unit_cost_us(3, || locbs.run(&r.graph, alloc)) / 1e3,
        widening_ms: unit_cost_us(3, || {
            WideningBounds::new(&r.graph, p).cone_bound(&r.graph, alloc)
        }) / 1e3,
        critical_path_us: unit_cost_us(5, || {
            dag.critical_path(
                |t: TaskId| dag.task(t).profile.time(alloc.np(t)),
                |e| match dag.edge(e).kind {
                    EdgeKind::Data => model.edge_estimate(dag, alloc, e),
                    EdgeKind::Pseudo => 0.0,
                },
            )
        }),
        concurrency_ms: unit_cost_us(3, || ConcurrencyInfo::compute(&r.graph)) / 1e3,
        from_json_us: unit_cost_us(3, || TaskGraph::from_json(&r.json)),
        transfer_us: (!edges.is_empty()).then(|| {
            unit_cost_us(3, || {
                edges
                    .iter()
                    .map(|(s, d, v)| model.transfer_time(s, d, *v))
                    .sum::<f64>()
            }) / edges.len() as f64
        }),
    }
}

/// The traced run: each request runs traced, then its unit-cost probes
/// run; some also run untraced for the overhead estimate (`traced_pass`).
pub fn layers(seed: u64, out: &mut Outcome) -> Result<Tracer, String> {
    let (reqs, _) = setup(seed)?;
    let mut tracer = Tracer::new(true);
    let mut off = Tracer::new(false);
    let (runs, overhead) = traced_pass(
        reqs.len(),
        |i| reqs[i].class as usize,
        |i| {
            let (took, o) = request(&reqs[i], i as u64, &mut tracer);
            let span = tracer.begin("probe.search", None, i as u64);
            let p = o.as_ref().map(|o| probe(&reqs[i], o));
            tracer.end(span);
            (took, (o, p))
        },
        |i| request(&reqs[i], i as u64, &mut off).0,
    );
    let mut pass = Pass::new();
    let mut probes = Vec::with_capacity(reqs.len());
    let (mut locbs_est, mut cp_est) = (0.0, 0.0);
    for (r, (took, (o, p))) in reqs.iter().zip(runs) {
        pass.record(r, took, o.as_ref());
        if let (Some(o), Some(p)) = (o, p) {
            let c = &o.counters;
            locbs_est += c.locbs_passes as f64 * p.pass_ms;
            cp_est += (c.locbs_passes + c.pass_memo_hits) as f64 * p.critical_path_us / 1e3;
            probes.push(p);
        }
    }
    let c = pass.counters;
    let class_p50: Vec<(Class, f64)> = Class::ALL
        .iter()
        .map(|&class| {
            let cpu: Vec<f64> = reqs
                .iter()
                .zip(&pass.took)
                .filter(|(r, _)| r.class == class)
                .map(|(_, t)| t.ref_cpu_ms())
                .collect();
            (class, window_quantile(&sorted(cpu), 0.5))
        })
        .collect();
    let cpu: f64 = pass.took.iter().map(|t| t.cpu_ms).sum();
    let waited = wall_over_cpu(&pass.took);
    let summary = pass.summary();
    out.attempted += summary.took.len() as u64;
    out.failed += summary.failed;
    out.exact.extend(summary.exact);

    let of = |f: fn(&Probe) -> f64| median(&probes.iter().map(f).collect::<Vec<_>>());
    out.push("core.locbs.pass_ms", of(|p| p.pass_ms), "ms");
    out.push("core.locbs.passes", c.locbs_passes as f64, "count");
    out.push(
        "core.locbs.probes_aborted",
        c.probes_aborted as f64,
        "count",
    );
    out.push("core.locbs.share", locbs_est / cpu, "ratio");
    out.push("core.locmps.memo_hits", c.pass_memo_hits as f64, "count");
    out.push(
        "core.locmps.memo_hit_ratio",
        c.pass_memo_hits as f64 / (c.pass_memo_hits + c.locbs_passes).max(1) as f64,
        "ratio",
    );
    out.push(
        "core.locmps.branches_pruned",
        c.branches_pruned as f64,
        "count",
    );
    out.push(
        "core.locmps.lookahead_cutoffs",
        c.lookahead_cutoffs as f64,
        "count",
    );
    out.push("core.locmps.commits", c.commits as f64, "count");
    out.push("core.bounds.widening_ms", of(|p| p.widening_ms), "ms");
    out.push(
        "taskgraph.critical_path_us",
        of(|p| p.critical_path_us),
        "us",
    );
    out.push("taskgraph.critical_path_share", cp_est / cpu, "ratio");
    out.push("taskgraph.concurrency_ms", of(|p| p.concurrency_ms), "ms");
    out.push("taskgraph.from_json_us", of(|p| p.from_json_us), "us");
    let transfer: Vec<f64> = probes.iter().filter_map(|p| p.transfer_us).collect();
    out.push("core.commcost.transfer_us", median(&transfer), "us");
    for (class, p50) in class_p50 {
        out.push(format!("ref_cpu_p50_ms.{}", class.label()), p50, "ms");
    }
    out.push(
        "unattributed_share.search",
        1.0 - (locbs_est + cp_est) / cpu,
        "ratio",
    );
    out.push("wall_over_cpu.search", waited, "ratio");
    out.push("trace.overhead_share.search", overhead, "ratio");
    Ok(tracer)
}
