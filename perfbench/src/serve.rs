//! `serve`: the in-memory `locmps serve` daemon, in process on loopback,
//! driven closed loop by one client over one connection at a time.
//!
//! Set-up boots the daemon and fills its cache with the resident job set.
//! In the measured phase most requests repeat a resident job (cache
//! hits: HTTP parsing, JSON decoding, fingerprinting and admission set the
//! median) and a steady trickle of jobs never seen before (misses: the
//! LoC-MPS computation on a worker) sets the tail. With one request in
//! flight, the process's CPU time across an exchange is the CPU time the
//! daemon and the client spent on that request.

use std::collections::BTreeMap;
use std::io::{Read, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use locmps_core::makespan_lower_bound;
use locmps_platform::Cluster;
use locmps_serve::http::{read_request, write_json};
use locmps_serve::journal::SubmitRecord;
use locmps_serve::{
    graph_fingerprint, job_fingerprint, scheduler_by_name, Journal, Record, ServeConfig, Server,
    ServerHandle,
};
use locmps_taskgraph::TaskGraph;
use serde::Value;

use crate::common::{
    corpus_graph, hash_bits, mean, median, ms, out_dir, percentile, reparse, sample_speed, sorted,
    timed, unit_cost_us, wall_over_cpu, Class, Outcome, Rng, Took, Tracer,
};

/// Requests in the measured phase per second of `--seconds`. The count is
/// fixed by `--seconds`, so every run of one seed sends the same requests.
const REQUESTS_PER_S: f64 = 100.0;
/// Every `MISS_EVERY`-th request is a job never seen before.
const MISS_EVERY: usize = 25;
const RESIDENT: usize = 24;
const TENANTS: usize = 4;
const SETUP_REPS: usize = 5;
const PROCS: usize = 16;
const BANDWIDTH: f64 = 12.5;
/// Resident jobs cycle through LoC-MPS and the cheaper registry
/// schedulers.
const RESIDENT_ALGOS: [&str; 6] = ["locmps", "tsas", "cpr", "cpa", "psonline", "data"];
/// Every miss runs LoC-MPS, so the slowest 1% of requests are the slowest
/// quarter of the run's LoC-MPS computations, where their costs lie close
/// together and the percentile moves little from run to run.
const MISS_ALGO: &str = "locmps";
/// `request_cpu_tail_ms` is this percentile: the 2000 requests of a 20 s
/// run leave 20 beyond it, all misses.
const TAIL_Q: f64 = 0.99;

struct Job {
    algo: &'static str,
    graph: TaskGraph,
    lower_bound: f64,
    /// The HTTP request per tenant.
    requests: Vec<String>,
}

/// Job `slot` of the fixed corpus: resident jobs first, then misses.
/// CCR class and size (10–25 tasks) vary independently, and so does the
/// scheduler of resident jobs.
fn job(slot: usize) -> Result<Job, String> {
    let (algo, class, size) = if slot < RESIDENT {
        let n = RESIDENT_ALGOS.len();
        (RESIDENT_ALGOS[slot % n], (slot / n) % 3, slot * 7)
    } else {
        let m = slot - RESIDENT;
        (MISS_ALGO, (m / 2) % 3, m / 2 * 7)
    };
    let class = Class::SYNTHETIC[class];
    let graph = reparse(&corpus_graph(2, slot, 10 + size % 16, class))?;
    let json = graph.to_json();
    let requests = (0..TENANTS)
        .map(|t| {
            let body = format!(
                "{{\"tenant\":\"tenant-{t}\",\"procs\":{PROCS},\"bandwidth\":{BANDWIDTH:?},\
                 \"algo\":\"{algo}\",\"wait\":true,\"graph\":{json}}}"
            );
            format!(
                "POST /v1/jobs HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            )
        })
        .collect();
    Ok(Job {
        algo,
        lower_bound: makespan_lower_bound(&graph, PROCS),
        graph,
        requests,
    })
}

/// The daemon's cache key of a schedule-only job.
fn fingerprint(job: &Job) -> u64 {
    job_fingerprint(
        graph_fingerprint(&job.graph),
        PROCS,
        BANDWIDTH,
        job.algo,
        None,
    )
}

/// The job corpus and request sequence: `(job index, tenant)` per
/// request. The misses run in corpus order at fixed positions, the same
/// for every seed; the seed picks each hit's resident job and every
/// request's tenant.
struct Plan {
    jobs: Vec<Job>,
    sequence: Vec<(usize, usize)>,
}

fn plan(seed: u64, seconds: f64) -> Result<Plan, String> {
    let requests = (REQUESTS_PER_S * seconds).round().max(1.0) as usize;
    let misses = requests.div_ceil(MISS_EVERY);
    let jobs = (0..RESIDENT + misses)
        .map(job)
        .collect::<Result<Vec<_>, _>>()?;
    let mut rng = Rng::new(seed, 2);
    let sequence = (0..requests)
        .map(|i| {
            let j = if i % MISS_EVERY == MISS_EVERY / 2 {
                RESIDENT + i / MISS_EVERY
            } else {
                rng.range(0, RESIDENT - 1)
            };
            (j, rng.range(0, TENANTS - 1))
        })
        .collect();
    Ok(Plan { jobs, sequence })
}

/// One HTTP exchange on a fresh connection; returns (status, body).
fn exchange(addr: SocketAddr, raw: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .write_all(raw.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut resp = String::new();
    stream
        .read_to_string(&mut resp)
        .map_err(|e| e.to_string())?;
    let status = resp
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {resp:?}"))?;
    let body = resp
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

fn get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nhost: perfbench\r\n\r\n"),
    )
}

fn parse(body: &str) -> Result<Vec<(String, Value)>, String> {
    match serde_json::from_str::<Value>(body).map_err(|e| e.to_string())? {
        Value::Object(o) => Ok(o),
        _ => Err(format!("not a JSON object: {body}")),
    }
}

fn uint(obj: &[(String, Value)], name: &str) -> Result<u64, String> {
    match serde::field(obj, name) {
        Ok(Value::UInt(n)) => Ok(*n),
        _ => Err(format!("field {name:?} missing or not an integer")),
    }
}

/// The `/v1/stats` counters.
fn stats(addr: SocketAddr) -> Result<BTreeMap<String, u64>, String> {
    let (status, body) = get(addr, "/v1/stats")?;
    if status != 200 {
        return Err(format!("/v1/stats answered {status}"));
    }
    Ok(parse(&body)?
        .into_iter()
        .filter_map(|(k, v)| match v {
            Value::UInt(n) => Some((k, n)),
            _ => None,
        })
        .collect())
}

/// A submission's outcome: job id when it came back 200 and `done`.
fn submit(addr: SocketAddr, raw: &str) -> Result<Option<u64>, String> {
    let (status, body) = exchange(addr, raw)?;
    if status != 200 {
        return Ok(None);
    }
    let obj = parse(&body)?;
    let done = matches!(serde::field(&obj, "state"), Ok(Value::Str(s)) if s == "done");
    done.then(|| uint(&obj, "job_id")).transpose()
}

struct Daemon {
    handle: ServerHandle,
    addr: SocketAddr,
    /// Job id of each resident job.
    resident_ids: Vec<Option<u64>>,
}

/// Set-up: boot the daemon (default config, except degradation off and
/// one worker) and fill its cache with the resident jobs.
///
/// The closed loop keeps at most one job in flight, so one worker does
/// what two would; with two, which of them takes a job is left to thread
/// timing.
fn boot(plan: &Plan) -> Result<(Daemon, Took), String> {
    let (daemon, took) = timed(|| -> Result<Daemon, String> {
        let cfg = ServeConfig {
            degradation: false,
            workers: 1,
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", cfg).map_err(|e| e.to_string())?;
        let addr = server.addr();
        let handle = server.spawn();
        let resident_ids = plan.jobs[..RESIDENT]
            .iter()
            .enumerate()
            .map(|(i, j)| submit(addr, &j.requests[i % TENANTS]))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Daemon {
            handle,
            addr,
            resident_ids,
        })
    });
    Ok((daemon?, took))
}

struct Sample {
    took: Took,
    job_id: Option<u64>,
}

struct Phase {
    /// One per request, in plan order.
    samples: Vec<Sample>,
    before: BTreeMap<String, u64>,
    after: BTreeMap<String, u64>,
}

/// The measured phase: the first `count` requests of the plan, closed
/// loop, each on a fresh connection once the previous one is answered.
fn measure(plan: &Plan, d: &Daemon, count: usize, tracer: &mut Tracer) -> Result<Phase, String> {
    let before = stats(d.addr)?;
    let mut samples = Vec::with_capacity(count);
    for (i, &(j, tenant)) in plan.sequence[..count].iter().enumerate() {
        sample_speed();
        let span = tracer.begin("serve.request", None, i as u64);
        // A request that errors counts as failed, like a refusal.
        let (job_id, took) = timed(|| {
            submit(d.addr, &plan.jobs[j].requests[tenant])
                .ok()
                .flatten()
        });
        tracer.end(span);
        samples.push(Sample { took, job_id });
    }
    Ok(Phase {
        samples,
        before,
        after: stats(d.addr)?,
    })
}

/// Output check after the phase: every distinct job's schedule from the
/// daemon equals a direct `scheduler_by_name` call on the same cluster.
/// Returns per-job verified makespans and the direct compute times.
fn verify(plan: &Plan, d: &Daemon, phase: &Phase) -> Result<(Vec<Option<f64>>, Vec<Took>), String> {
    let mut ids: Vec<Option<u64>> = d.resident_ids.clone();
    ids.resize(plan.jobs.len(), None);
    for (s, &(j, _)) in phase.samples.iter().zip(&plan.sequence) {
        if j >= RESIDENT {
            ids[j] = s.job_id;
        }
    }
    let mut makespans = Vec::with_capacity(plan.jobs.len());
    let mut compute = Vec::new();
    for (j, (job, id)) in plan.jobs.iter().zip(&ids).enumerate() {
        let Some(id) = id else {
            makespans.push(None);
            continue;
        };
        let (status, body) = get(d.addr, &format!("/v1/jobs/{id}/schedule"))?;
        let scheduler = scheduler_by_name(job.algo)?;
        let (direct, took) =
            timed(|| scheduler.schedule(&job.graph, &Cluster::new(PROCS, BANDWIDTH)));
        let direct = direct.map_err(|e| e.to_string())?;
        if j >= RESIDENT {
            compute.push(took);
        }
        let agrees = status == 200
            && parse(&body).is_ok_and(|obj| {
                let makespan = matches!(serde::field(&obj, "makespan"),
                    Ok(Value::Float(m)) if m.to_bits() == direct.makespan().to_bits());
                let alloc: Option<Vec<u64>> = serde::field(&obj, "allocation")
                    .ok()
                    .and_then(Value::as_array)
                    .map(|a| {
                        a.iter()
                            .filter_map(|v| match v {
                                Value::UInt(n) => Some(*n),
                                _ => None,
                            })
                            .collect()
                    });
                let expected: Vec<u64> = direct
                    .allocation
                    .as_slice()
                    .iter()
                    .map(|&n| n as u64)
                    .collect();
                makespan && alloc == Some(expected)
            });
        makespans.push(agrees.then(|| direct.makespan()));
    }
    Ok((makespans, compute))
}

fn delta(phase: &Phase, key: &str) -> u64 {
    phase.after.get(key).copied().unwrap_or(0) - phase.before.get(key).copied().unwrap_or(0)
}

/// Per-request verdicts: the quality of each completed request.
struct Scored {
    quality: Vec<f64>,
    failed: u64,
}

fn score(plan: &Plan, phase: &Phase, makespans: &[Option<f64>]) -> Scored {
    let mut s = Scored {
        quality: Vec::new(),
        failed: 0,
    };
    for (sample, &(j, _)) in phase.samples.iter().zip(&plan.sequence) {
        match (sample.job_id, makespans[j]) {
            (Some(_), Some(m)) => {
                s.quality.push(m / plan.jobs[j].lower_bound);
            }
            _ => s.failed += 1,
        }
    }
    s
}

fn exact(phase: &Phase, scored: &Scored, makespans: &[Option<f64>], out: &mut Outcome) {
    out.exact("serve.quality_ratio", mean(&scored.quality));
    out.exact("serve.failed", scored.failed);
    let hash = hash_bits(makespans.iter().map(|m| m.unwrap_or(f64::NAN)));
    out.exact("serve.makespan_hash", format!("{hash:016x}"));
    // `coalesced` depends on timing and is left out.
    for key in [
        "submitted",
        "completed",
        "failed",
        "cache_hits",
        "cache_misses",
        "rejected_quota",
        "rejected_queue",
        "shed",
        "schedules_computed",
    ] {
        out.exact(format!("serve.svc.{key}"), delta(phase, key));
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let plan = plan(seed, seconds)?;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut daemon: Option<Daemon> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = daemon.take() {
            old.handle.shutdown();
        }
        sample_speed();
        let (d, took) = boot(&plan)?;
        setups.push(took);
        daemon = Some(d);
    }
    let d = daemon.expect("at least one set-up");
    let phase = measure(&plan, &d, plan.sequence.len(), &mut Tracer::new(false))?;
    let (makespans, _) = verify(&plan, &d, &phase)?;
    d.handle.shutdown();

    let scored = score(&plan, &phase, &makespans);
    let mut out = Outcome {
        failed: scored.failed,
        ..Outcome::default()
    };
    exact(&phase, &scored, &makespans, &mut out);
    let took: Vec<Took> = phase.samples.iter().map(|s| s.took).collect();
    out.end_to_end(&setups, &took, TAIL_Q, &scored.quality);
    Ok(out)
}

/// The traced run: an untraced reference phase over the first quarter of
/// the requests and the full traced phase, on fresh daemons; then
/// unit-cost probes of the hit path and the journal on the same inputs.
pub fn layers(seed: u64, seconds: f64, out: &mut Outcome) -> Result<Tracer, String> {
    let plan = plan(seed, seconds)?;
    let (d, _) = boot(&plan)?;
    let plain = measure(&plan, &d, plan.sequence.len() / 4, &mut Tracer::new(false))?;
    d.handle.shutdown();
    let (d, _) = boot(&plan)?;
    let mut tracer = Tracer::new(true);
    let phase = measure(&plan, &d, plan.sequence.len(), &mut tracer)?;
    let (makespans, compute) = verify(&plan, &d, &phase)?;
    let (_, ack) = exchange(d.addr, &plan.jobs[0].requests[0])?;
    d.handle.shutdown();
    let scored = score(&plan, &phase, &makespans);
    exact(&phase, &scored, &makespans, out);
    out.attempted += phase.samples.len() as u64;
    out.failed += scored.failed;

    let took: Vec<Took> = phase.samples.iter().map(|s| s.took).collect();
    let wall_p50 = |hit: bool| {
        median(
            &took
                .iter()
                .zip(&plan.sequence)
                .filter(|(_, &(j, _))| (j < RESIDENT) == hit)
                .map(|(t, _)| t.wall_ms)
                .collect::<Vec<_>>(),
        )
    };
    let hit_p50 = wall_p50(true);
    let miss_p50 = wall_p50(false);
    let compute_ms = median(&compute.iter().map(|t| t.wall_ms).collect::<Vec<_>>());

    // Unit costs of the hit path, on every distinct request.
    let probe = tracer.begin("probe.serve.hit_path", None, 0);
    let (mut read_us, mut decode_us, mut fp_us) = (Vec::new(), Vec::new(), Vec::new());
    for job in &plan.jobs {
        let raw = &job.requests[0];
        read_us.push(unit_cost_us(5, || read_request(raw.as_bytes())));
        let body = raw.split_once("\r\n\r\n").map_or("", |(_, b)| b);
        decode_us.push(unit_cost_us(5, || -> Result<TaskGraph, String> {
            let v: Value = serde_json::from_str(body).map_err(|e| e.to_string())?;
            let obj = v.as_object().ok_or("not an object")?;
            let spec = serde::field(obj, "graph").map_err(|e| e.to_string())?;
            TaskGraph::from_json(&serde_json::to_string(spec).map_err(|e| e.to_string())?)
        }));
        fp_us.push(unit_cost_us(5, || fingerprint(job)));
    }
    let write_us = unit_cost_us(101, || {
        let mut sink = Vec::with_capacity(512);
        write_json(&mut sink, 200, &ack).map(|()| sink)
    });
    tracer.end(probe);
    let hit_path_ms = (median(&read_us) + median(&decode_us) + median(&fp_us) + write_us) / 1e3;

    // The journal cost a durable daemon would add: one fsync'd `Submit`
    // append per request, then a replay of the whole log.
    let probe = tracer.begin("probe.serve.journal", None, 0);
    let path = out_dir().join(format!("journal-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (mut journal, _) = Journal::open(&path).map_err(|e| e.to_string())?;
    let mut append_ms = Vec::with_capacity(phase.samples.len());
    for (n, &(j, tenant)) in plan.sequence.iter().enumerate() {
        let job = &plan.jobs[j];
        let record = Record::Submit(SubmitRecord {
            id: n as u64 + 1,
            fingerprint: fingerprint(job),
            tenant: format!("tenant-{tenant}"),
            graph_json: job.graph.to_json(),
            procs: PROCS as u64,
            bandwidth: BANDWIDTH,
            algo: job.algo.to_string(),
            degraded: false,
            deadline_ms: None,
            run: None,
        });
        let t0 = Instant::now();
        journal.append(&record).map_err(|e| e.to_string())?;
        append_ms.push(ms(t0));
    }
    drop(journal);
    let t0 = Instant::now();
    let (_, replay) = Journal::open(&path).map_err(|e| e.to_string())?;
    let replay_ms = ms(t0);
    let _ = std::fs::remove_file(&path);
    if replay.records.len() != append_ms.len() {
        return Err("journal replay lost records".into());
    }
    tracer.end(probe);

    let cpu: f64 = took.iter().map(|t| t.cpu_ms).sum();
    let attributed =
        took.len() as f64 * hit_path_ms + compute.iter().map(|t| t.cpu_ms).sum::<f64>();
    let submitted = delta(&phase, "submitted").max(1) as f64;
    out.push("http.read_request_us", median(&read_us), "us");
    out.push("http.write_json_us", write_us, "us");
    out.push("serve.decode_us", median(&decode_us), "us");
    out.push("serve.fingerprint_us", median(&fp_us), "us");
    out.push("serve.hit_latency_p50_ms", hit_p50, "ms");
    out.push("serve.hit_unattributed_ms", hit_p50 - hit_path_ms, "ms");
    out.push(
        "svc.cache_hit_ratio",
        delta(&phase, "cache_hits") as f64 / submitted,
        "ratio",
    );
    for key in [
        "coalesced",
        "schedules_computed",
        "rejected_quota",
        "rejected_queue",
        "shed",
    ] {
        out.push(format!("svc.{key}"), delta(&phase, key) as f64, "count");
    }
    out.push("serve.miss_latency_p50_ms", miss_p50, "ms");
    out.push("serve.compute_ms", compute_ms, "ms");
    out.push("serve.queue_wait_ms", miss_p50 - compute_ms - hit_p50, "ms");
    let append_sorted = sorted(append_ms);
    out.push(
        "serve.journal.submit_append_ms",
        percentile(&append_sorted, 0.5),
        "ms",
    );
    out.push(
        "serve.journal.submit_append_p99_ms",
        percentile(&append_sorted, 0.99),
        "ms",
    );
    out.push("serve.journal.replay_ms", replay_ms, "ms");
    out.push("unattributed_share.serve", 1.0 - attributed / cpu, "ratio");
    out.push("wall_over_cpu.serve", wall_over_cpu(&took), "ratio");
    // The reference phase covers the same leading requests.
    let n = plain.samples.len();
    let p50 = |p: &Phase| {
        percentile(
            &sorted(p.samples[..n].iter().map(|s| s.took.cpu_ms).collect()),
            0.5,
        )
    };
    out.push(
        "trace.overhead_share.serve",
        p50(&phase) / p50(&plain) - 1.0,
        "ratio",
    );
    Ok(tracer)
}
