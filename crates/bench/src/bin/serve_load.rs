//! Load, recovery and overload experiments for the `locmps serve` daemon.
//!
//! Three experiments, all against real daemon instances, written together
//! to `BENCH_serve.json`:
//!
//! 1. **Throughput** — hammers an HTTP daemon from concurrent
//!    mixed-tenant clients drawing from a small pool of distinct DAGs (so
//!    duplicates exercise the schedule cache); records p50/p95/p99 and
//!    the daemon's own counters.
//! 2. **Recovery** — builds a journal by admitting a burst with zero
//!    workers, drops the service cold (no drain — the crash image), then
//!    measures replay time and time-to-drain after reopening the journal.
//! 3. **Overload** — drives a daemon at ~4x worker saturation twice,
//!    with graceful degradation on and off, and compares the p99
//!    submit-to-done latency. Degradation must shed tail latency
//!    (p99 ratio >= 3x) and neither run may produce a 5xx.
//!
//! The run **fails** (exit 1) if any invariant breaks: a non-200
//! submission in the throughput run, a job that does not finish `done`, a
//! lost acknowledgement, a fingerprint scheduled more than once, a lost
//! journaled job, a 5xx under overload, or a degradation tail-latency win
//! below 3x.
//!
//! ```sh
//! cargo run --release -p locmps-bench --bin serve_load [-- --quick] [--out DIR]
//! ```

use std::collections::HashSet;
use std::io::{Read, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use locmps_bench::experiments::ExperimentCtx;
use locmps_serve::{JobSpec, Mode, ServeConfig, Server, Service};
use locmps_workloads::synthetic::{synthetic_graph, SyntheticConfig};
use serde::{Serialize, Value};

/// One HTTP exchange; returns (status, body).
fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split(' ').next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Pulls `"name":<uint>` out of a flat JSON object body.
fn uint_field(body: &str, name: &str) -> u64 {
    let value: Value = serde_json::from_str(body).expect("daemon emits valid JSON");
    match serde::field(value.as_object().expect("object body"), name) {
        Ok(Value::UInt(n)) => *n,
        other => panic!("field {name:?} missing or not an integer: {other:?}"),
    }
}

struct RequestOutcome {
    millis: f64,
    cached: bool,
    job_id: u64,
    fingerprint: String,
}

#[derive(Serialize)]
struct LatencyStats {
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    mean_ms: f64,
    max_ms: f64,
}

#[derive(Serialize)]
struct BenchFile {
    quick: bool,
    client_threads: usize,
    submissions: usize,
    tenants: usize,
    distinct_jobs: usize,
    wall_seconds: f64,
    throughput_per_sec: f64,
    latency: LatencyStats,
    cache_hit_rate: f64,
    daemon: DaemonCounters,
    recovery: RecoveryStats,
    overload: OverloadStats,
}

#[derive(Serialize)]
struct DaemonCounters {
    submitted: u64,
    completed: u64,
    failed: u64,
    cache_hits: u64,
    cache_misses: u64,
    coalesced: u64,
    schedules_computed: u64,
}

/// Crash-recovery experiment: journal replay + drain after a cold drop.
#[derive(Serialize)]
struct RecoveryStats {
    /// Jobs acknowledged (and journaled) before the simulated crash.
    jobs_acked: u64,
    /// Jobs the reopened daemon re-admitted from the journal.
    recovered_jobs: u64,
    /// Wall time for open + replay + re-admit, ms.
    replay_ms: f64,
    /// Wall time from reopen until every recovered job was terminal, ms.
    drain_ms: f64,
    /// Distinct schedules computed after recovery (coalescing dedups the
    /// burst down to the distinct-fingerprint count).
    schedules_computed: u64,
}

/// One overload run (degradation on or off) at ~4x worker saturation.
#[derive(Serialize)]
struct OverloadRun {
    degradation: bool,
    submissions: usize,
    accepted: usize,
    shed: usize,
    server_errors: usize,
    degraded_jobs: u64,
    degraded_fraction: f64,
    p50_ms: f64,
    p99_ms: f64,
}

#[derive(Serialize)]
struct OverloadStats {
    /// Concurrent blocking clients per scheduling worker.
    saturation: usize,
    on: OverloadRun,
    off: OverloadRun,
    /// `off.p99_ms / on.p99_ms` — how much tail latency degradation sheds.
    p99_ratio: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// The throughput experiment: mixed-tenant cacheable load, strict
/// accounting invariants.
fn throughput_experiment(
    quick: bool,
) -> (
    usize,
    usize,
    usize,
    f64,
    LatencyStats,
    f64,
    DaemonCounters,
    usize,
) {
    let (threads, per_thread) = if quick { (4, 30) } else { (8, 50) };
    const TENANTS: usize = 4;
    const VARIANTS: usize = 12;
    let algos = ["locmps", "cpr", "data"];

    // Pre-render the submission bodies: a pool of distinct synthetic DAGs
    // crossed with a few algorithms, reused round-robin so a large share
    // of the load is cacheable duplicates — exactly the multi-tenant
    // pattern the daemon is built for.
    let bodies: Vec<String> = (0..VARIANTS)
        .map(|i| {
            let g = synthetic_graph(&SyntheticConfig {
                n_tasks: 16 + 2 * (i % 4),
                seed: i as u64,
                ..SyntheticConfig::default()
            });
            let algo = algos[i % algos.len()];
            format!(
                "{{\"procs\":16,\"bandwidth\":125.0,\"algo\":\"{algo}\",\"wait\":true,\"graph\":{}}}",
                g.to_json()
            )
        })
        .collect();

    // Degradation off: the accounting invariants below assume every job
    // runs its requested scheduler; the overload experiment is where
    // degradation is probed deliberately.
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 4,
            queue_cap: 256,
            tenant_quota: 256,
            degradation: false,
            ..ServeConfig::default()
        },
    )
    .expect("bind daemon");
    let addr = server.addr();
    let handle = server.spawn();

    let started = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let bodies = bodies.clone();
            std::thread::spawn(move || {
                let mut outcomes = Vec::with_capacity(per_thread);
                for i in 0..per_thread {
                    let n = t * per_thread + i;
                    let body = bodies[n % bodies.len()].replacen(
                        "{\"procs\"",
                        &format!("{{\"tenant\":\"tenant-{}\",\"procs\"", n % TENANTS),
                        1,
                    );
                    let t0 = Instant::now();
                    let (status, resp) = exchange(addr, "POST", "/v1/jobs", &body);
                    let millis = t0.elapsed().as_secs_f64() * 1e3;
                    assert_eq!(status, 200, "submission failed: {resp}");
                    assert!(resp.contains("\"state\":\"done\""), "not done: {resp}");
                    let fingerprint = resp
                        .split("\"fingerprint\":\"")
                        .nth(1)
                        .and_then(|r| r.split('"').next())
                        .expect("ack carries a fingerprint")
                        .to_string();
                    outcomes.push(RequestOutcome {
                        millis,
                        cached: resp.contains("\"cached\":true"),
                        job_id: uint_field(&resp, "job_id"),
                        fingerprint,
                    });
                }
                outcomes
            })
        })
        .collect();

    let mut outcomes = Vec::new();
    for w in workers {
        outcomes.extend(w.join().expect("client thread"));
    }
    let wall = started.elapsed().as_secs_f64();
    let total = outcomes.len();

    // Invariants before statistics: nothing lost, nothing double-scheduled.
    let ids: HashSet<u64> = outcomes.iter().map(|o| o.job_id).collect();
    assert_eq!(ids.len(), total, "daemon handed out duplicate job ids");
    let fps: HashSet<&str> = outcomes.iter().map(|o| o.fingerprint.as_str()).collect();
    let (status, stats_body) = exchange(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    let daemon = DaemonCounters {
        submitted: uint_field(&stats_body, "submitted"),
        completed: uint_field(&stats_body, "completed"),
        failed: uint_field(&stats_body, "failed"),
        cache_hits: uint_field(&stats_body, "cache_hits"),
        cache_misses: uint_field(&stats_body, "cache_misses"),
        coalesced: uint_field(&stats_body, "coalesced"),
        schedules_computed: uint_field(&stats_body, "schedules_computed"),
    };
    assert_eq!(daemon.submitted, total as u64, "lost submissions");
    assert_eq!(daemon.completed, total as u64, "unfinished jobs");
    assert_eq!(daemon.failed, 0, "failed jobs under load");
    assert_eq!(
        daemon.schedules_computed, daemon.cache_misses,
        "a fingerprint was scheduled more than once"
    );
    assert_eq!(
        daemon.cache_misses as usize,
        fps.len(),
        "misses must equal distinct fingerprints"
    );
    assert!(daemon.cache_hits > 0, "duplicate submissions never hit");

    let mut sorted: Vec<f64> = outcomes.iter().map(|o| o.millis).collect();
    sorted.sort_by(f64::total_cmp);
    let latency = LatencyStats {
        p50_ms: percentile(&sorted, 0.50),
        p95_ms: percentile(&sorted, 0.95),
        p99_ms: percentile(&sorted, 0.99),
        mean_ms: sorted.iter().sum::<f64>() / total as f64,
        max_ms: *sorted.last().expect("at least one request"),
    };
    let hit_rate = daemon.cache_hits as f64 / total as f64;
    // `cached` in the ack means "answered by a finished entry"; coalesced
    // waiters also count as hits in the daemon's ledger.
    let acked_cached = outcomes.iter().filter(|o| o.cached).count() as u64;
    assert!(acked_cached <= daemon.cache_hits);

    println!(
        "{total} submissions / {threads} threads in {wall:.2}s  \
         ({:.1} req/s, hit rate {:.0}%)",
        total as f64 / wall,
        hit_rate * 100.0
    );
    println!(
        "latency ms: p50 {:.2}  p95 {:.2}  p99 {:.2}  max {:.2}",
        latency.p50_ms, latency.p95_ms, latency.p99_ms, latency.max_ms
    );

    let (status, _) = exchange(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    handle.shutdown();

    (
        threads,
        total,
        TENANTS,
        wall,
        latency,
        hit_rate,
        daemon,
        fps.len(),
    )
}

/// A service-level submission for the recovery burst (`i` picks a variant
/// from a small pool so coalescing and caching both engage on replay).
fn recovery_spec(i: usize) -> JobSpec {
    const VARIANTS: usize = 10;
    let g = synthetic_graph(&SyntheticConfig {
        n_tasks: 14 + 2 * (i % VARIANTS),
        seed: (i % VARIANTS) as u64,
        ..SyntheticConfig::default()
    });
    JobSpec {
        tenant: format!("tenant-{}", i % 4),
        graph: g,
        procs: 16,
        bandwidth: 125.0,
        algo: "locmps".into(),
        mode: Mode::Schedule,
        deadline_ms: None,
    }
}

/// The recovery experiment: admit a burst with zero workers (every ack is
/// journaled but nothing runs), drop the service cold, reopen and measure
/// replay + drain.
fn recovery_experiment(quick: bool, tmp: &std::path::Path) -> RecoveryStats {
    let jobs = if quick { 40 } else { 100 };
    let journal = tmp.join("bench-recovery.journal");
    let _ = std::fs::remove_file(&journal);

    // Phase A: admission only. workers: 0 means acks are durable but no
    // schedule ever starts — the worst-case crash image.
    let build = ServeConfig {
        workers: 0,
        queue_cap: jobs,
        tenant_quota: jobs,
        degradation: false,
        ..ServeConfig::default()
    };
    let svc = Service::start_with_journal(build, &journal).expect("fresh journal");
    let mut acked = 0u64;
    for i in 0..jobs {
        match svc.submit(recovery_spec(i)) {
            Ok(_) => acked += 1,
            Err(e) => panic!("admission-only burst refused a job: {e:?}"),
        }
    }
    drop(svc); // no drain: the crash

    // Phase B: reopen, replay, drain.
    let serve = ServeConfig {
        workers: 2,
        queue_cap: jobs,
        tenant_quota: jobs,
        degradation: false,
        ..ServeConfig::default()
    };
    let t0 = Instant::now();
    let svc = Service::start_with_journal(serve, &journal).expect("replay journal");
    let replay_ms = t0.elapsed().as_secs_f64() * 1e3;
    let recovered = svc.stats().recovered_jobs;
    assert_eq!(recovered, acked, "a journaled job was lost in replay");

    let t1 = Instant::now();
    loop {
        let s = svc.stats();
        if s.completed + s.failed >= s.submitted {
            assert_eq!(s.failed, 0, "recovered jobs must complete");
            break;
        }
        assert!(
            t1.elapsed() < Duration::from_secs(120),
            "recovered burst did not drain"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let drain_ms = t1.elapsed().as_secs_f64() * 1e3;
    let schedules = svc.stats().schedules_computed;
    svc.shutdown();
    let _ = std::fs::remove_file(&journal);

    println!(
        "recovery: {acked} jobs replayed in {replay_ms:.1} ms, drained in {drain_ms:.1} ms \
         ({schedules} schedules)"
    );
    RecoveryStats {
        jobs_acked: acked,
        recovered_jobs: recovered,
        replay_ms,
        drain_ms,
        schedules_computed: schedules,
    }
}

/// One overload run over HTTP: `threads` blocking (`wait:true`) clients
/// against 2 workers, every submission a distinct fingerprint.
fn overload_run(quick: bool, degradation: bool, run_tag: u64) -> OverloadRun {
    let threads = 8; // 4x the 2 scheduling workers
    let per_thread = if quick { 4 } else { 8 };
    // One fixed graph, large enough that a full LoC-MPS pass visibly
    // saturates two workers. Every submission perturbs the bandwidth by
    // an epsilon instead of the topology: fingerprints stay distinct (no
    // cache hits) while per-job compute cost stays uniform, so the
    // comparison measures queueing policy, not per-seed topology variance.
    let graph_json = synthetic_graph(&SyntheticConfig {
        n_tasks: 48,
        seed: 7,
        ..SyntheticConfig::default()
    })
    .to_json();

    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            queue_cap: 64,
            tenant_quota: 64,
            degradation,
            // Thresholds scaled to the run: degrade once a worker's worth
            // of queue builds, shed near the saturation depth.
            degrade_queue: 2,
            shed_queue: 6,
            ..ServeConfig::default()
        },
    )
    .expect("bind daemon");
    let addr = server.addr();
    let handle = server.spawn();

    let clients: Vec<_> = (0..threads)
        .map(|t| {
            let graph_json = graph_json.clone();
            std::thread::spawn(move || {
                let mut accepted_ms = Vec::new();
                let mut shed = 0usize;
                let mut server_errors = 0usize;
                for i in 0..per_thread {
                    let n = (t * per_thread + i) as u64;
                    // Distinct fingerprint per submission: never cached.
                    let bandwidth = 125.0 + (run_tag * 100_000 + n) as f64 * 1e-3;
                    let body = format!(
                        "{{\"tenant\":\"tenant-{t}\",\"procs\":32,\"bandwidth\":{bandwidth},\
                         \"algo\":\"locmps\",\"wait\":true,\"graph\":{graph_json}}}",
                    );
                    let t0 = Instant::now();
                    let (status, resp) = exchange(addr, "POST", "/v1/jobs", &body);
                    let millis = t0.elapsed().as_secs_f64() * 1e3;
                    match status {
                        200 => {
                            assert!(resp.contains("\"state\":\"done\""), "not done: {resp}");
                            accepted_ms.push(millis);
                        }
                        429 => shed += 1,
                        s if s >= 500 => server_errors += 1,
                        s => panic!("unexpected status {s}: {resp}"),
                    }
                }
                (accepted_ms, shed, server_errors)
            })
        })
        .collect();

    let mut accepted_ms = Vec::new();
    let mut shed = 0usize;
    let mut server_errors = 0usize;
    for c in clients {
        let (ms, s, e) = c.join().expect("overload client");
        accepted_ms.extend(ms);
        shed += s;
        server_errors += e;
    }
    let submissions = threads * per_thread;

    let (status, stats_body) = exchange(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    let degraded_jobs = uint_field(&stats_body, "degraded_jobs");
    let submitted = uint_field(&stats_body, "submitted").max(1);

    let (status, _) = exchange(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    handle.shutdown();

    accepted_ms.sort_by(f64::total_cmp);
    assert!(!accepted_ms.is_empty(), "overload run accepted nothing");
    let run = OverloadRun {
        degradation,
        submissions,
        accepted: accepted_ms.len(),
        shed,
        server_errors,
        degraded_jobs,
        degraded_fraction: degraded_jobs as f64 / submitted as f64,
        p50_ms: percentile(&accepted_ms, 0.50),
        p99_ms: percentile(&accepted_ms, 0.99),
    };
    println!(
        "overload (degradation {}): {} accepted, {} shed, {} 5xx, \
         p50 {:.1} ms, p99 {:.1} ms, degraded {:.0}%",
        if degradation { "on" } else { "off" },
        run.accepted,
        run.shed,
        run.server_errors,
        run.p50_ms,
        run.p99_ms,
        run.degraded_fraction * 100.0
    );
    run
}

/// The overload experiment: same 4x-saturation load with degradation on
/// vs off; degradation must shed tail latency without a single 5xx.
fn overload_experiment(quick: bool) -> OverloadStats {
    let off = overload_run(quick, false, 1);
    let on = overload_run(quick, true, 2);
    assert_eq!(off.server_errors, 0, "5xx with degradation off");
    assert_eq!(on.server_errors, 0, "5xx with degradation on");
    assert!(
        on.degraded_jobs + (on.shed as u64) > 0,
        "degradation never engaged"
    );
    let p99_ratio = off.p99_ms / on.p99_ms.max(1e-9);
    assert!(
        p99_ratio >= 3.0,
        "degradation sheds too little tail latency: off p99 {:.1} ms / on p99 {:.1} ms = {:.2}x (need >= 3x)",
        off.p99_ms,
        on.p99_ms,
        p99_ratio
    );
    println!("overload p99 ratio (off/on): {p99_ratio:.1}x");
    OverloadStats {
        saturation: 4,
        on,
        off,
        p99_ratio,
    }
}

fn main() {
    let ctx = ExperimentCtx::from_env();

    let (threads, total, tenants, wall, latency, hit_rate, daemon, distinct) =
        throughput_experiment(ctx.quick);
    let recovery = recovery_experiment(ctx.quick, &std::env::temp_dir());
    let overload = overload_experiment(ctx.quick);

    let file = BenchFile {
        quick: ctx.quick,
        client_threads: threads,
        submissions: total,
        tenants,
        distinct_jobs: distinct,
        wall_seconds: wall,
        throughput_per_sec: total as f64 / wall,
        latency,
        cache_hit_rate: hit_rate,
        daemon,
        recovery,
        overload,
    };
    let json = serde_json::to_string_pretty_checked(&file)
        .expect("load statistics are finite and serialize");
    let path = ctx.out_dir.join("BENCH_serve.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("warning: could not save {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}
