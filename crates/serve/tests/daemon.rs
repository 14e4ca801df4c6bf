//! End-to-end daemon tests: a real listener on an OS-assigned port,
//! driven over raw `TcpStream`s, plus a concurrent-submission stress of
//! the service core proving the cache, quota, and drain invariants.

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use locmps_serve::{
    JobErrorKind, JobSpec, JobState, Mode, RunParams, ServeConfig, Server, Service, SubmitError,
};
use locmps_speedup::ExecutionProfile;
use locmps_taskgraph::TaskGraph;

fn diamond(work: f64, volume: f64) -> TaskGraph {
    let mut g = TaskGraph::new();
    let ids: Vec<_> = (0..4)
        .map(|i| g.add_task(format!("t{i}"), ExecutionProfile::linear(work)))
        .collect();
    g.add_edge(ids[0], ids[1], volume).unwrap();
    g.add_edge(ids[0], ids[2], volume).unwrap();
    g.add_edge(ids[1], ids[3], volume).unwrap();
    g.add_edge(ids[2], ids[3], volume).unwrap();
    g
}

/// One HTTP exchange against the daemon; returns the raw response text.
fn exchange_raw(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    raw
}

/// One HTTP exchange against the daemon; returns (status, body).
fn exchange(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let raw = exchange_raw(addr, method, path, body);
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

fn temp_journal(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("locmps-daemon-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.log");
    let _ = std::fs::remove_file(&path);
    path
}

fn submit_body(graph: &TaskGraph, tenant: &str, wait: bool) -> String {
    format!(
        "{{\"tenant\":\"{tenant}\",\"procs\":4,\"bandwidth\":125.0,\"algo\":\"locmps\",\"wait\":{wait},\"graph\":{}}}",
        graph.to_json()
    )
}

#[test]
fn daemon_serves_the_full_protocol() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.addr();
    let handle = server.spawn();

    let (status, body) = exchange(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\":true"), "{body}");
    assert!(body.contains("\"health\":\"full\""), "{body}");

    let (status, body) = exchange(addr, "GET", "/v1/schedulers", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"locmps\""), "{body}");

    // Submit synchronously; the ack carries the terminal state.
    let g = diamond(10.0, 100.0);
    let (status, body) = exchange(addr, "POST", "/v1/jobs", &submit_body(&g, "alice", true));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"state\":\"done\""), "{body}");
    assert!(body.contains("\"cached\":false"), "{body}");

    // Status, schedule, and the trace 404 for a schedule-only job.
    let (status, body) = exchange(addr, "GET", "/v1/jobs/0", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"state\":\"done\""), "{body}");
    let (status, body) = exchange(addr, "GET", "/v1/jobs/0/schedule", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"makespan\""), "{body}");
    let (status, _) = exchange(addr, "GET", "/v1/jobs/0/trace", "");
    assert_eq!(status, 404);

    // A relabelled duplicate of the same DAG is a cache hit.
    let mut twin = diamond(10.0, 100.0);
    twin = TaskGraph::from_json(&twin.to_json().replace("\"t0\"", "\"renamed\"")).unwrap();
    let (status, body) = exchange(addr, "POST", "/v1/jobs", &submit_body(&twin, "bob", true));
    assert_eq!(status, 200);
    assert!(body.contains("\"cached\":true"), "{body}");

    // A run-mode job yields a trace and an LM3xx report.
    let run_body = format!(
        "{{\"procs\":4,\"bandwidth\":125.0,\"wait\":true,\"graph\":{},\
         \"run\":{{\"seed\":7,\"exec_cv\":0.1,\"recovery\":\"retryshrink\",\"faults\":\"fail:1@5\"}}}}",
        g.to_json()
    );
    let (status, body) = exchange(addr, "POST", "/v1/jobs", &run_body);
    assert_eq!(status, 200, "{body}");
    let ack: Vec<&str> = body.split("\"job_id\":").collect();
    let id: u64 = ack[1]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .unwrap()
        .parse()
        .unwrap();
    let (status, body) = exchange(addr, "GET", &format!("/v1/jobs/{id}/trace"), "");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"trace\"") && body.contains("\"report\""),
        "{body}"
    );

    // Synchronous analyze: a clean graph produces a report without errors.
    let analyze_body = format!(
        "{{\"procs\":4,\"bandwidth\":125.0,\"graph\":{}}}",
        g.to_json()
    );
    let (status, body) = exchange(addr, "POST", "/v1/analyze", &analyze_body);
    assert_eq!(status, 200, "{body}");
    assert!(!body.contains("\"severity\": \"Error\""), "{body}");

    // Malformed and invalid requests map to 4xx, never a hang or a 500.
    let (status, _) = exchange(addr, "POST", "/v1/jobs", "this is not json");
    assert_eq!(status, 400);
    let (status, _) = exchange(addr, "POST", "/v1/jobs", "{\"procs\":4}");
    assert_eq!(status, 400);
    let bad_algo = submit_body(&g, "alice", false).replace("\"locmps\"", "\"quantum\"");
    let (status, body) = exchange(addr, "POST", "/v1/jobs", &bad_algo);
    assert_eq!(status, 400);
    assert!(body.contains("unknown scheduler"), "{body}");
    let (status, _) = exchange(addr, "GET", "/v1/jobs/999999", "");
    assert_eq!(status, 404);
    let (status, _) = exchange(addr, "GET", "/v1/nope", "");
    assert_eq!(status, 404);
    let (status, _) = exchange(addr, "DELETE", "/v1/jobs/0", "");
    assert_eq!(status, 405);

    // Raw garbage on the socket gets a clean 400.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"garbage\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 400 "), "{raw}");

    // Stats reflect the session: submissions, one cache hit, no failures,
    // plus the health pressure fields.
    let (status, body) = exchange(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"cache_hits\":1"), "{body}");
    assert!(body.contains("\"failed\":0"), "{body}");
    assert!(body.contains("\"health\":\"full\""), "{body}");
    assert!(body.contains("\"queue_depth\":"), "{body}");
    assert!(body.contains("\"p95_ms\":"), "{body}");

    // The LM34x service audit is clean on a healthy daemon.
    let (status, body) = exchange(addr, "GET", "/v1/diagnostics", "");
    assert_eq!(status, 200);
    assert!(body.contains("LM340"), "{body}");
    assert!(body.contains("\"errors\": 0"), "{body}");

    // Graceful shutdown: the endpoint answers 200, then the daemon drains
    // and exits; subsequent connections are refused.
    let (status, body) = exchange(addr, "POST", "/v1/shutdown", "");
    assert_eq!((status, body.as_str()), (200, "{\"draining\":true}"));
    handle.shutdown();
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener must be closed after shutdown"
    );
}

/// A panicking lock holder must not wedge the daemon: after the state
/// mutex is deliberately poisoned, `/healthz` and `/v1/stats` still
/// answer over HTTP, fresh submissions compute to completion, and the
/// shutdown path drains cleanly.
/// The tasks of a schedule JSON object, each as its `(task, procs)`
/// values, in task order.
fn placements(schedule: &serde::Value) -> Vec<(serde::Value, serde::Value)> {
    let obj = |v: &serde::Value| v.as_object().expect("an object").to_vec();
    let entries = serde::field(&obj(schedule), "entries").unwrap().clone();
    entries
        .as_array()
        .expect("an entry array")
        .iter()
        .map(|e| {
            let e = obj(e);
            let task = serde::field(&e, "task").unwrap().clone();
            (task, serde::field(&e, "procs").unwrap().clone())
        })
        .collect()
}

/// A `plan` run follows the job's own schedule, whatever scheduler made
/// it: a fault-free CPR run job launches every task on the processors
/// `/schedule` serves for it.
#[test]
fn plan_runs_follow_the_schedule_the_job_serves() {
    use locmps_workloads::synthetic::{synthetic_graph, SyntheticConfig};
    let g = synthetic_graph(&SyntheticConfig {
        n_tasks: 24,
        ccr: 0.5,
        seed: 7,
        ..Default::default()
    });
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.addr();
    let handle = server.spawn();
    let body = format!(
        "{{\"procs\":16,\"bandwidth\":125.0,\"algo\":\"cpr\",\"wait\":true,\
         \"run\":{{\"policy\":\"plan\"}},\"graph\":{}}}",
        g.to_json()
    );
    let (status, ack) = exchange(addr, "POST", "/v1/jobs", &body);
    assert_eq!(status, 200, "{ack}");
    assert!(ack.contains("\"state\":\"done\""), "{ack}");
    let parse = |text: &str| -> serde::Value { serde_json::from_str(text).expect("JSON") };
    let field = |v: &serde::Value, name: &str| {
        serde::field(v.as_object().expect("an object"), name)
            .unwrap()
            .clone()
    };
    let (status, planned) = exchange(addr, "GET", "/v1/jobs/0/schedule", "");
    assert_eq!(status, 200, "{planned}");
    let (status, run) = exchange(addr, "GET", "/v1/jobs/0/trace", "");
    assert_eq!(status, 200, "{run}");
    let planned = placements(&field(&parse(&planned), "schedule"));
    let executed = placements(&field(&field(&parse(&run), "trace"), "schedule"));
    assert_eq!(planned.len(), g.n_tasks());
    assert_eq!(executed, planned, "every task runs where /schedule put it");
    handle.shutdown();
}

#[test]
fn a_poisoned_service_lock_still_serves_and_drains() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.addr();
    let handle = server.spawn();

    let g = diamond(10.0, 100.0);
    let (status, _) = exchange(addr, "POST", "/v1/jobs", &submit_body(&g, "alice", true));
    assert_eq!(status, 200);

    handle.service().poison_for_tests();

    let (status, body) = exchange(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\":true"), "{body}");
    let (status, body) = exchange(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"submitted\":1"), "{body}");

    // Admission and computation still work behind the poisoned mutex.
    let g2 = diamond(11.0, 100.0);
    let (status, body) = exchange(addr, "POST", "/v1/jobs", &submit_body(&g2, "bob", true));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"state\":\"done\""), "{body}");

    // So does the graceful drain.
    let (status, body) = exchange(addr, "POST", "/v1/shutdown", "");
    assert_eq!((status, body.as_str()), (200, "{\"draining\":true}"));
    handle.shutdown();
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener must be closed after shutdown"
    );
}

/// The satellite invariant test: many tenants hammering the service
/// concurrently with a small pool of distinct DAGs. Every acknowledged
/// job must reach `Done` exactly once, every distinct fingerprint must be
/// scheduled exactly once, and rejections must be accounted for — nothing
/// lost, nothing double-scheduled.
#[test]
fn concurrent_submissions_preserve_every_invariant() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 25;
    const VARIANTS: usize = 10;

    let cfg = ServeConfig {
        workers: 4,
        queue_cap: 32,
        tenant_quota: 6,
        // This test asserts exact cache/fingerprint accounting, which
        // degraded admission (fallback scheduler, no cache entry) would
        // legitimately perturb — overload handling has its own tests.
        degradation: false,
        ..ServeConfig::default()
    };
    let svc = Arc::new(Service::start(cfg));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                let tenant = format!("tenant-{}", t % 4);
                let mut acks = Vec::new();
                let mut rejected_quota = 0u64;
                let mut rejected_queue = 0u64;
                for i in 0..PER_THREAD {
                    let variant = (t * PER_THREAD + i) % VARIANTS;
                    let spec = JobSpec {
                        tenant: tenant.clone(),
                        graph: diamond(10.0 + variant as f64, 100.0),
                        procs: 4,
                        bandwidth: 125.0,
                        algo: "locmps".into(),
                        mode: Mode::Schedule,
                        deadline_ms: None,
                    };
                    match svc.submit(spec) {
                        Ok(ack) => acks.push(ack),
                        Err(SubmitError::QuotaExceeded { .. }) => rejected_quota += 1,
                        Err(SubmitError::QueueFull { .. }) => rejected_queue += 1,
                        Err(e) => panic!("unexpected rejection: {e}"),
                    }
                }
                (acks, rejected_quota, rejected_queue)
            })
        })
        .collect();

    let mut acks = Vec::new();
    let mut rejected_quota = 0u64;
    let mut rejected_queue = 0u64;
    for h in handles {
        let (a, q, f) = h.join().expect("submitter thread");
        acks.extend(a);
        rejected_quota += q;
        rejected_queue += f;
    }

    // Clean drain: every accepted job reaches a terminal state.
    svc.drain();

    // Conservation: every submission is either acked or counted rejected.
    let stats = svc.stats();
    assert_eq!(
        acks.len() as u64 + rejected_quota + rejected_queue,
        (THREADS * PER_THREAD) as u64
    );
    assert_eq!(stats.submitted, acks.len() as u64);
    assert_eq!(stats.rejected_quota, rejected_quota);
    assert_eq!(stats.rejected_queue, rejected_queue);

    // No lost jobs: ids are unique, and each one is Done with a result.
    let ids: HashSet<u64> = acks.iter().map(|a| a.job_id).collect();
    assert_eq!(ids.len(), acks.len(), "duplicate job ids handed out");
    let mut by_fp: HashMap<u64, Vec<Arc<String>>> = HashMap::new();
    for ack in &acks {
        let status = svc.status(ack.job_id).expect("acked job exists");
        assert_eq!(
            status.state,
            locmps_serve::JobState::Done,
            "job {} not done after drain: {:?}",
            ack.job_id,
            status.error
        );
        let result = svc.result_json(ack.job_id).expect("done job has a result");
        by_fp.entry(ack.fingerprint).or_default().push(result);
    }
    assert_eq!(stats.completed, acks.len() as u64);
    assert_eq!(stats.failed, 0);

    // No double-scheduling: each distinct fingerprint was computed once,
    // and identical fingerprints share byte-identical results.
    assert_eq!(by_fp.len(), VARIANTS, "10 distinct DAGs → 10 fingerprints");
    assert_eq!(stats.schedules_computed, stats.cache_misses);
    assert_eq!(stats.cache_misses, VARIANTS as u64);
    assert_eq!(stats.cache_hits, stats.submitted - VARIANTS as u64);
    assert!(stats.cache_hits > 0, "duplicates must hit the cache");
    for results in by_fp.values() {
        for r in results {
            assert_eq!(r.as_str(), results[0].as_str());
        }
    }

    // Drained services refuse new work.
    assert!(matches!(
        svc.submit(JobSpec {
            tenant: "late".into(),
            graph: diamond(1.0, 1.0),
            procs: 4,
            bandwidth: 125.0,
            algo: "locmps".into(),
            mode: Mode::Schedule,
            deadline_ms: None,
        }),
        Err(SubmitError::Draining)
    ));
    Arc::try_unwrap(svc)
        .unwrap_or_else(|_| panic!("all submitters joined"))
        .shutdown();
}

/// Run-mode jobs with identical parameters coalesce too, and distinct
/// seeds do not share cache entries.
#[test]
fn run_mode_jobs_key_the_cache_on_engine_parameters() {
    let cfg = ServeConfig::default();
    let svc = Service::start(cfg);
    let run = |seed: u64| JobSpec {
        tenant: "alice".into(),
        graph: diamond(10.0, 100.0),
        procs: 4,
        bandwidth: 125.0,
        algo: "locmps".into(),
        mode: Mode::Run(RunParams {
            seed,
            exec_cv: 0.05,
            ..RunParams::default()
        }),
        deadline_ms: None,
    };
    let a = svc.submit(run(1)).unwrap();
    let b = svc.submit(run(2)).unwrap();
    assert_ne!(a.fingerprint, b.fingerprint, "seed is part of the key");
    svc.wait(a.job_id);
    let c = svc.submit(run(1)).unwrap();
    assert_eq!(c.fingerprint, a.fingerprint);
    assert!(c.cached || c.coalesced);
    svc.drain();
    assert_eq!(
        svc.trace_json(a.job_id)
            .expect("run job has a trace")
            .as_str(),
        svc.trace_json(c.job_id)
            .expect("cached twin shares it")
            .as_str()
    );
    svc.shutdown();
}

/// The kill -9 conservation test: a 100-job burst against a journaled
/// service, with the journal file snapshotted at several mid-burst ack
/// counts. Because every ack is fsync'd before `submit` returns, each
/// snapshot is exactly the disk image a `kill -9` at that moment would
/// leave. Restarting from every image must recover every job acked
/// before the snapshot exactly once — same id, terminal state, nothing
/// lost, nothing fabricated, no fingerprint computed twice.
#[test]
fn crash_images_from_a_100_job_burst_recover_every_acked_job_exactly_once() {
    const BURST: usize = 100;
    const VARIANTS: usize = 12;
    // "Random point in the burst": three draws from a fixed seed so the
    // test replays; early, middle and late images all get exercised.
    const SNAP_AT: [usize; 3] = [11, 37, 82];

    let path = temp_journal("burst");
    let cfg = ServeConfig {
        workers: 2,
        queue_cap: BURST,
        tenant_quota: BURST,
        degradation: false, // exact accounting, as in the stress test
        ..ServeConfig::default()
    };
    let svc = Service::start_with_journal(cfg, &path).expect("fresh journal");
    let mut acks = Vec::new();
    let mut images: Vec<(usize, Vec<u8>)> = Vec::new();
    for i in 0..BURST {
        let spec = JobSpec {
            tenant: format!("tenant-{}", i % 4),
            graph: diamond(10.0 + (i % VARIANTS) as f64, 100.0),
            procs: 4,
            bandwidth: 125.0,
            algo: "locmps".into(),
            mode: Mode::Schedule,
            deadline_ms: None,
        };
        acks.push(svc.submit(spec).expect("burst submission"));
        if SNAP_AT.contains(&acks.len()) {
            images.push((acks.len(), std::fs::read(&path).expect("snapshot journal")));
        }
    }
    svc.drain();
    // The final image too: a crash after the last completion.
    images.push((BURST, std::fs::read(&path).expect("final image")));
    svc.shutdown();

    for (acked, image) in images {
        let img_path = path.with_extension(format!("img{acked}"));
        std::fs::write(&img_path, &image).unwrap();
        let svc = Service::start_with_journal(ServeConfig::default(), &img_path)
            .expect("crash image replays");
        // Nothing fabricated: the image holds at most what was acked.
        let stats = svc.stats();
        assert!(
            stats.submitted >= acked as u64 && stats.submitted <= BURST as u64,
            "image at ack {acked} claims {} submissions",
            stats.submitted
        );
        // Every job acked before the snapshot is present under its
        // original id and fingerprint, and reaches Done exactly once.
        for ack in &acks[..acked] {
            let st = svc.wait(ack.job_id).expect("acked job recovered");
            assert_eq!(
                st.state,
                JobState::Done,
                "job {}: {:?}",
                ack.job_id,
                st.error
            );
            assert_eq!(st.fingerprint, ack.fingerprint);
            assert!(svc.result_json(ack.job_id).is_some());
        }
        let stats = svc.stats();
        assert_eq!(stats.completed + stats.failed, stats.submitted);
        assert_eq!(stats.failed, 0);
        assert_eq!(svc.active_jobs(), 0);
        // Exactly once: at most one computation per distinct fingerprint
        // (results already journaled replay as cache hits instead).
        assert!(
            stats.schedules_computed <= VARIANTS as u64,
            "{} computations for {} fingerprints",
            stats.schedules_computed,
            VARIANTS
        );
        assert!(!svc.service_report().has_errors(), "conservation audit");
        svc.shutdown();
        std::fs::remove_file(&img_path).unwrap();
    }

    // A torn image — the last frame cut mid-write — still recovers the
    // fsync'd prefix and reports the truncation via LM341.
    let full = std::fs::read(&path).unwrap();
    let torn_path = path.with_extension("torn");
    std::fs::write(&torn_path, &full[..full.len() - 7]).unwrap();
    let svc = Service::start_with_journal(ServeConfig::default(), &torn_path).expect("torn image");
    let report = svc.service_report();
    assert!(report.to_json().contains("LM341"), "{}", report.to_json());
    assert!(
        !report.has_errors(),
        "truncation is a warning, not an error"
    );
    svc.shutdown();

    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

/// A shedding daemon refuses over HTTP with 429 + `Retry-After`, and
/// `/healthz` says so.
#[test]
fn a_shedding_daemon_answers_429_with_retry_after() {
    let cfg = ServeConfig {
        shed_queue: 0, // pressure threshold zero: always shedding
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.addr();
    let handle = server.spawn();

    let (status, body) = exchange(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"health\":\"shedding\""), "{body}");

    let g = diamond(10.0, 100.0);
    let raw = exchange_raw(addr, "POST", "/v1/jobs", &submit_body(&g, "alice", false));
    assert!(raw.starts_with("HTTP/1.1 429 "), "{raw}");
    assert!(raw.contains("\r\nretry-after: 1\r\n"), "{raw}");
    assert!(raw.contains("shedding load"), "{raw}");

    let (status, body) = exchange(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"shed\":1"), "{body}");

    let (status, _) = exchange(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    handle.shutdown();
}

/// Deadline submissions surface the typed failure over HTTP.
#[test]
fn an_expired_deadline_fails_typed_over_http() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.addr();
    let handle = server.spawn();

    let g = diamond(10.0, 100.0);
    let body = format!(
        "{{\"procs\":4,\"bandwidth\":125.0,\"wait\":true,\"deadline_ms\":0,\"graph\":{}}}",
        g.to_json()
    );
    let (status, body) = exchange(addr, "POST", "/v1/jobs", &body);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"state\":\"failed\""), "{body}");
    let (status, body) = exchange(addr, "GET", "/v1/jobs/0", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"error_kind\":\"deadline\""), "{body}");
    assert!(body.contains("\"deadline\""), "{body}");

    let (status, _) = exchange(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    handle.shutdown();
    // The typed kind round-trips through the wire name.
    assert_eq!(
        JobErrorKind::from_wire("deadline"),
        Some(JobErrorKind::Deadline)
    );
}

/// A client that connects and stalls gets a 408 once the read timeout
/// trips — it cannot pin a connection thread forever — and the daemon
/// keeps serving others meanwhile.
#[test]
fn a_stalled_client_gets_408_and_does_not_pin_the_daemon() {
    let cfg = ServeConfig {
        read_timeout_ms: 150,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.addr();
    let handle = server.spawn();

    // Stall mid-request: headers promise a body that never arrives.
    let mut stalled = TcpStream::connect(addr).unwrap();
    write!(
        stalled,
        "POST /v1/jobs HTTP/1.1\r\nhost: test\r\ncontent-length: 100\r\n\r\nonly-a-bit"
    )
    .unwrap();

    // The daemon still answers other clients while that one hangs.
    let (status, _) = exchange(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);

    let mut raw = String::new();
    stalled.read_to_string(&mut raw).expect("408 response");
    assert!(raw.starts_with("HTTP/1.1 408 "), "{raw}");
    assert!(raw.contains("stalled"), "{raw}");

    let (status, _) = exchange(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    handle.shutdown();
}
