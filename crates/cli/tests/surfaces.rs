//! Cross-surface agreement: the `locmps` binary and the serve daemon run
//! one analyze path and one run path, so the same request gives the same
//! answer through either front end.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::Command;

use locmps_baselines::registry::scheduler_names;
use locmps_platform::MAX_PROCS;
use locmps_runtime::PerfModelStore;
use locmps_serve::{ServeConfig, Server, ServerHandle};
use locmps_taskgraph::TaskGraph;
use locmps_workloads::synthetic::{synthetic_graph, SyntheticConfig};
use serde::Value;

/// Runs the `locmps` binary; returns whether it exited 0 and its stdout.
fn cli(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_locmps"))
        .args(args)
        .output()
        .expect("run the locmps binary");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
    )
}

/// A scratch directory of its own for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("locmps-surfaces-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn synthetic(n_tasks: usize, seed: u64) -> TaskGraph {
    synthetic_graph(&SyntheticConfig {
        n_tasks,
        ccr: 0.5,
        seed,
        ..Default::default()
    })
}

fn write_graph(dir: &Path, g: &TaskGraph) -> String {
    let path = dir.join("g.json");
    std::fs::write(&path, g.to_json()).unwrap();
    path.to_str().unwrap().to_string()
}

fn daemon() -> ServerHandle {
    Server::bind("127.0.0.1:0", ServeConfig::default())
        .expect("bind")
        .spawn()
}

/// One HTTP exchange; returns (status, body).
fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status = raw[9..12].parse().unwrap();
    let body = raw
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    (status, body)
}

fn parse(json: &str) -> Value {
    serde_json::from_str(json).unwrap_or_else(|e| panic!("{e}: {json}"))
}

fn field<'v>(v: &'v Value, name: &str) -> &'v Value {
    serde::field(v.as_object().unwrap(), name).unwrap()
}

/// Submits a waiting `"run"` job and returns its `/trace` payload.
fn daemon_trace(addr: SocketAddr, g: &TaskGraph, run: &str) -> Value {
    let body = format!(
        "{{\"procs\":8,\"bandwidth\":125.0,\"wait\":true,\"run\":{run},\"graph\":{}}}",
        g.to_json()
    );
    let (status, ack) = exchange(addr, "POST", "/v1/jobs", &body);
    assert_eq!(status, 200, "{ack}");
    let id = match field(&parse(&ack), "job_id") {
        Value::UInt(id) => *id,
        other => panic!("job_id {other:?}"),
    };
    let (status, trace) = exchange(addr, "GET", &format!("/v1/jobs/{id}/trace"), "");
    assert_eq!(status, 200, "{trace}");
    parse(&trace)
}

#[test]
fn analyze_reports_agree_across_surfaces_for_every_scheduler() {
    let dir = scratch("analyze");
    let g = synthetic(18, 77);
    let path = write_graph(&dir, &g);
    let server = daemon();
    for name in scheduler_names() {
        let (ok, cli_report) = cli(&[
            "analyze",
            &path,
            "--procs",
            "8",
            "--bandwidth",
            "100",
            "--algo",
            name,
            "--json",
        ]);
        // `locmps analyze` exits nonzero on any error diagnostic.
        assert!(ok, "{name}: {cli_report}");
        let body = format!(
            "{{\"procs\":8,\"bandwidth\":100.0,\"algo\":\"{name}\",\"graph\":{}}}",
            g.to_json()
        );
        let (status, daemon_report) = exchange(server.addr(), "POST", "/v1/analyze", &body);
        assert_eq!(status, 200, "{name}: {daemon_report}");
        assert_eq!(parse(&cli_report), parse(&daemon_report), "{name}");
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn run_json_and_the_daemon_trace_agree() {
    let dir = scratch("run");
    let g = synthetic(16, 2);
    let path = write_graph(&dir, &g);
    let (_, cli_run) = cli(&[
        "run",
        &path,
        "--procs",
        "8",
        "--recovery",
        "replan",
        "--faults",
        "fail:0@5,crash:1@0.5",
        "--seed",
        "3",
        "--cv",
        "0.2",
        "--json",
    ]);
    let server = daemon();
    let trace = daemon_trace(
        server.addr(),
        &g,
        "{\"seed\":3,\"exec_cv\":0.2,\"recovery\":\"replan\",\"faults\":\"fail:0@5,crash:1@0.5\"}",
    );
    server.shutdown();
    assert_eq!(parse(&cli_run), trace);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn hedged_remold_is_seeded_from_the_store_like_remold_with_hedge() {
    const FAULTS: &str = "fail:2@1,fail:3@2";
    let dir = scratch("adapt");
    let g = synthetic(16, 2);
    let path = write_graph(&dir, &g);
    let store = dir.join("store.json");
    let store = store.to_str().unwrap();
    for seed in ["1", "2", "3", "4"] {
        let (ok, _) = cli(&[
            "run",
            &path,
            "--procs",
            "8",
            "--adapt",
            "--cv",
            "0.8",
            "--seed",
            seed,
            "--model-store",
            store,
        ]);
        assert!(ok);
    }
    let learned = PerfModelStore::from_json(&std::fs::read_to_string(store).unwrap()).unwrap();
    assert!(
        learned
            .tasks()
            .flat_map(|(_, widths)| widths.iter().flat_map(|w| w.ratios()))
            .any(|r| (r - 1.0).abs() > 1e-3),
        "noisy runs must teach non-unit ratios"
    );

    // Every adaptive run below starts from a copy of the learned store.
    let adaptive_run = |tag: &str, extra: &[&str]| {
        let copy = dir.join(format!("{tag}.json"));
        std::fs::copy(store, &copy).unwrap();
        let mut args = vec![
            "run",
            &path,
            "--procs",
            "8",
            "--adapt",
            "--faults",
            FAULTS,
            "--json",
            "--model-store",
            copy.to_str().unwrap(),
        ];
        args.extend(extra);
        parse(&cli(&args).1)
    };
    let hedged = adaptive_run(
        "a",
        &["--recovery", "hedged-remold", "--straggler-threshold", "2"],
    );
    let with_hedge = adaptive_run("b", &["--recovery", "remold", "--hedge"]);
    assert_eq!(hedged, with_hedge);
    let (_, unseeded) = cli(&[
        "run",
        &path,
        "--procs",
        "8",
        "--adapt",
        "--faults",
        FAULTS,
        "--json",
        "--recovery",
        "hedged-remold",
        "--straggler-threshold",
        "2",
    ]);
    assert_ne!(
        field(&hedged, "trace"),
        field(&parse(&unseeded), "trace"),
        "the learned store must steer the re-molds"
    );

    // The daemon learns the same store from the same four jobs; its
    // watchdog is off, so the CLI twin runs with an infinite threshold.
    let server = daemon();
    for seed in 1..=4 {
        let run = format!("{{\"seed\":{seed},\"exec_cv\":0.8,\"adapt\":true}}");
        daemon_trace(server.addr(), &g, &run);
    }
    let run = format!("{{\"adapt\":true,\"recovery\":\"hedged-remold\",\"faults\":\"{FAULTS}\"}}");
    let daemon_hedged = daemon_trace(server.addr(), &g, &run);
    server.shutdown();
    let cli_twin = adaptive_run(
        "c",
        &[
            "--recovery",
            "remold",
            "--hedge",
            "--straggler-threshold",
            "inf",
        ],
    );
    assert_eq!(daemon_hedged, cli_twin);
    let _ = std::fs::remove_dir_all(dir);
}

/// A processor count past `MAX_PROCS` is refused where it enters, with the
/// constructor's message on every surface, instead of a schedule whose
/// per-width scans never finish (`10^11` processors on a 12-task graph).
#[test]
fn an_oversized_cluster_is_refused_on_every_surface() {
    let dir = scratch("max-procs");
    let g = synthetic(12, 7);
    let path = write_graph(&dir, &g);
    let want = format!("procs must be <= {MAX_PROCS}, got 100000000000");
    let out = Command::new(env!("CARGO_BIN_EXE_locmps"))
        .args(["schedule", &path, "--procs", "100000000000"])
        .output()
        .expect("run the locmps binary");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&format!("error: --{want}")), "{stderr}");

    let server = daemon();
    let body = format!(
        "{{\"procs\":100000000000,\"bandwidth\":125.0,\"wait\":true,\"graph\":{}}}",
        g.to_json()
    );
    for endpoint in ["/v1/jobs", "/v1/analyze"] {
        let (status, reply) = exchange(server.addr(), "POST", endpoint, &body);
        assert_eq!(status, 400, "{endpoint}: {reply}");
        assert!(reply.contains(&want), "{endpoint}: {reply}");
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}
