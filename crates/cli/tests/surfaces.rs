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
use locmps_speedup::{ExecutionProfile, SpeedupModel};
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

/// Fault specs naming a processor or task the run does not have, on a
/// 12-task graph and 8 processors, with the refusal each must get.
const OUT_OF_RANGE_FAULTS: [(&str, &str); 2] = [
    (
        "fail:99@1",
        "fault fail:99@1 names processor 99, but the cluster has 8",
    ),
    (
        "crash:999@0.5,slow:50@0-10x3",
        "fault crash:999@0.5 names task 999, but the graph has 12",
    ),
];

/// `locmps run` refuses a fault outside the run instead of running as if
/// it were absent.
#[test]
fn the_cli_refuses_faults_outside_the_run() {
    let dir = scratch("fault-range-cli");
    let path = write_graph(&dir, &synthetic(12, 7));
    for (spec, want) in OUT_OF_RANGE_FAULTS {
        let out = Command::new(env!("CARGO_BIN_EXE_locmps"))
            .args(["run", &path, "--procs", "8", "--faults", spec])
            .output()
            .expect("run the locmps binary");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert_eq!(out.status.code(), Some(1), "{spec}: {stderr}");
        assert!(out.stdout.is_empty(), "{spec} ran anyway");
        assert!(stderr.contains(want), "{spec}: {stderr}");
    }
    // In range, the same kinds of fault run.
    let (ok, stdout) = cli(&[
        "run",
        &path,
        "--procs",
        "8",
        "--faults",
        "fail:7@1,crash:11@0.5",
        "--recovery",
        "retryshrink",
    ]);
    assert!(ok, "{stdout}");
    let _ = std::fs::remove_dir_all(dir);
}

/// The daemon refuses a run job with a fault outside the run at
/// admission, with the CLI's message.
#[test]
fn the_daemon_refuses_faults_outside_the_run() {
    let g = synthetic(12, 7);
    let server = daemon();
    for (spec, want) in OUT_OF_RANGE_FAULTS {
        let body = format!(
            "{{\"procs\":8,\"bandwidth\":125.0,\"wait\":true,\
             \"run\":{{\"faults\":\"{spec}\"}},\"graph\":{}}}",
            g.to_json()
        );
        let (status, reply) = exchange(server.addr(), "POST", "/v1/jobs", &body);
        assert_eq!(status, 400, "{spec}: {reply}");
        assert!(reply.contains(want), "{spec}: {reply}");
    }
    server.shutdown();
}

/// `locmps schedule` on a graph file that cannot be loaded: whether it
/// exited with status 1 and its stderr.
fn cli_refusal(path: &str) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_locmps"))
        .args(["schedule", path, "--procs", "4"])
        .output()
        .expect("run the locmps binary");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    (
        out.status.code() == Some(1) && out.stdout.is_empty(),
        stderr,
    )
}

/// A three-task chain whose first task has a Downey profile, as compact
/// JSON, so that each malformed variant below is one textual edit.
fn chain_json() -> String {
    let mut g = TaskGraph::new();
    let downey = SpeedupModel::downey(8.0, 1.0).unwrap();
    let a = g.add_task("a", ExecutionProfile::new(4.0, downey).unwrap());
    let b = g.add_task("b", ExecutionProfile::linear(2.0));
    let c = g.add_task("c", ExecutionProfile::linear(3.0));
    g.add_edge(a, b, 5.0).unwrap();
    g.add_edge(b, c, 7.0).unwrap();
    serde_json::to_string(&parse(&g.to_json())).unwrap()
}

/// Malformed graphs, each as an edit of [`chain_json`], with a piece of
/// the refusal each must get. The first two hold literals that overflow
/// to infinity.
const MALFORMED_GRAPHS: [(&str, &str, &str, &str); 7] = [
    (
        "an overflowing seq_time",
        "\"seq_time\":2.0",
        "\"seq_time\":1e999",
        "sequential time must be finite and positive (got inf)",
    ),
    (
        "an overflowing Downey a",
        "\"a\":8.0",
        "\"a\":1e999",
        "Downey average parallelism A must be finite and >= 1 (got inf)",
    ),
    (
        "a negative volume",
        "\"volume\":7.0",
        "\"volume\":-1.0",
        "edge volume must be finite and >= 0",
    ),
    (
        "a cycle",
        "\"edges\":[",
        "\"edges\":[{\"src\":2,\"dst\":0,\"volume\":1.0},",
        "graph contains a cycle",
    ),
    (
        "an edge to an unknown task",
        "\"dst\":2",
        "\"dst\":9",
        "unknown task t9",
    ),
    (
        "an edge endpoint past the task-id range",
        "\"dst\":2",
        "\"dst\":5e9",
        "expected u32",
    ),
    (
        "a missing profile",
        ",\"profile\":{\"seq_time\":3.0,\"model\":\"Linear\"}",
        "",
        "missing field `profile`",
    ),
];

/// The CLI and the daemon run one graph decode (the spec decode and its
/// `build`), so a graph either refuses is refused by both with the same
/// text: the CLI's error line is the daemon's 400 `error` less its
/// `graph: ` prefix. The two overflowing literals once read `(got NaN)`
/// from the daemon, which re-parsed the graph from text where infinity
/// had become `null`.
#[test]
fn a_refused_graph_names_the_same_problem_on_every_surface() {
    let dir = scratch("refused-graph");
    let chain = chain_json();
    let server = daemon();
    for (what, from, to, want) in MALFORMED_GRAPHS {
        assert!(chain.contains(from), "{what}: {from} not in {chain}");
        let graph = chain.replacen(from, to, 1);
        let path = dir.join("bad.json");
        std::fs::write(&path, &graph).unwrap();
        let (refused, stderr) = cli_refusal(path.to_str().unwrap());
        assert!(refused, "{what}: {stderr}");
        let cli_error = stderr
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("error: "))
            .unwrap_or_else(|| panic!("{what}: {stderr}"));
        assert!(cli_error.contains(want), "{what}: {cli_error}");

        let body = format!("{{\"procs\":4,\"bandwidth\":125.0,\"wait\":true,\"graph\":{graph}}}");
        for endpoint in ["/v1/jobs", "/v1/analyze"] {
            let (status, reply) = exchange(server.addr(), "POST", endpoint, &body);
            assert_eq!(status, 400, "{what} at {endpoint}: {reply}");
            let error = field(&parse(&reply), "error").as_str().unwrap().to_string();
            assert_eq!(
                error.strip_prefix("graph: "),
                Some(cli_error),
                "{what} at {endpoint}"
            );
        }
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

/// A graph file nested deeper than the JSON parser's 128-level limit is
/// an input error like any other: exit 1 and one `error:` line, where
/// parsing it without the limit overflowed the stack and aborted.
#[test]
fn a_deeply_nested_graph_file_is_one_error_line() {
    let dir = scratch("deep-file");
    let path = dir.join("deep.json");
    std::fs::write(&path, "[".repeat(1 << 20)).unwrap();
    let (refused, stderr) = cli_refusal(path.to_str().unwrap());
    assert!(refused, "{stderr}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(
        errors,
        ["error: recursion limit exceeded at byte 128"],
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(dir);
}
