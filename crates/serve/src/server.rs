//! The TCP front end: accept loop, request routing, per-request logging,
//! and graceful shutdown.
//!
//! Route table (see `docs/SERVE.md` for payload shapes):
//!
//! | Method | Path                     | Meaning                               |
//! |--------|--------------------------|---------------------------------------|
//! | GET    | `/healthz`               | liveness probe + health-machine state |
//! | GET    | `/v1/schedulers`         | registered algorithm names            |
//! | GET    | `/v1/stats`              | service counters + health pressure    |
//! | GET    | `/v1/diagnostics`        | the LM34x service audit               |
//! | POST   | `/v1/jobs`               | submit a task graph (returns job id)  |
//! | GET    | `/v1/jobs/<id>`          | job status                            |
//! | GET    | `/v1/jobs/<id>/schedule` | the computed schedule (once done)     |
//! | GET    | `/v1/jobs/<id>/trace`    | the `ExecutionTrace` of a run job     |
//! | POST   | `/v1/analyze`            | synchronous LM0xx–LM2xx diagnostics   |
//! | POST   | `/v1/shutdown`           | drain in-flight jobs, then exit       |
//!
//! Every connection carries one exchange and is handled on its own
//! thread under a socket read timeout (a stalled client gets 408 and
//! frees its thread); the scheduling work itself happens on the
//! service's worker pool, so a slow client cannot stall a computation
//! (or vice versa).

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use locmps_analysis::analyze_schedulers;
use locmps_baselines::registry::scheduler_names;
use locmps_platform::Cluster;
use locmps_taskgraph::TaskGraph;
use serde::{field, Value};

use crate::http::{self, read_request, write_json_with, ParseError, Request};
use crate::svc::{JobSpec, Mode, RunParams, ServeConfig, Service, SubmitError};

/// A routed response: status, JSON body, and any extra headers
/// (`Retry-After` on a shed 429 is the only current use).
struct Resp {
    status: u16,
    body: String,
    headers: Vec<(&'static str, String)>,
}

impl Resp {
    fn new(status: u16, body: impl Into<String>) -> Resp {
        Resp {
            status,
            body: body.into(),
            headers: Vec::new(),
        }
    }
}

/// A bound, serving daemon. Construct with [`Server::bind`], run with
/// [`Server::spawn`] (background thread) or [`Server::run`] (current
/// thread, for the CLI `serve` subcommand).
pub struct Server {
    cfg: ServeConfig,
    listener: TcpListener,
    addr: SocketAddr,
    svc: Arc<Service>,
}

/// Handle to a spawned server: its address plus join/stop controls.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
    svc: Arc<Service>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service core behind this daemon — for embedders that want
    /// in-process access (stats, drain) alongside the HTTP surface, and
    /// for tests that inject faults into the live service.
    pub fn service(&self) -> &Arc<Service> {
        &self.svc
    }

    /// Requests shutdown (as `POST /v1/shutdown` would) and waits for the
    /// daemon to drain and exit.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.thread.join();
    }
}

impl Server {
    /// Binds the listener. Use port 0 to let the OS pick (tests do).
    ///
    /// # Errors
    /// The `bind`/`local_addr` I/O error.
    pub fn bind(addr: &str, cfg: ServeConfig) -> std::io::Result<Server> {
        Self::bind_with_journal(addr, cfg, None).map_err(|e| std::io::Error::other(e.to_string()))
    }

    /// [`Server::bind`] with an optional durable job journal: the file is
    /// replayed (re-enqueueing every acknowledged, unfinished job) and
    /// compacted before the listener accepts its first connection.
    ///
    /// # Errors
    /// The `bind`/`local_addr` I/O error, or a journal that cannot be
    /// opened/replayed — both rendered to the message the CLI prints.
    pub fn bind_with_journal(
        addr: &str,
        cfg: ServeConfig,
        journal: Option<&Path>,
    ) -> Result<Server, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        // `workers: 0` is an admission-only test mode of the service
        // core; a network-facing daemon always computes.
        let cfg = ServeConfig {
            workers: cfg.workers.max(1),
            ..cfg
        };
        let svc = match journal {
            None => Service::start(cfg),
            Some(path) => Service::start_with_journal(cfg, path).map_err(|e| e.to_string())?,
        };
        Ok(Server {
            cfg,
            listener,
            addr,
            svc: Arc::new(svc),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves on a background thread, returning a handle.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let svc = Arc::clone(&self.svc);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("locmps-serve".into())
            .spawn(move || self.serve(&stop2))
            .expect("spawn server thread");
        ServerHandle {
            addr,
            stop,
            thread,
            svc,
        }
    }

    /// Serves on the current thread until a shutdown request arrives.
    pub fn run(self) {
        let stop = AtomicBool::new(false);
        self.serve(&stop);
    }

    fn serve(self, stop: &AtomicBool) {
        let Server {
            cfg, listener, svc, ..
        } = self;
        let stop_flag = Arc::new(AtomicBool::new(false));
        let mut conns: Vec<JoinHandle<()>> = Vec::new();
        for conn in listener.incoming() {
            if stop.load(Ordering::SeqCst) || stop_flag.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let svc = Arc::clone(&svc);
            let stop_flag = Arc::clone(&stop_flag);
            conns.retain(|h| !h.is_finished());
            let handle = std::thread::Builder::new()
                .name("locmps-serve-conn".into())
                .spawn(move || handle_connection(stream, &svc, &cfg, &stop_flag))
                .expect("spawn connection thread");
            conns.push(handle);
        }
        for h in conns {
            let _ = h.join();
        }
        // Drain everything that was admitted before the stop, then join
        // the worker pool: a graceful shutdown loses no acknowledged job.
        // When a `ServerHandle` still holds the service (the `spawn` path),
        // unwrapping fails and drain alone suffices — draining makes the
        // workers exit on their own, there is just nobody to join them.
        match Arc::try_unwrap(svc) {
            Ok(svc) => svc.shutdown(),
            Err(svc) => svc.drain(),
        }
    }
}

fn handle_connection(mut stream: TcpStream, svc: &Service, cfg: &ServeConfig, stop: &AtomicBool) {
    let started = Instant::now();
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".into());
    // A stalled client must not pin this thread: reads past the timeout
    // fail with `WouldBlock`, which the parser maps to a 408.
    if cfg.read_timeout_ms > 0 {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(cfg.read_timeout_ms)));
    }
    let (resp, line) = match read_request(&stream) {
        Ok(req) => {
            let line = format!("{} {}", req.method, req.path);
            (route(&req, svc, stop), line)
        }
        Err(ParseError::ConnectionClosed) => return,
        Err(e) => (
            Resp::new(e.status(), http::error_body(&e.to_string())),
            "-".into(),
        ),
    };
    let _ = write_json_with(&mut stream, resp.status, &resp.headers, &resp.body);
    log_request(&peer, &line, resp.status, started);
    // If this exchange requested shutdown, wake the accept loop *after*
    // the response went out, so the client sees its 200.
    if stop.load(Ordering::SeqCst) {
        if let Ok(addr) = stream.local_addr() {
            let _ = TcpStream::connect(addr);
        }
    }
}

/// One structured line per request on stderr: machine-greppable JSON with
/// no chance of a non-finite float (all fields are integers/strings).
fn log_request(peer: &str, line: &str, status: u16, started: Instant) {
    let entry = Value::Object(vec![
        ("at".into(), Value::Str("locmps-serve".into())),
        ("peer".into(), Value::Str(peer.into())),
        ("request".into(), Value::Str(line.into())),
        ("status".into(), Value::UInt(u64::from(status))),
        (
            "micros".into(),
            Value::UInt(started.elapsed().as_micros() as u64),
        ),
    ]);
    let rendered = serde_json::to_string(&entry).expect("log entry has no floats");
    let _ = writeln!(std::io::stderr(), "{rendered}");
}

fn route(req: &Request, svc: &Service, stop: &AtomicBool) -> Resp {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            // Liveness plus the health-machine state; assessed on read so
            // an idle daemon steps back toward `full`.
            let health = svc.health();
            Resp::new(
                200,
                format!("{{\"ok\":true,\"health\":\"{}\"}}", health.as_str()),
            )
        }
        ("GET", "/v1/schedulers") => {
            let names = Value::Array(
                scheduler_names()
                    .map(|n| Value::Str(n.to_string()))
                    .collect(),
            );
            let body = Value::Object(vec![("schedulers".into(), names)]);
            Resp::new(
                200,
                serde_json::to_string(&body).expect("names are strings"),
            )
        }
        ("GET", "/v1/stats") => {
            let stats = svc.stats();
            let (health, queue_depth, p95_ms) = svc.health_snapshot();
            let mut entries = match serde::Serialize::to_value(&stats) {
                Value::Object(entries) => entries,
                _ => unreachable!("Stats serializes to an object"),
            };
            entries.push(("active_jobs".into(), Value::UInt(svc.active_jobs() as u64)));
            entries.push(("health".into(), Value::Str(health.as_str().into())));
            entries.push(("queue_depth".into(), Value::UInt(queue_depth as u64)));
            entries.push(("p95_ms".into(), Value::Float(p95_ms)));
            Resp::new(
                200,
                serde_json::to_string_checked(&Value::Object(entries))
                    .expect("p95 over finite samples is finite"),
            )
        }
        ("GET", "/v1/diagnostics") => Resp::new(200, svc.service_report().to_json()),
        ("POST", "/v1/jobs") => submit(req, svc),
        ("GET", path) if path.starts_with("/v1/jobs/") => job_get(path, svc),
        ("POST", "/v1/analyze") => analyze(req),
        ("POST", "/v1/shutdown") => {
            stop.store(true, Ordering::SeqCst);
            Resp::new(200, "{\"draining\":true}")
        }
        ("GET" | "POST", _) => Resp::new(404, http::error_body("no such route")),
        _ => Resp::new(405, http::error_body("method not allowed")),
    }
}

/// `GET /v1/jobs/<id>[/schedule|/trace]`.
fn job_get(path: &str, svc: &Service) -> Resp {
    let rest = &path["/v1/jobs/".len()..];
    let (id_str, sub) = match rest.split_once('/') {
        Some((id, sub)) => (id, Some(sub)),
        None => (rest, None),
    };
    let Ok(id) = id_str.parse::<u64>() else {
        return Resp::new(400, http::error_body("job id must be an integer"));
    };
    let Some(status) = svc.status(id) else {
        return Resp::new(404, http::error_body("no such job"));
    };
    match sub {
        None => {
            let body = Value::Object(vec![
                ("id".into(), Value::UInt(status.id)),
                ("tenant".into(), Value::Str(status.tenant)),
                (
                    "fingerprint".into(),
                    Value::Str(format!("{:016x}", status.fingerprint)),
                ),
                ("state".into(), Value::Str(status.state.as_str().into())),
                ("cached".into(), Value::Bool(status.cached)),
                ("degraded".into(), Value::Bool(status.degraded)),
                ("error".into(), status.error.map_or(Value::Null, Value::Str)),
                (
                    "error_kind".into(),
                    status
                        .error_kind
                        .map_or(Value::Null, |k| Value::Str(k.as_str().into())),
                ),
                (
                    "makespan".into(),
                    status.makespan.map_or(Value::Null, Value::Float),
                ),
            ]);
            Resp::new(
                200,
                serde_json::to_string_checked(&body).expect("makespans are finite"),
            )
        }
        Some("schedule") => match svc.result_json(id) {
            Some(json) => Resp::new(200, json.as_ref().clone()),
            None => Resp::new(
                409,
                http::error_body(&format!("job is {}", status.state.as_str())),
            ),
        },
        Some("trace") => match svc.trace_json(id) {
            Some(json) => Resp::new(200, json.as_ref().clone()),
            None if status.state == crate::svc::JobState::Done => Resp::new(
                404,
                http::error_body("job has no trace (submitted without \"run\")"),
            ),
            None => Resp::new(
                409,
                http::error_body(&format!("job is {}", status.state.as_str())),
            ),
        },
        Some(_) => Resp::new(404, http::error_body("no such route")),
    }
}

/// `POST /v1/jobs`: parse, submit, map [`SubmitError`] to a status.
fn submit(req: &Request, svc: &Service) -> Resp {
    let (spec, wait) = match parse_submit(req) {
        Ok(parsed) => parsed,
        Err(msg) => return Resp::new(400, http::error_body(&msg)),
    };
    match svc.submit(spec) {
        Ok(ack) => {
            let status = if wait {
                svc.wait(ack.job_id).map(|s| s.state)
            } else {
                svc.status(ack.job_id).map(|s| s.state)
            };
            let state = status.expect("acked job exists").as_str();
            let body = Value::Object(vec![
                ("job_id".into(), Value::UInt(ack.job_id)),
                (
                    "fingerprint".into(),
                    Value::Str(format!("{:016x}", ack.fingerprint)),
                ),
                ("cached".into(), Value::Bool(ack.cached)),
                ("coalesced".into(), Value::Bool(ack.coalesced)),
                ("degraded".into(), Value::Bool(ack.degraded)),
                ("state".into(), Value::Str(state.into())),
            ]);
            Resp::new(
                200,
                serde_json::to_string(&body).expect("ack has no floats"),
            )
        }
        Err(e) => {
            let status = match &e {
                SubmitError::Invalid(_) => 400,
                SubmitError::QuotaExceeded { .. }
                | SubmitError::QueueFull { .. }
                | SubmitError::Overloaded { .. } => 429,
                SubmitError::Journal(_) | SubmitError::Draining => 503,
            };
            let mut resp = Resp::new(status, http::error_body(&e.to_string()));
            if let SubmitError::Overloaded { retry_after_secs } = &e {
                resp.headers
                    .push(("retry-after", retry_after_secs.to_string()));
            }
            resp
        }
    }
}

/// `POST /v1/analyze`: the report `locmps analyze` prints
/// ([`analyze_schedulers`]).
fn analyze(req: &Request) -> Resp {
    let parsed = (|| -> Result<String, String> {
        let obj = body_object(req)?;
        let graph = graph_from(&obj)?;
        let procs = get_usize(&obj, "procs")?;
        let bandwidth = get_f64(&obj, "bandwidth")?;
        let cluster = Cluster::try_new(procs, bandwidth).map_err(|e| e.to_string())?;
        let algo = get_str_or(&obj, "algo", "locmps")?;
        Ok(analyze_schedulers(&graph, &cluster, &[&algo])?.to_json())
    })();
    match parsed {
        Ok(json) => Resp::new(200, json),
        Err(msg) => Resp::new(400, http::error_body(&msg)),
    }
}

/// The request body's top-level object, parsed once: every field,
/// the graph included, is read from this one tree.
fn body_object(req: &Request) -> Result<Vec<(String, Value)>, String> {
    match serde_json::from_str(req.body_utf8()?).map_err(|e| e.to_string())? {
        Value::Object(entries) => Ok(entries),
        _ => Err("request body must be an object".into()),
    }
}

/// Hand-rolled submit-body parsing: the vendored derive has no optional
/// fields, and half of this payload is optional by design.
fn parse_submit(req: &Request) -> Result<(JobSpec, bool), String> {
    let obj = body_object(req)?;
    let graph = graph_from(&obj)?;
    submit_spec(&obj, graph)
}

/// The job around `graph` that the rest of a submit body asks for.
fn submit_spec(obj: &[(String, Value)], graph: TaskGraph) -> Result<(JobSpec, bool), String> {
    let procs = get_usize(obj, "procs")?;
    let bandwidth = get_f64(obj, "bandwidth")?;
    let tenant = get_str_or(obj, "tenant", "default")?;
    let algo = get_str_or(obj, "algo", "locmps")?;
    let wait = get_bool_or(obj, "wait", false)?;
    let deadline_ms = match find(obj, "deadline_ms") {
        None | Some(Value::Null) => None,
        Some(Value::UInt(n)) => Some(*n),
        Some(Value::Int(n)) => {
            Some(u64::try_from(*n).map_err(|_| "`deadline_ms` must be >= 0".to_string())?)
        }
        Some(_) => return Err("`deadline_ms` must be an integer".into()),
    };

    let mode = match find(obj, "run") {
        None | Some(Value::Null) => Mode::Schedule,
        Some(run_value) => {
            let run = run_value.as_object().ok_or("\"run\" must be an object")?;
            let adapt = get_bool_or(run, "adapt", false)?;
            Mode::Run(RunParams {
                seed: get_u64_or(run, "seed", 0)?,
                exec_cv: get_f64_or(run, "exec_cv", 0.0)?,
                policy: get_str_or(run, "policy", "plan")?,
                // Adaptive runs default to the observation-driven
                // re-molder, mirroring `locmps run --adapt`.
                recovery: get_str_or(run, "recovery", if adapt { "remold" } else { "failstop" })?,
                faults: get_str_or(run, "faults", "")?,
                adapt,
            })
        }
    };

    Ok((
        JobSpec {
            tenant,
            graph,
            procs,
            bandwidth,
            algo,
            mode,
            deadline_ms,
        },
        wait,
    ))
}

/// Builds the `graph` field's graph straight from the parsed body with
/// [`TaskGraph::from_value`], which runs the checks of `TaskGraph::from_json`
/// (cycles, bad volumes, … all rejected with its error text).
fn graph_from(obj: &[(String, Value)]) -> Result<TaskGraph, String> {
    let spec = field(obj, "graph").map_err(|e| e.to_string())?;
    TaskGraph::from_value(spec).map_err(|e| format!("graph: {e}"))
}

fn find<'v>(obj: &'v [(String, Value)], name: &str) -> Option<&'v Value> {
    obj.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn get_f64(obj: &[(String, Value)], name: &str) -> Result<f64, String> {
    number_of(field(obj, name).map_err(|e| e.to_string())?, name)
}

fn get_f64_or(obj: &[(String, Value)], name: &str, default: f64) -> Result<f64, String> {
    match find(obj, name) {
        None | Some(Value::Null) => Ok(default),
        Some(v) => number_of(v, name),
    }
}

fn get_usize(obj: &[(String, Value)], name: &str) -> Result<usize, String> {
    match field(obj, name).map_err(|e| e.to_string())? {
        Value::UInt(n) => usize::try_from(*n).map_err(|_| format!("`{name}` is out of range")),
        Value::Int(n) => usize::try_from(*n).map_err(|_| format!("`{name}` must be >= 0")),
        _ => Err(format!("`{name}` must be an integer")),
    }
}

fn get_u64_or(obj: &[(String, Value)], name: &str, default: u64) -> Result<u64, String> {
    match find(obj, name) {
        None | Some(Value::Null) => Ok(default),
        Some(Value::UInt(n)) => Ok(*n),
        Some(Value::Int(n)) => u64::try_from(*n).map_err(|_| format!("`{name}` must be >= 0")),
        Some(_) => Err(format!("`{name}` must be an integer")),
    }
}

fn get_str_or(obj: &[(String, Value)], name: &str, default: &str) -> Result<String, String> {
    match find(obj, name) {
        None | Some(Value::Null) => Ok(default.to_string()),
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(_) => Err(format!("`{name}` must be a string")),
    }
}

fn get_bool_or(obj: &[(String, Value)], name: &str, default: bool) -> Result<bool, String> {
    match find(obj, name) {
        None | Some(Value::Null) => Ok(default),
        Some(Value::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("`{name}` must be a boolean")),
    }
}

fn number_of(v: &Value, name: &str) -> Result<f64, String> {
    match v {
        Value::Float(f) => Ok(*f),
        Value::UInt(n) => Ok(*n as f64),
        Value::Int(n) => Ok(*n as f64),
        _ => Err(format!("`{name}` must be a number")),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use locmps_taskgraph::TaskGraphSpec;
    use locmps_workloads::strassen::{strassen_graph, StrassenConfig};
    use locmps_workloads::synthetic::{synthetic_graph, SyntheticConfig};
    use locmps_workloads::tce::{ccsd_t1_graph, TceConfig};
    use locmps_workloads::toys::{chain, fork_join, independent};
    use proptest::prelude::*;

    use super::*;
    use crate::graph_fingerprint;

    /// The golden zoo's graphs (`tests/golden_zoo.rs`), built once.
    fn zoo() -> &'static [TaskGraph] {
        static ZOO: OnceLock<Vec<TaskGraph>> = OnceLock::new();
        ZOO.get_or_init(|| {
            vec![
                chain(6, 10.0, 20.0),
                fork_join(5, 8.0, 15.0),
                independent(6, 12.0, 0.2),
                synthetic_graph(&SyntheticConfig {
                    n_tasks: 18,
                    ccr: 0.5,
                    seed: 77,
                    ..Default::default()
                }),
                strassen_graph(&StrassenConfig {
                    n: 512,
                    ..Default::default()
                }),
                ccsd_t1_graph(&TceConfig {
                    n_occ: 16,
                    n_virt: 64,
                    ..Default::default()
                }),
            ]
        })
    }

    /// Zoo graph `source`, or past the zoo a synthetic graph drawn from
    /// `seed` (2–30 tasks, CCR 0, 0.1 or 1).
    fn graph(source: usize, seed: u64) -> TaskGraph {
        zoo().get(source).cloned().unwrap_or_else(|| {
            synthetic_graph(&SyntheticConfig {
                n_tasks: 2 + (seed % 29) as usize,
                ccr: [0.0, 0.1, 1.0][(seed / 29 % 3) as usize],
                seed,
                ..Default::default()
            })
        })
    }

    /// A submit body around `g`, compact or pretty, with the graph between
    /// the required fields and the optional ones, so damage lands in both.
    fn body(g: &TaskGraph, pretty: bool) -> String {
        let text = |s: &str| Value::Str(s.into());
        let value = Value::Object(vec![
            ("procs".into(), Value::UInt(16)),
            ("bandwidth".into(), Value::Float(125.0)),
            (
                "graph".into(),
                serde::Serialize::to_value(&TaskGraphSpec::from(g)),
            ),
            ("tenant".into(), text("alice")),
            ("algo".into(), text("cpa")),
            ("wait".into(), Value::Bool(true)),
            ("deadline_ms".into(), Value::UInt(5_000)),
            (
                "run".into(),
                Value::Object(vec![
                    ("seed".into(), Value::UInt(3)),
                    ("exec_cv".into(), Value::Float(0.1)),
                    ("faults".into(), text("fail:0@1")),
                ]),
            ),
        ]);
        let rendered = if pretty {
            serde_json::to_string_pretty(&value)
        } else {
            serde_json::to_string(&value)
        };
        rendered.expect("a finite tree renders")
    }

    /// The decode `parse_submit` replaced, kept as its oracle: the `graph`
    /// member rendered back to text and parsed a second time.
    fn two_pass(req: &Request) -> Result<(JobSpec, bool), String> {
        let obj = body_object(req)?;
        let graph = field(&obj, "graph").map_err(|e| e.to_string())?;
        let text = serde_json::to_string(graph).map_err(|e| e.to_string())?;
        let graph = TaskGraph::from_json(&text).map_err(|e| format!("graph: {e}"))?;
        submit_spec(&obj, graph)
    }

    /// `parse_submit` accepts `body` exactly when the two-pass decode
    /// does, into the same job, and refuses it with the same text unless
    /// the text names a non-finite value: the round trip rendered
    /// infinity as `null` and read it back as NaN.
    fn decodes_like_two_passes(body: Vec<u8>) -> Result<(), TestCaseError> {
        let req = Request {
            method: "POST".into(),
            path: "/v1/jobs".into(),
            body,
        };
        match (parse_submit(&req), two_pass(&req)) {
            (Ok((one, wait)), Ok((two, wait_two))) => {
                prop_assert!(one.graph == two.graph, "graphs differ");
                prop_assert_eq!(graph_fingerprint(&one.graph), graph_fingerprint(&two.graph));
                prop_assert_eq!(format!("{one:?} {wait}"), format!("{two:?} {wait_two}"));
            }
            (Err(one), Err(two)) => {
                let non_finite = |e: &str| e.contains("inf") || e.contains("NaN");
                if !non_finite(&one) && !non_finite(&two) {
                    prop_assert_eq!(one, two);
                }
            }
            (one, two) => prop_assert!(
                false,
                "one pass: {:?}; two passes: {:?}",
                one.map(|_| "accepted"),
                two.map(|_| "accepted")
            ),
        }
        Ok(())
    }

    /// The non-random anchor: every zoo graph, compact and pretty, is
    /// accepted as the same job both ways.
    #[test]
    fn undamaged_zoo_bodies_decode_like_two_passes() {
        for g in zoo() {
            for pretty in [false, true] {
                let req = Request {
                    method: "POST".into(),
                    path: "/v1/jobs".into(),
                    body: body(g, pretty).into_bytes(),
                };
                let (spec, wait) = parse_submit(&req).expect("a zoo body is accepted");
                assert!(spec.graph == *g && wait);
                decodes_like_two_passes(req.body).unwrap();
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A body cut at any offset decodes as the two-pass path decoded it.
        #[test]
        fn truncated_bodies_decode_like_two_passes(
            source in 0usize..12,
            seed in any::<u64>(),
            pretty in any::<bool>(),
            frac in 0.0..1.0f64,
        ) {
            let full = body(&graph(source, seed), pretty).into_bytes();
            let cut = (frac * full.len() as f64) as usize;
            decodes_like_two_passes(full[..cut].to_vec())?;
        }

        /// A body with any one bit flipped decodes as the two-pass path
        /// decoded it.
        #[test]
        fn bit_flipped_bodies_decode_like_two_passes(
            source in 0usize..12,
            seed in any::<u64>(),
            pretty in any::<bool>(),
            frac in 0.0..1.0f64,
            bit in 0u8..8,
        ) {
            let mut damaged = body(&graph(source, seed), pretty).into_bytes();
            let pos = ((frac * damaged.len() as f64) as usize).min(damaged.len() - 1);
            damaged[pos] ^= 1 << bit;
            decodes_like_two_passes(damaged)?;
        }
    }
}
