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

use locmps_analysis::{analyze_schedule, lint_input};
use locmps_core::CommModel;
use locmps_platform::Cluster;
use locmps_taskgraph::TaskGraph;
use serde::{field, Value};

use crate::http::{self, read_request, write_json_with, ParseError, Request};
use crate::registry::{scheduler_by_name, scheduler_names};
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
            (route(&req, svc, cfg, stop), line)
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

fn route(req: &Request, svc: &Service, cfg: &ServeConfig, stop: &AtomicBool) -> Resp {
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
                    .iter()
                    .map(|n| Value::Str((*n).to_string()))
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
        ("POST", "/v1/jobs") => submit(req, svc, cfg),
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
fn submit(req: &Request, svc: &Service, cfg: &ServeConfig) -> Resp {
    let (spec, wait) = match parse_submit(req) {
        Ok(parsed) => parsed,
        Err(msg) => return Resp::new(400, http::error_body(&msg)),
    };
    match svc.submit(cfg, spec) {
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

/// `POST /v1/analyze`: synchronous lint + schedule + LM2xx audit.
fn analyze(req: &Request) -> Resp {
    let parsed = (|| -> Result<String, String> {
        let body = req.body_utf8()?;
        let value: Value = serde_json::from_str(body).map_err(|e| e.to_string())?;
        let obj = value.as_object().ok_or("request body must be an object")?;
        let graph = graph_from(obj)?;
        let procs = get_usize(obj, "procs")?;
        let bandwidth = get_f64(obj, "bandwidth")?;
        if procs == 0 {
            return Err("procs must be >= 1".into());
        }
        if !bandwidth.is_finite() || bandwidth <= 0.0 {
            return Err("bandwidth must be finite and > 0".into());
        }
        let algo = get_str_or(obj, "algo", "locmps")?;
        let cluster = Cluster::new(procs, bandwidth);
        let mut report = lint_input(&graph, &cluster);
        if !report.has_errors() {
            let scheduler = scheduler_by_name(&algo)?;
            let out = scheduler
                .schedule(&graph, &cluster)
                .map_err(|e| format!("{}: {e}", scheduler.name()))?;
            let model = CommModel::new(&cluster);
            report.merge(analyze_schedule(&out.schedule, &graph, &model));
        }
        Ok(report.to_json())
    })();
    match parsed {
        Ok(json) => Resp::new(200, json),
        Err(msg) => Resp::new(400, http::error_body(&msg)),
    }
}

/// Hand-rolled submit-body parsing: the vendored derive has no optional
/// fields, and half of this payload is optional by design.
fn parse_submit(req: &Request) -> Result<(JobSpec, bool), String> {
    let body = req.body_utf8()?;
    let value: Value = serde_json::from_str(body).map_err(|e| e.to_string())?;
    let obj = value.as_object().ok_or("request body must be an object")?;

    let graph = graph_from(obj)?;
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

/// Extracts the `graph` field and rebuilds it through the canonical
/// `TaskGraphSpec` validation path (cycles, bad volumes, … all rejected
/// with its error text).
fn graph_from(obj: &[(String, Value)]) -> Result<TaskGraph, String> {
    let spec = field(obj, "graph").map_err(|e| e.to_string())?;
    TaskGraph::from_json(&serde_json::to_string(spec).map_err(|e| e.to_string())?)
        .map_err(|e| format!("graph: {e}"))
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
