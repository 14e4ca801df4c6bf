//! Seeded end-to-end and per-layer benchmark for LoC-MPS.
//!
//! ```sh
//! cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload search|serve|runtime --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs one workload and prints its end-to-end metrics, timed
//! in process CPU time (`common::cpu_ms`) scaled to a reference speed
//! (`common::sample_speed`).
//! `--trace 1` prints the per-layer split of all three workloads on the
//! seed's inputs, whichever workload is named (see `perfbench/README.md`).
//! The last line of standard output is one JSON object; any failed output
//! check makes `correct` false. A determinism mismatch is an error (exit
//! 1, no result), and so is an untraced run during which the host
//! reference drifted twice in a row.

mod common;
mod runtime;
mod search;
mod serve;

use std::fmt::Write as _;
use std::os::unix::process::CommandExt as _;
use std::process::{Command, ExitCode};

use common::{
    host_reference, out_dir, peak_rss_mb, reference_median_ms, reset_peak_rss, sample_speed,
    steal_s, Outcome,
};

const USAGE: &str =
    "usage: perfbench --workload search|serve|runtime --seed N --seconds S --trace 0|1";
const WORKLOADS: [&str; 3] = ["search", "serve", "runtime"];
/// An untraced measurement whose host ALU reference (CPU time of a fixed
/// loop) moved by more than this share between its start and its end is
/// discarded: the cores changed speed, so its CPU-time figures would move
/// by as much as `BENCHMARK.json` bounds them, whatever the code did.
const HOST_DRIFT_MAX: f64 = 0.25;
/// Set in the environment of the fresh process image that measures again
/// after the host drifted; a second drift is refused (exit 1, no result).
const RETRY_ENV: &str = "PERFBENCH_RETRY";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be > 0".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Compares this run's exact values with every earlier run of the same
/// workload, seed, run length and binary in this checkout, then records
/// them. A mismatch is an error, never noise.
fn guard(args: &Args, workload: &str, exact: &[(String, String)]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    let seed = args.seed;
    let path = out_dir().join(format!(
        "exact-{workload}-{seed}-{}s-{:016x}.txt",
        args.seconds,
        common::fnv1a(&bytes)
    ));
    let mut text = String::new();
    for (k, v) in exact {
        let _ = writeln!(text, "{k} {v}");
    }
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier != text => Err(format!(
            "determinism: {workload} seed {seed} changed an exact value since an earlier run \
             of this binary ({}):\n--- earlier\n{earlier}--- now\n{text}",
            path.display()
        )),
        Ok(_) => Ok(()),
        Err(_) => {
            let tmp = path.with_extension(format!("tmp{}", std::process::id()));
            std::fs::write(&tmp, &text).map_err(|e| e.to_string())?;
            std::fs::rename(&tmp, &path).map_err(|e| e.to_string())
        }
    }
}

/// The result line: `correct` is false when any output check failed.
fn render(out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0,
        out.attempted,
        out.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// One measurement: the traced split of all three workloads, or the named
/// workload's end-to-end metrics.
fn measure(args: &Args) -> Result<Outcome, String> {
    if !args.trace {
        let mut out = match args.workload.as_str() {
            "search" => search::run(args.seed, args.seconds)?,
            "serve" => serve::run(args.seed, args.seconds)?,
            _ => runtime::run(args.seed, args.seconds)?,
        };
        // Read before the guard hashes this binary into memory.
        out.push("peak_rss_mb", peak_rss_mb(), "MB");
        guard(args, &args.workload, &out.exact)?;
        return Ok(out);
    }
    let mut out = Outcome::default();
    for w in WORKLOADS {
        let started = std::time::Instant::now();
        let mut part = Outcome::default();
        let tracer = match w {
            "search" => search::layers(args.seed, &mut part)?,
            "serve" => serve::layers(args.seed, args.seconds, &mut part)?,
            _ => runtime::layers(args.seed, &mut part)?,
        };
        guard(args, w, &part.exact)?;
        let spans = out_dir().join(format!("spans-{w}-{}.jsonl", args.seed));
        tracer
            .write(&spans)
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        eprintln!(
            "{w}: traced in {:.1} s, {} spans written to {}",
            started.elapsed().as_secs_f64(),
            tracer.spans().len(),
            spans.display()
        );
        out.attempted += part.attempted;
        out.failed += part.failed;
        out.metrics.extend(part.metrics);
    }
    Ok(out)
}

/// Measures between two host references. An untraced measurement during
/// which the host drifted is made once more, in a fresh process image so
/// that `peak_rss_mb` starts from the same state.
fn run(args: &Args) -> Result<Outcome, String> {
    let (alu0, mem0) = host_reference();
    reset_peak_rss()?;
    let (steal0, started) = (steal_s(), std::time::Instant::now());
    sample_speed();
    let mut out = measure(args)?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let steal = (steal_s() - steal0) / (started.elapsed().as_secs_f64() * cores);
    let (alu1, mem1) = host_reference();
    eprintln!(
        "host reference: alu {alu0:.1} -> {alu1:.1} ms, mem {mem0:.1} -> {mem1:.1} ms (CPU time); \
         {:.1}% of the cores' time stolen by other tenants",
        steal * 100.0
    );
    let drift = alu1 / alu0 - 1.0;
    if !args.trace && drift.abs() > HOST_DRIFT_MAX {
        let what = format!(
            "the host drifted during the measurement (ALU reference {alu0:.1} -> {alu1:.1} ms, \
             {:+.0}% against a limit of {:.0}%)",
            drift * 100.0,
            HOST_DRIFT_MAX * 100.0
        );
        if std::env::var_os(RETRY_ENV).is_some() {
            return Err(format!(
                "{what}, again after a retry; its figures are not comparable"
            ));
        }
        eprintln!("{what}; measuring again");
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let err = Command::new(&exe)
            .args(std::env::args_os().skip(1))
            .env(RETRY_ENV, "1")
            .exec();
        return Err(format!("re-execute {}: {err}", exe.display()));
    }
    if args.trace {
        out.push("host.ref_alu_ms", (alu0 + alu1) / 2.0, "ms");
        out.push("host.ref_mem_ms", (mem0 + mem1) / 2.0, "ms");
        out.push("host.ref_sort_ms", reference_median_ms(), "ms");
        out.push("host.steal_share", steal, "ratio");
    }
    let bad: Vec<&str> = out
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.as_str())
        .collect();
    if !bad.is_empty() {
        return Err(format!("non-finite metric(s): {bad:?}"));
    }
    Ok(out)
}

fn main() -> ExitCode {
    common::single_malloc_arena();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match common::pin_to_one_cpu().and_then(|()| run(&args)) {
        Ok(out) => {
            println!("{}", render(&out));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
