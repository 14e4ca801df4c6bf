//! The CLI subcommands.

use locmps_analysis::replay;
use locmps_baselines::registry::{paper_set, scheduler_by_name, schemes, Registered};
use locmps_core::GanttOptions;
use locmps_platform::{Cluster, ClusterError};
use locmps_taskgraph::{GraphStats, TaskGraph};
use locmps_workloads::strassen::{strassen_graph, StrassenConfig};
use locmps_workloads::synthetic::{synthetic_graph, SyntheticConfig};
use locmps_workloads::tce::{ccsd_t1_graph, TceConfig};

use crate::args::{Args, Opt};

/// Top-level usage text.
pub const USAGE: &str = "\
usage: locmps <command> [options]

commands:
  generate <synthetic|ccsd|strassen> [--tasks N] [--ccr X] [--seed S]
           [--amax A] [--sigma S] [--occ N] [--virt N] [--n N(matrix)]
           [--levels L]
                                  emit a task graph as JSON on stdout
  stats    <graph.json> [--bandwidth MB/s]
                                  print structural statistics
  dot      <graph.json>           render Graphviz DOT on stdout
  svg      <graph.json> --out F    render a layered SVG drawing to F
  schedule <graph.json> --procs P [--algo locmps|icaslb|nobackfill|cpr|cpa|tsas|psonline|task|data]
           [--bandwidth MB/s] [--no-overlap] [--gantt] [--svg F]
                                  schedule and report makespans
  compare  <graph.json> --procs P [--bandwidth MB/s] [--no-overlap]
                                  run every scheme and compare
  analyze  <graph.json> --procs P [--algo NAME|all] [--bandwidth MB/s]
           [--no-overlap] [--json] [--deny-warnings]
                                  lint the graph and the (as-executed)
                                  schedule, reporting LMxxx diagnostics;
                                  exits nonzero on any error diagnostic
  run      <graph.json> --procs P [--policy plan|online|greedy]
           [--recovery failstop|retryshrink|replan|remold|hedged-NAME]
           [--faults SPEC] [--seed S] [--cv X] [--hedge]
           [--adapt] [--model-store F]
           [--straggler-threshold X] [--max-speculative N]
           [--max-attempts N] [--backoff X] [--bandwidth MB/s]
           [--no-overlap] [--json] [--deny-warnings]
                                  execute online with optional injected
                                  faults (SPEC: fail:P@T, slow:P@T0-T1xF,
                                  crash:T@F[xN], comma-separated), audit
                                  the trace with LM3xx diagnostics; exits
                                  nonzero if the run aborts or any error
                                  diagnostic fires. --hedge (or a
                                  hedged-NAME recovery) answers straggler
                                  alarms with speculative duplicates.
                                  --adapt defaults the recovery to remold
                                  (observation-driven re-molding), ingests
                                  the trace into a performance-model store
                                  audited by the LM33x lints, and persists
                                  it across runs via --model-store F
  chaos    [--procs P] [--seeds N] [--recovery NAME,NAME,...]
           [--max-faults N] [--quick] [--inject] [--seed S] [--cv X]
           [--straggler-threshold X] [--bandwidth MB/s] [--json]
                                  run seeded randomized fault campaigns
                                  under every recovery policy, audit each
                                  trace with LM3xx diagnostics, and shrink
                                  any failing plan to a minimal --faults
                                  reproducer; exits nonzero on failures.
                                  --inject spikes every plan with a
                                  tripwired crash to self-test the
                                  find-and-shrink loop end to end
  serve    [--addr HOST:PORT] [--workers N] [--queue-cap N]
           [--tenant-quota N] [--journal PATH] [--max-retries N]
           [--no-degradation]
                                  run the scheduling daemon: accept task
                                  graphs over HTTP/1.1 + JSON, schedule
                                  them on a worker pool, cache results by
                                  canonical DAG fingerprint, and enforce
                                  per-tenant quotas. --journal makes every
                                  acknowledged job durable across kill -9
                                  (replayed and re-enqueued on restart);
                                  under overload the daemon degrades to
                                  the cheap fallback scheduler and then
                                  sheds with 429 + Retry-After
                                  (see docs/SERVE.md)
";

/// One subcommand: its name, the positional arguments and options it
/// accepts (those [`USAGE`] lists for it) and what runs it.
struct Command {
    name: &'static str,
    positionals: &'static [&'static str],
    options: &'static [Opt],
    run: fn(&Args) -> Result<(), String>,
}

/// Every subcommand, in [`USAGE`] order.
const COMMANDS: &[Command] = &[
    Command {
        name: "generate",
        positionals: &["<synthetic|ccsd|strassen>"],
        options: &[
            Opt::Value("tasks"),
            Opt::Value("ccr"),
            Opt::Value("seed"),
            Opt::Value("amax"),
            Opt::Value("sigma"),
            Opt::Value("occ"),
            Opt::Value("virt"),
            Opt::Value("n"),
            Opt::Value("levels"),
        ],
        run: generate,
    },
    Command {
        name: "stats",
        positionals: &["<graph.json>"],
        options: &[Opt::Value("bandwidth")],
        run: stats,
    },
    Command {
        name: "dot",
        positionals: &["<graph.json>"],
        options: &[],
        run: dot,
    },
    Command {
        name: "svg",
        positionals: &["<graph.json>"],
        options: &[Opt::Value("out")],
        run: svg,
    },
    Command {
        name: "schedule",
        positionals: &["<graph.json>"],
        options: &[
            Opt::Value("procs"),
            Opt::Value("bandwidth"),
            Opt::Flag("no-overlap"),
            Opt::Value("algo"),
            Opt::Flag("gantt"),
            Opt::Value("svg"),
        ],
        run: schedule,
    },
    Command {
        name: "compare",
        positionals: &["<graph.json>"],
        options: &[
            Opt::Value("procs"),
            Opt::Value("bandwidth"),
            Opt::Flag("no-overlap"),
        ],
        run: compare,
    },
    Command {
        name: "analyze",
        positionals: &["<graph.json>"],
        options: &[
            Opt::Value("procs"),
            Opt::Value("bandwidth"),
            Opt::Flag("no-overlap"),
            Opt::Value("algo"),
            Opt::Flag("json"),
            Opt::Flag("deny-warnings"),
        ],
        run: analyze,
    },
    Command {
        name: "run",
        positionals: &["<graph.json>"],
        options: &[
            Opt::Value("procs"),
            Opt::Value("bandwidth"),
            Opt::Flag("no-overlap"),
            Opt::Value("policy"),
            Opt::Value("recovery"),
            Opt::Value("faults"),
            Opt::Value("seed"),
            Opt::Value("cv"),
            Opt::Flag("hedge"),
            Opt::Flag("adapt"),
            Opt::Value("model-store"),
            Opt::Value("straggler-threshold"),
            Opt::Value("max-speculative"),
            Opt::Value("max-attempts"),
            Opt::Value("backoff"),
            Opt::Flag("json"),
            Opt::Flag("deny-warnings"),
        ],
        run: run_online,
    },
    Command {
        name: "chaos",
        positionals: &[],
        options: &[
            Opt::Value("procs"),
            Opt::Value("seeds"),
            Opt::Value("recovery"),
            Opt::Value("max-faults"),
            Opt::Flag("quick"),
            Opt::Flag("inject"),
            Opt::Value("seed"),
            Opt::Value("cv"),
            Opt::Value("straggler-threshold"),
            Opt::Value("bandwidth"),
            Opt::Flag("json"),
        ],
        run: chaos,
    },
    Command {
        name: "serve",
        positionals: &[],
        options: &[
            Opt::Value("addr"),
            Opt::Value("workers"),
            Opt::Value("queue-cap"),
            Opt::Value("tenant-quota"),
            Opt::Value("journal"),
            Opt::Value("max-retries"),
            Opt::Flag("no-degradation"),
        ],
        run: serve,
    },
];

/// Dispatches one invocation: `argv[0]` names the command, and the rest
/// may use only the positionals and options that command declares.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let name = match argv.first() {
        Some(name) if !name.starts_with("--") => name,
        _ => return Err("missing command".into()),
    };
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command {name:?}"))?;
    (command.run)(&Args::parse(
        &argv[1..],
        name,
        command.positionals,
        command.options,
    )?)
}

fn load_graph(args: &Args) -> Result<TaskGraph, String> {
    let path = args.positional(0).ok_or("missing <graph.json> argument")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    TaskGraph::from_json(&text)
}

/// `--procs` (default `default_procs`; 0 makes the flag required) and
/// `--bandwidth` in MB/s (default 125) through [`Cluster::try_new`], the
/// check `POST /v1/jobs` and `POST /v1/analyze` make too.
fn checked_cluster(args: &Args, default_procs: usize) -> Result<Cluster, String> {
    let procs: usize = args.get_or("procs", default_procs)?;
    let bandwidth: f64 = args.get_or("bandwidth", 125.0)?;
    Cluster::try_new(procs, bandwidth).map_err(|e| match e {
        ClusterError::NoProcessors if default_procs == 0 => {
            "--procs is required (and must be >= 1)".to_string()
        }
        e => format!("--{e}"),
    })
}

/// The cluster of a command that schedules one graph: `--procs` is
/// required and `--no-overlap` selects the no-overlap regime.
fn cluster_from(args: &Args) -> Result<Cluster, String> {
    let c = checked_cluster(args, 0)?;
    Ok(if args.has("no-overlap") {
        c.without_overlap()
    } else {
        c
    })
}

fn generate(args: &Args) -> Result<(), String> {
    let kind = args.positional(0).ok_or("generate needs a workload kind")?;
    let g = match kind {
        "synthetic" => {
            let cfg = SyntheticConfig {
                n_tasks: args.get_or("tasks", 30usize)?,
                ccr: args.get_or("ccr", 0.0)?,
                a_max: args.get_or("amax", 64.0)?,
                sigma: args.get_or("sigma", 1.0)?,
                seed: args.get_or("seed", 0u64)?,
                ..Default::default()
            };
            if cfg.n_tasks == 0 {
                return Err("--tasks must be >= 1".into());
            }
            if !cfg.ccr.is_finite() || cfg.ccr < 0.0 {
                return Err("--ccr must be finite and >= 0".into());
            }
            if !cfg.a_max.is_finite() || cfg.a_max < 1.0 {
                return Err("--amax must be finite and >= 1".into());
            }
            if !cfg.sigma.is_finite() || cfg.sigma < 0.0 {
                return Err("--sigma must be finite and >= 0".into());
            }
            synthetic_graph(&cfg)
        }
        "ccsd" => {
            let cfg = TceConfig {
                n_occ: args.get_or("occ", 60usize)?,
                n_virt: args.get_or("virt", 300usize)?,
                ..Default::default()
            };
            if cfg.n_occ == 0 || cfg.n_virt == 0 {
                return Err("--occ and --virt must be >= 1".into());
            }
            ccsd_t1_graph(&cfg)
        }
        "strassen" => {
            let cfg = StrassenConfig {
                n: args.get_or("n", 1024usize)?,
                levels: args.get_or("levels", 1usize)?,
                ..Default::default()
            };
            if cfg.levels == 0 || cfg.levels >= usize::BITS as usize {
                return Err("--levels must be >= 1 (and sane)".into());
            }
            if cfg.n == 0 || !cfg.n.is_multiple_of(1 << cfg.levels) {
                return Err(format!(
                    "--n must be a positive multiple of 2^levels (= {})",
                    1usize << cfg.levels
                ));
            }
            strassen_graph(&cfg)
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    println!("{}", g.to_json());
    Ok(())
}

fn stats(args: &Args) -> Result<(), String> {
    let g = load_graph(args)?;
    // The CCR reads only the bandwidth; one processor stands in for P.
    // Checked before anything is printed, so a refused option prints no
    // statistics.
    let bandwidth: f64 = args.get_or("bandwidth", 125.0)?;
    let bw = Cluster::try_new(1, bandwidth)
        .map_err(|e| format!("--{e}"))?
        .bandwidth;
    let s = GraphStats::compute(&g);
    println!("tasks         : {}", s.n_tasks);
    println!("data edges    : {}", s.n_data_edges);
    println!("depth         : {}", s.depth);
    println!("width         : {}", s.width);
    println!("total work    : {:.2} s (sequential)", s.total_work);
    println!("total volume  : {:.2} MB", s.total_volume);
    println!("avg out-degree: {:.2}", s.avg_out_degree);
    println!("CCR @{bw} MB/s : {:.3}", s.ccr(bw));
    Ok(())
}

fn dot(args: &Args) -> Result<(), String> {
    let g = load_graph(args)?;
    print!("{}", g.to_dot());
    Ok(())
}

fn svg(args: &Args) -> Result<(), String> {
    let g = load_graph(args)?;
    let out = args
        .option("out")
        .filter(|o| !o.is_empty())
        .ok_or("svg needs --out <file>")?;
    let doc = locmps_viz::dag_svg(&g, locmps_viz::DagStyle::default());
    std::fs::write(out, doc).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("wrote {out}");
    Ok(())
}

fn schedule(args: &Args) -> Result<(), String> {
    let g = load_graph(args)?;
    let cluster = cluster_from(args)?;
    let algo = args.option("algo").unwrap_or("locmps").to_string();
    let s = scheduler_by_name(&algo)?;

    let t0 = std::time::Instant::now();
    let out = s.schedule(&g, &cluster).map_err(|e| e.to_string())?;
    let took = t0.elapsed().as_secs_f64();
    let rep = replay(&g, &cluster, &algo, &out, None);

    println!("scheduler          : {}", s.name());
    println!("planned makespan   : {:.3} s", out.makespan());
    println!("executed makespan  : {:.3} s", rep.makespan);
    println!("total redistribution: {:.3} s", rep.total_comm_time);
    println!("utilization        : {:.1} %", 100.0 * rep.utilization);
    println!("scheduling took    : {took:.4} s");
    if out.counters.any() {
        println!("search effort      : {}", out.counters);
    }
    if args.has("gantt") {
        println!();
        print!(
            "{}",
            rep.executed
                .gantt(&g, cluster.n_procs, GanttOptions::default())
        );
    }
    if let Some(path) = args.option("svg").filter(|o| !o.is_empty()) {
        let doc = locmps_viz::gantt_svg(
            &rep.executed,
            &g,
            cluster.n_procs,
            locmps_viz::GanttStyle::default(),
        );
        std::fs::write(path, doc).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn analyze(args: &Args) -> Result<(), String> {
    use locmps_analysis::{analyze_schedulers, Severity};

    let g = load_graph(args)?;
    let cluster = cluster_from(args)?;
    let algos: Vec<&str> = match args.option("algo").unwrap_or("locmps") {
        "all" => paper_set().map(Registered::name).collect(),
        algo => vec![algo],
    };
    let report = analyze_schedulers(&g, &cluster, &algos)?;

    if args.has("json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_text());
    }

    if report.has_errors() {
        return Err(format!(
            "{} error diagnostic(s) found",
            report.count(Severity::Error)
        ));
    }
    if args.has("deny-warnings") && report.count(Severity::Warn) > 0 {
        return Err(format!(
            "{} warning diagnostic(s) found with --deny-warnings",
            report.count(Severity::Warn)
        ));
    }
    Ok(())
}

fn run_online(args: &Args) -> Result<(), String> {
    use locmps_runtime::{FaultPlan, OnlineConfig, PerfModelStore};

    let g = load_graph(args)?;
    let cluster = cluster_from(args)?;

    // --adapt closes the observation loop: run under the re-molding
    // recovery (unless --recovery overrides it), then feed the trace's
    // winning attempts back into a performance-model store that
    // --model-store persists across invocations.
    let adapt = args.has("adapt");
    let store_path = args.option("model-store");
    if store_path.is_some() && !adapt {
        return Err("--model-store requires --adapt".into());
    }
    let store = match store_path {
        Some(p) if std::path::Path::new(p).exists() => {
            let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
            PerfModelStore::from_json(&text).map_err(|e| format!("{p}: {e}"))?
        }
        _ => PerfModelStore::new(),
    };

    let faults = match args.option("faults") {
        Some(spec) => FaultPlan::parse(spec).map_err(|e| format!("--faults: {e}"))?,
        None => FaultPlan::new(),
    };
    // Hedging is pointless without a watchdog, so --hedge flips the
    // threshold default from "off" (infinite) to 2x the estimate.
    let hedge = args.has("hedge");
    let default_threshold = if hedge { 2.0 } else { f64::INFINITY };
    let cfg = OnlineConfig {
        seed: args.get_or("seed", 0u64)?,
        exec_cv: args.get_or("cv", 0.0f64)?,
        straggler_threshold: args.get_or("straggler-threshold", default_threshold)?,
        max_speculative: args.get_or("max-speculative", 2usize)?,
        max_attempts: args.get_or("max-attempts", 16u32)?,
        backoff: args.get_or("backoff", 0.0f64)?,
    };
    let policy = args.option("policy").unwrap_or("plan");
    let mut recovery = args
        .option("recovery")
        .unwrap_or(if adapt { "remold" } else { "failstop" })
        .to_string();
    // --hedge is the `hedged-` spelling: one name, one way to build it.
    if hedge && !recovery.starts_with("hedged-") {
        recovery = format!("hedged-{recovery}");
    }

    let store = std::sync::Mutex::new(store);
    // No offline schedule to follow: `plan` plans with the default LoC-MPS.
    let dispatch = locmps_serve::Dispatch { policy, plan: None };
    let run = locmps_serve::run_and_audit(
        &g,
        &cluster,
        cfg,
        dispatch,
        &recovery,
        &faults,
        adapt.then_some(&store),
    )?;
    if let Some(ingest) = run.ingest {
        let store = store.into_inner().unwrap_or_else(|e| e.into_inner());
        if let Some(p) = store_path {
            let json = store
                .to_json()
                .map_err(|e| format!("serializing store: {e}"))?;
            std::fs::write(p, json).map_err(|e| format!("writing {p}: {e}"))?;
        }
        if !args.has("json") {
            println!(
                "adapt     : {} observation(s) ingested ({} skipped), store now holds {}",
                ingest.ingested,
                ingest.skipped_unfinished + ingest.skipped_degenerate,
                store.n_observations()
            );
        }
    }

    let summary = run.summary;
    if args.has("json") {
        // Checked serialization: a non-finite headline number would
        // otherwise degrade to `null` and corrupt downstream tooling.
        let json = serde_json::to_string_pretty_checked(&summary).map_err(|e| e.to_string())?;
        println!("{json}");
    } else {
        println!("policy    : {}", summary.policy);
        println!("recovery  : {}", summary.recovery);
        println!(
            "completed : {}/{}{}",
            summary.completed,
            summary.n_tasks,
            if summary.aborted { "  (ABORTED)" } else { "" }
        );
        println!("makespan  : {:.3} s", summary.makespan);
        println!("work lost : {:.3} proc-s", summary.work_lost);
        println!(
            "recovery  : {} retry(ies), {} replan(s), {} proc(s) lost",
            summary.retries, summary.replans, summary.procs_lost
        );
        if !summary.report.is_empty() {
            println!();
            print!("{}", summary.report.render_text());
        }
    }
    check_run_outcome(&summary.trace, &summary.report, args)
}

/// Exit-code contract of `locmps run`: incomplete executions and error
/// diagnostics are failures; warnings only fail under `--deny-warnings`.
fn check_run_outcome(
    trace: &locmps_runtime::ExecutionTrace,
    report: &locmps_analysis::Report,
    args: &Args,
) -> Result<(), String> {
    use locmps_analysis::Severity;
    if report.has_errors() {
        return Err(format!(
            "{} error diagnostic(s) found",
            report.count(Severity::Error)
        ));
    }
    if !trace.is_complete() {
        return Err(format!(
            "execution aborted with {}/{} tasks completed",
            trace.completed, trace.n_tasks
        ));
    }
    if args.has("deny-warnings") && report.count(Severity::Warn) > 0 {
        return Err(format!(
            "{} warning diagnostic(s) found with --deny-warnings",
            report.count(Severity::Warn)
        ));
    }
    Ok(())
}

/// Recovery policies a chaos battery exercises when `--recovery` is not
/// given: every plain policy plus a hedged variant.
const CHAOS_RECOVERIES: [&str; 5] = [
    "failstop",
    "retryshrink",
    "replan",
    "remold",
    "hedged-retryshrink",
];

fn chaos(args: &Args) -> Result<(), String> {
    use locmps_analysis::{analyze_trace, Severity};
    use locmps_runtime::{run_chaos, ChaosConfig, OnlineConfig};

    let cluster = checked_cluster(args, 8)?;
    let quick = args.has("quick");
    let seeds: u64 = args.get_or("seeds", if quick { 8 } else { 16 })?;
    if seeds == 0 {
        return Err("--seeds must be >= 1".into());
    }

    let synth = |n_tasks: usize, ccr: f64, seed: u64| {
        synthetic_graph(&SyntheticConfig {
            n_tasks,
            ccr,
            seed,
            ..Default::default()
        })
    };
    let workloads: Vec<(String, TaskGraph)> = if quick {
        vec![("synthetic-12".to_string(), synth(12, 0.3, 1))]
    } else {
        vec![
            ("synthetic-24".to_string(), synth(24, 0.3, 1)),
            ("synthetic-16-heavy-comm".to_string(), synth(16, 1.0, 2)),
            (
                "strassen-1".to_string(),
                strassen_graph(&StrassenConfig {
                    n: 512,
                    levels: 1,
                    ..Default::default()
                }),
            ),
        ]
    };

    let recoveries: Vec<String> = match args.option("recovery") {
        Some(list) => list.split(',').map(str::to_string).collect(),
        None => CHAOS_RECOVERIES.iter().map(|s| s.to_string()).collect(),
    };
    for r in &recoveries {
        if locmps_runtime::recovery_by_name(r).is_none() {
            return Err(format!("unknown recovery {r:?}"));
        }
    }

    let inject = args.has("inject");
    let cfg = ChaosConfig {
        engine: OnlineConfig {
            seed: args.get_or("seed", 0u64)?,
            exec_cv: args.get_or("cv", 0.1f64)?,
            straggler_threshold: args.get_or("straggler-threshold", 2.0f64)?,
            ..OnlineConfig::default()
        },
        max_faults: args.get_or("max-faults", if quick { 4 } else { 6 })?,
        inject,
    };
    cfg.engine.validate().map_err(|e| e.to_string())?;

    // The audit oracle: the first LM3xx error diagnostic fails the case.
    // Under --inject a tripwire treats any observed crash of task 0 as a
    // failure too, so the find-and-shrink loop is exercised end to end
    // even when every recovery handles the fault correctly.
    let report = run_chaos(
        &workloads,
        &cluster,
        &recoveries,
        seeds,
        &cfg,
        |trace, g, cluster| {
            let audit = analyze_trace(trace, g, cluster);
            if let Some(d) = audit
                .diagnostics()
                .iter()
                .find(|d| d.severity == Severity::Error)
            {
                return Some(format!("{}: {}", d.code, d.message));
            }
            if inject {
                let tripped = trace.events.iter().any(|e| {
                    matches!(
                        e.kind,
                        locmps_runtime::TraceEventKind::TaskCrash { task, .. }
                            if task.index() == 0
                    )
                });
                if tripped {
                    return Some("INJECTED: tripwired crash of task 0 observed".to_string());
                }
            }
            None
        },
    );

    if args.has("json") {
        let json = serde_json::to_string_pretty_checked(&report).map_err(|e| e.to_string())?;
        println!("{json}");
    } else {
        println!(
            "chaos: {} case(s) ({} workload(s) x {} seed(s) x {} recovery(ies)), {} failure(s)",
            report.cases,
            workloads.len(),
            seeds,
            recoveries.len(),
            report.failures.len()
        );
        for f in &report.failures {
            println!();
            println!("FAIL {} / {} / seed {}", f.workload, f.recovery, f.seed);
            println!("  error     : {}", f.error);
            println!("  campaign  : --faults {}", f.original_spec);
            println!("  minimized : --faults {}", f.minimized_spec);
        }
    }

    if !report.ok() {
        return Err(format!(
            "{} chaos failure(s) found (minimized reproducers above)",
            report.failures.len()
        ));
    }
    Ok(())
}

fn compare(args: &Args) -> Result<(), String> {
    let g = load_graph(args)?;
    let cluster = cluster_from(args)?;
    println!(
        "{:<12} {:>12} {:>12} {:>10} {:>8}",
        "scheme", "planned (s)", "executed (s)", "sched (s)", "rel"
    );
    let mut reference: Option<f64> = None;
    for scheme in schemes() {
        let s = scheme.build();
        let t0 = std::time::Instant::now();
        let out = s.schedule(&g, &cluster).map_err(|e| e.to_string())?;
        let took = t0.elapsed().as_secs_f64();
        let rep = replay(&g, &cluster, scheme.name(), &out, None);
        let reference_ms = *reference.get_or_insert(rep.makespan);
        println!(
            "{:<12} {:>12.3} {:>12.3} {:>10.4} {:>8.3}",
            s.name(),
            out.makespan(),
            rep.makespan,
            took,
            reference_ms / rep.makespan
        );
    }
    println!("\n(rel = makespan(LoC-MPS)/makespan(scheme); < 1 trails LoC-MPS)");
    Ok(())
}

/// `locmps serve`: run the scheduling daemon in the foreground until a
/// `POST /v1/shutdown` drains it.
fn serve(args: &Args) -> Result<(), String> {
    let addr = args.option("addr").unwrap_or("127.0.0.1:7077");
    let defaults = locmps_serve::ServeConfig::default();
    let cfg = locmps_serve::ServeConfig {
        workers: args.get_or("workers", 2usize)?.max(1),
        queue_cap: args.get_or("queue-cap", 64usize)?.max(1),
        tenant_quota: args.get_or("tenant-quota", 8usize)?.max(1),
        max_retries: args.get_or("max-retries", defaults.max_retries)?,
        degradation: !args.has("no-degradation"),
        ..defaults
    };
    let journal = args.option("journal").map(std::path::PathBuf::from);
    let server = locmps_serve::Server::bind_with_journal(addr, cfg, journal.as_deref())?;
    eprintln!(
        "locmps-serve listening on {} ({} workers, queue cap {}, tenant quota {}{})",
        server.addr(),
        cfg.workers,
        cfg.queue_cap,
        cfg.tenant_quota,
        match &journal {
            Some(p) => format!(", journal {}", p.display()),
            None => String::new(),
        }
    );
    server.run();
    eprintln!("locmps-serve drained and stopped");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(words: &[&str]) -> Result<(), String> {
        dispatch(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn graph_file() -> std::path::PathBuf {
        let g = synthetic_graph(&SyntheticConfig {
            n_tasks: 8,
            ccr: 0.3,
            seed: 1,
            ..Default::default()
        });
        // One file per call: the tests of this module share a process and
        // run in parallel, and each removes its file when it is done.
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("locmps_cli_test_{}_{n}.json", std::process::id()));
        std::fs::write(&path, g.to_json()).unwrap();
        path
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&["frobnicate"]).is_err());
        assert!(run(&[]).is_err());
        assert!(run(&["--procs", "4", "schedule"]).is_err());
    }

    /// The options [`USAGE`] lists for each command, each with whether it
    /// takes a value: the tokens `--name` in the command's synopsis (the
    /// part of its lines left of the description column), where a name
    /// followed by a placeholder (`--procs P`, `[--bandwidth MB/s]`) takes
    /// a value and a bracketed one alone (`[--gantt]`) is a flag.
    fn usage_options() -> Vec<(&'static str, Vec<(String, bool)>)> {
        let mut out: Vec<(&'static str, Vec<(String, bool)>)> = Vec::new();
        for line in USAGE.lines() {
            let Some(synopsis) = line.get(11..).filter(|_| line.starts_with("  ")) else {
                continue;
            };
            if line.starts_with(&" ".repeat(12)) && !synopsis.starts_with(['[', '-']) {
                continue; // description text
            }
            if let Some(c) = COMMANDS.iter().find(|c| line[2..].starts_with(c.name)) {
                out.push((c.name, Vec::new()));
            }
            let Some((_, opts)) = out.last_mut() else {
                continue;
            };
            let words: Vec<&str> = synopsis
                .split("   ")
                .next()
                .unwrap_or("")
                .split_whitespace()
                .collect();
            for (i, word) in words.iter().enumerate() {
                if let Some(name) = word.trim_start_matches('[').strip_prefix("--") {
                    let takes_value = !word.ends_with(']')
                        && words
                            .get(i + 1)
                            .is_some_and(|next| !next.trim_start_matches('[').starts_with("--"));
                    opts.push((name.trim_end_matches(']').to_string(), takes_value));
                }
            }
        }
        out
    }

    #[test]
    fn each_command_accepts_exactly_the_options_usage_lists() {
        let usage = usage_options();
        assert_eq!(
            usage.iter().map(|(name, _)| *name).collect::<Vec<_>>(),
            COMMANDS.iter().map(|c| c.name).collect::<Vec<_>>(),
            "USAGE documents every command, in order"
        );
        for ((name, listed), command) in usage.iter().zip(COMMANDS) {
            let declared: Vec<(String, bool)> = command
                .options
                .iter()
                .map(|o| (o.name().to_string(), matches!(o, Opt::Value(_))))
                .collect();
            for opt in listed {
                assert!(
                    declared.contains(opt),
                    "USAGE lists {opt:?} for {name}, which does not accept it"
                );
            }
            for opt in &declared {
                assert!(
                    listed.contains(opt),
                    "{name} accepts {opt:?}, which USAGE does not list"
                );
            }
        }
    }

    #[test]
    fn each_command_declares_the_positionals_usage_lists() {
        for command in COMMANDS {
            let line = USAGE
                .lines()
                .find(|l| l.get(2..).is_some_and(|l| l.starts_with(command.name)))
                .unwrap();
            let listed: Vec<&str> = line
                .split_whitespace()
                .filter(|w| w.starts_with('<'))
                .collect();
            assert_eq!(listed, command.positionals, "{}", command.name);
        }
    }

    #[test]
    fn options_of_another_command_are_refused() {
        let path = graph_file();
        let p = path.to_str().unwrap();
        let err = run(&["stats", p, "--procs", "4"]).unwrap_err();
        assert_eq!(err, "unknown option --procs for 'locmps stats'");
        let err = run(&["schedule", p, "--procs", "4", "--bandwidth"]).unwrap_err();
        assert_eq!(err, "option --bandwidth needs a value");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn stats_and_dot_and_schedule_run() {
        let path = graph_file();
        let p = path.to_str().unwrap();
        run(&["stats", p]).unwrap();
        run(&["dot", p]).unwrap();
        run(&["schedule", p, "--procs", "4"]).unwrap();
        run(&[
            "schedule",
            p,
            "--procs",
            "4",
            "--algo",
            "cpa",
            "--no-overlap",
        ])
        .unwrap();
        run(&["compare", p, "--procs", "4"]).unwrap();
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn schedule_requires_procs() {
        let path = graph_file();
        let p = path.to_str().unwrap();
        assert!(run(&["schedule", p]).is_err());
        assert!(run(&["schedule", p, "--procs", "0"]).is_err());
        assert!(run(&["schedule", p, "--procs", "4", "--algo", "nope"]).is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn non_finite_or_non_positive_bandwidth_is_an_error() {
        let path = graph_file();
        let p = path.to_str().unwrap();
        for bw in ["NaN", "nan", "inf", "-inf", "0", "-1"] {
            for cmd in [
                &["schedule", p, "--procs", "4"][..],
                &["analyze", p, "--procs", "4"],
                &["run", p, "--procs", "4"],
                &["stats", p],
                &["chaos", "--procs", "4", "--quick", "--seeds", "1"],
            ] {
                let mut words = cmd.to_vec();
                words.extend(["--bandwidth", bw]);
                let err = run(&words).unwrap_err();
                assert!(
                    err.contains("--bandwidth must be finite and > 0"),
                    "{words:?}: {err}"
                );
            }
        }
        run(&["stats", p, "--bandwidth", "12.5"]).unwrap();
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn svg_outputs_render() {
        let path = graph_file();
        let p = path.to_str().unwrap();
        let dag_out = std::env::temp_dir().join("locmps_cli_dag.svg");
        run(&["svg", p, "--out", dag_out.to_str().unwrap()]).unwrap();
        assert!(std::fs::read_to_string(&dag_out)
            .unwrap()
            .starts_with("<svg"));
        let gantt_out = std::env::temp_dir().join("locmps_cli_gantt.svg");
        run(&[
            "schedule",
            p,
            "--procs",
            "4",
            "--svg",
            gantt_out.to_str().unwrap(),
        ])
        .unwrap();
        assert!(std::fs::read_to_string(&gantt_out)
            .unwrap()
            .contains("makespan"));
        assert!(run(&["svg", p]).is_err(), "--out is required");
        for f in [dag_out, gantt_out, path] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn generate_emits_parseable_graphs() {
        // Exercise the generator paths directly (stdout goes to the test
        // harness, we only check success).
        run(&["generate", "synthetic", "--tasks", "12", "--ccr", "0.5"]).unwrap();
        run(&["generate", "strassen", "--n", "256"]).unwrap();
        run(&["generate", "ccsd", "--occ", "10", "--virt", "40"]).unwrap();
        assert!(run(&["generate", "unknown"]).is_err());
    }

    #[test]
    fn analyze_runs_clean_on_generated_graphs() {
        let path = graph_file();
        let p = path.to_str().unwrap();
        run(&["analyze", p, "--procs", "4"]).unwrap();
        run(&["analyze", p, "--procs", "4", "--algo", "all", "--json"]).unwrap();
        run(&[
            "analyze",
            p,
            "--procs",
            "4",
            "--algo",
            "cpa",
            "--no-overlap",
        ])
        .unwrap();
        assert!(run(&["analyze", p]).is_err(), "--procs is required");
        assert!(run(&["analyze", p, "--procs", "4", "--algo", "nope"]).is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn analyze_fails_on_error_diagnostics() {
        // A cyclic graph cannot be loaded (from_json re-validates), so
        // exercise the failure path with a graph whose profile is invalid
        // when linted — smuggled past the constructors via raw JSON with an
        // Amdahl fraction out of range... which from_json also rejects.
        // The reachable error path is therefore load failure itself plus
        // the exit-code contract on a clean run, covered above; here we
        // check that deny-warnings trips on a warning-carrying profile.
        let mut g = TaskGraph::new();
        let m = locmps_speedup::SpeedupModel::Linear
            .with_overhead(0.2)
            .unwrap();
        g.add_task("u", locmps_speedup::ExecutionProfile::new(10.0, m).unwrap());
        let path =
            std::env::temp_dir().join(format!("locmps_cli_analyze_{}.json", std::process::id()));
        std::fs::write(&path, g.to_json()).unwrap();
        let p = path.to_str().unwrap();
        // U-shaped profile: LM012 warning. Plain analyze passes...
        run(&["analyze", p, "--procs", "8"]).unwrap();
        // ...deny-warnings makes it fail.
        assert!(run(&["analyze", p, "--procs", "8", "--deny-warnings"]).is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn run_executes_with_and_without_faults() {
        let path = graph_file();
        let p = path.to_str().unwrap();
        // Fault-free, every policy.
        for policy in ["plan", "online", "greedy"] {
            run(&["run", p, "--procs", "4", "--policy", policy]).unwrap();
        }
        // A processor failure: failstop aborts (nonzero), the real
        // recoveries complete.
        assert!(run(&["run", p, "--procs", "4", "--faults", "fail:0@1"]).is_err());
        for rec in ["retryshrink", "replan"] {
            run(&[
                "run",
                p,
                "--procs",
                "4",
                "--faults",
                "fail:0@1",
                "--recovery",
                rec,
                "--json",
            ])
            .unwrap();
        }
        // Bad inputs surface as errors, not panics.
        assert!(run(&["run", p, "--procs", "4", "--faults", "bogus"]).is_err());
        assert!(run(&["run", p, "--procs", "4", "--policy", "nope"]).is_err());
        assert!(run(&["run", p, "--procs", "4", "--recovery", "nope"]).is_err());
        assert!(run(&["run", p, "--procs", "4", "--cv", "-1"]).is_err());
        assert!(run(&["run", p]).is_err(), "--procs is required");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn run_accepts_straggler_flags_and_hedged_recoveries() {
        let path = graph_file();
        let p = path.to_str().unwrap();
        // A slowdown makes one task straggle; hedging still completes.
        run(&[
            "run",
            p,
            "--procs",
            "4",
            "--faults",
            "slow:0@0-1000x10",
            "--hedge",
        ])
        .unwrap();
        // hedged-NAME recovery spelling, explicit knobs.
        run(&[
            "run",
            p,
            "--procs",
            "4",
            "--recovery",
            "hedged-retryshrink",
            "--faults",
            "slow:0@0-1000x10,crash:1@0.5",
            "--straggler-threshold",
            "1.5",
            "--max-speculative",
            "1",
            "--max-attempts",
            "8",
            "--backoff",
            "0.5",
        ])
        .unwrap();
        // Out-of-domain knobs are errors, not panics.
        assert!(run(&["run", p, "--procs", "4", "--straggler-threshold", "0.5"]).is_err());
        assert!(run(&["run", p, "--procs", "4", "--max-attempts", "0"]).is_err());
        assert!(run(&["run", p, "--procs", "4", "--backoff", "-1"]).is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn chaos_runs_clean_and_inject_trips_the_shrinker() {
        // A tiny clean battery passes...
        run(&[
            "chaos",
            "--procs",
            "4",
            "--seeds",
            "2",
            "--quick",
            "--recovery",
            "retryshrink",
        ])
        .unwrap();
        // ...and --inject must find (and minimize) the tripwired crash.
        let err = run(&[
            "chaos",
            "--procs",
            "4",
            "--seeds",
            "1",
            "--quick",
            "--inject",
            "--recovery",
            "retryshrink",
            "--json",
        ])
        .unwrap_err();
        assert!(err.contains("chaos failure"), "{err}");
        // Bad inputs surface as errors.
        assert!(run(&["chaos", "--procs", "0"]).is_err());
        assert!(run(&["chaos", "--seeds", "0"]).is_err());
        assert!(run(&["chaos", "--recovery", "nope"]).is_err());
    }

    #[test]
    fn generate_rejects_out_of_domain_parameters() {
        // Each of these would previously trip a library assert (a panic
        // reachable from user input); they must surface as Err instead.
        assert!(run(&["generate", "synthetic", "--tasks", "0"]).is_err());
        assert!(run(&["generate", "synthetic", "--ccr", "-1"]).is_err());
        assert!(run(&["generate", "synthetic", "--amax", "0.5"]).is_err());
        assert!(run(&["generate", "synthetic", "--sigma", "-2"]).is_err());
        assert!(run(&["generate", "strassen", "--levels", "0"]).is_err());
        assert!(run(&["generate", "strassen", "--n", "100", "--levels", "3"]).is_err());
        assert!(run(&["generate", "ccsd", "--occ", "0"]).is_err());
    }
}
