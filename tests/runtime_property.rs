//! Property tests for the online runtime's fault-injection and recovery
//! machinery: random workloads × random fault plans × every recovery
//! policy, with the `LM3xx` trace diagnostics as the invariant oracle.
//!
//! The invariants:
//! * the structured event log never shows a causality violation, a
//!   double-booked processor, an attempt on a failed processor, or a
//!   dangling attempt (every start resolves);
//! * every task either completes or the trace records why not (an abort
//!   event naming it) — no task is silently dropped;
//! * identical seeds and fault plans give **bit-identical** traces for
//!   every recovery policy.

use locmps::analysis::analyze_trace;
use locmps::prelude::*;
use locmps::runtime::{
    FailStop, Fault, FaultPlan, OnlineConfig, PlanFollower, RecoveryPolicy, Remold, RetryShrink,
    RuntimeEngine,
};
use locmps::speedup::DowneyParams;
use locmps::taskgraph::TaskId;
use locmps::workloads::toys::fork_join;
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = TaskGraph> {
    (2usize..12, any::<u64>(), 0.1..0.45f64).prop_map(|(n, seed, density)| {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut g = TaskGraph::new();
        for i in 0..n {
            let work = 2.0 + 30.0 * next();
            let a = 1.0 + 40.0 * next();
            let sigma = 2.5 * next();
            let model = SpeedupModel::Downey(DowneyParams::new(a, sigma).unwrap());
            g.add_task(format!("t{i}"), ExecutionProfile::new(work, model).unwrap());
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if next() < density {
                    g.add_edge(TaskId(i as u32), TaskId(j as u32), 200.0 * next())
                        .unwrap();
                }
            }
        }
        g
    })
}

/// A seeded adversity script for a run of `g` on `p` processors whose
/// fault-free makespan is `m0`: up to `p-1` processor failures plus a
/// scripted crash of one task.
fn fault_plan(g: &TaskGraph, p: usize, m0: f64, seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::random_proc_failures(seed, p, (seed % 3) as usize, 0.7 * m0);
    let victim = TaskId((seed % g.n_tasks() as u64) as u32);
    plan.push(Fault::Crash {
        task: victim,
        at_frac: 0.25 + 0.5 * ((seed / 7) % 2) as f64,
        attempts: 1 + (seed % 2) as u32,
    })
    .expect("crash fault is valid");
    plan
}

fn recoveries() -> Vec<Box<dyn RecoveryPolicy>> {
    vec![
        Box::new(FailStop),
        Box::new(RetryShrink::new()),
        Box::new(Remold::replan()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_recovery_policy_yields_a_coherent_trace(
        g in arb_graph(),
        p in 2usize..7,
        seed in any::<u64>(),
    ) {
        let cluster = Cluster::new(p, 25.0);
        let m0 = RuntimeEngine::new(&g, &cluster, OnlineConfig::default())
            .run(&mut PlanFollower::locmps())
            .makespan;
        let faults = fault_plan(&g, p, m0, seed);
        for mut recovery in recoveries() {
            let trace = RuntimeEngine::new(&g, &cluster, OnlineConfig::default())
                .run_with_faults(&mut PlanFollower::locmps(), &faults, recovery.as_mut());
            // The LM3xx battery *is* the invariant set: causality,
            // double-booking, dead-processor launches, dangling attempts,
            // and completes-or-explained (orphan detection).
            let report = analyze_trace(&trace, &g, &cluster);
            prop_assert!(
                !report.has_errors(),
                "{}: {}", recovery.name(), report.render_text()
            );
            // The trace's own accounting agrees with its event log.
            prop_assert_eq!(trace.completed, trace.schedule.len());
            prop_assert!(trace.is_complete() != trace.aborted || trace.n_tasks == 0);
        }
    }

    /// `to_spec → parse` must reproduce every admissible plan bit for bit,
    /// including adversarial floats decoded straight from raw bit patterns
    /// (subnormals, maximal mantissas, huge magnitudes).
    #[test]
    fn fault_plan_spec_round_trips_for_arbitrary_floats(
        bits in any::<u64>(),
        proc in 0u32..8,
        attempts in 1u32..5,
    ) {
        let raw = f64::from_bits(bits);
        // Fold non-finite draws onto a finite value instead of discarding
        // the case (the vendored proptest has no prop_assume).
        let at = if raw.is_finite() { raw.abs() } else { 1.0 + (bits % 1024) as f64 };
        // Window arithmetic needs from + 1 to exceed from exactly.
        let from = at % 1e15;
        let frac = at.fract().clamp(f64::MIN_POSITIVE, 1.0 - 1e-12);
        let mut plan = FaultPlan::new();
        plan.push(Fault::ProcFail { proc, at }).unwrap();
        plan.push(Fault::Slowdown { proc, from, until: from + 1.0, factor: 1.0 + at % 7.0 })
            .unwrap();
        plan.push(Fault::Crash { task: TaskId(proc), at_frac: frac, attempts }).unwrap();
        let spec = plan.to_spec();
        let back = FaultPlan::parse(&spec);
        prop_assert!(back.is_ok(), "unparseable spec `{}`: {:?}", spec, back.err());
        prop_assert_eq!(back.unwrap(), plan, "lossy round-trip through `{}`", spec);
    }

    #[test]
    fn identical_seeds_give_bit_identical_traces(
        g in arb_graph(),
        p in 2usize..6,
        seed in any::<u64>(),
    ) {
        let cluster = Cluster::new(p, 25.0);
        let cfg = OnlineConfig { seed, exec_cv: 0.2, ..OnlineConfig::default() };
        let m0 = RuntimeEngine::new(&g, &cluster, OnlineConfig::default())
            .run(&mut PlanFollower::locmps())
            .makespan;
        let faults = fault_plan(&g, p, m0, seed);
        for mut recovery in recoveries() {
            let a = RuntimeEngine::new(&g, &cluster, cfg)
                .run_with_faults(&mut PlanFollower::locmps(), &faults, recovery.as_mut());
            let mut again = recoveries()
                .into_iter()
                .find(|r| r.name() == recovery.name())
                .expect("same policy");
            let b = RuntimeEngine::new(&g, &cluster, cfg)
                .run_with_faults(&mut PlanFollower::locmps(), &faults, again.as_mut());
            prop_assert_eq!(&a, &b, "{} trace is not reproducible", recovery.name());
        }
    }
}

/// The PR's acceptance scenario, pinned deterministically: a 2-failure
/// plan under which fail-stop cannot finish but both real recovery
/// policies complete every task.
#[test]
fn recoveries_survive_a_double_failure_failstop_does_not() {
    let g = fork_join(6, 10.0, 25.0);
    let cluster = Cluster::new(4, 25.0);
    let m0 = RuntimeEngine::new(&g, &cluster, OnlineConfig::default())
        .run(&mut PlanFollower::locmps())
        .makespan;
    let faults = FaultPlan::random_proc_failures(3, cluster.n_procs, 2, 0.6 * m0);

    let run = |recovery: &mut dyn RecoveryPolicy| {
        RuntimeEngine::new(&g, &cluster, OnlineConfig::default()).run_with_faults(
            &mut PlanFollower::locmps(),
            &faults,
            recovery,
        )
    };

    let fs = run(&mut FailStop);
    assert!(
        fs.aborted && !fs.is_complete(),
        "fail-stop should lose tasks under a double failure (completed {}/{})",
        fs.completed,
        fs.n_tasks
    );

    for mut recovery in [
        Box::new(RetryShrink::new()) as Box<dyn RecoveryPolicy>,
        Box::new(Remold::replan()),
    ] {
        let trace = run(recovery.as_mut());
        assert!(
            trace.is_complete(),
            "{} should complete all tasks ({}/{})",
            recovery.name(),
            trace.completed,
            trace.n_tasks
        );
        assert!(
            trace.makespan >= m0,
            "{}: recovery cannot beat the fault-free run",
            recovery.name()
        );
        let report = analyze_trace(&trace, &g, &cluster);
        assert!(!report.has_errors(), "{}", report.render_text());
    }
}
