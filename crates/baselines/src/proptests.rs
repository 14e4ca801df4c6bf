//! Property tests over all baselines: structural validity of every
//! schedule under the scheduler's own planning assumptions, lower-bound
//! compliance, and determinism.

use locmps_core::bounds::makespan_lower_bound;
use locmps_core::{CommModel, Scheduler};
use locmps_platform::Cluster;
use locmps_speedup::{DowneyParams, ExecutionProfile, SpeedupModel};
use locmps_taskgraph::{TaskGraph, TaskId};
use proptest::prelude::*;

use crate::{Cpa, Cpr, DataParallel, TaskParallel, Tsas};

fn arb_graph() -> impl Strategy<Value = TaskGraph> {
    (2usize..12, any::<u64>(), 0.1..0.4f64).prop_map(|(n, seed, density)| {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut g = TaskGraph::new();
        for i in 0..n {
            let work = 5.0 + 25.0 * next();
            let a = 1.0 + 31.0 * next();
            let sigma = 2.0 * next();
            let model = SpeedupModel::Downey(DowneyParams::new(a, sigma).unwrap());
            g.add_task(format!("t{i}"), ExecutionProfile::new(work, model).unwrap());
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if next() < density {
                    g.add_edge(TaskId(i as u32), TaskId(j as u32), 100.0 * next())
                        .unwrap();
                }
            }
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn all_baselines_respect_lower_bounds(g in arb_graph(), p in 1usize..10) {
        let cluster = Cluster::new(p, 12.5);
        let lb = makespan_lower_bound(&g, p);
        let schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(TaskParallel),
            Box::new(DataParallel),
            Box::new(Cpr),
            Box::new(Cpa),
            Box::new(Tsas::default()),
        ];
        for s in &schedulers {
            let out = s.schedule(&g, &cluster).unwrap();
            prop_assert!(
                out.makespan() + 1e-6 >= lb,
                "{} makespan {} below bound {lb}", s.name(), out.makespan()
            );
            // Structural sanity on every entry.
            for t in g.task_ids() {
                let e = out.schedule.get(t).unwrap();
                prop_assert!(e.np() >= 1 && e.np() <= p);
                prop_assert_eq!(e.np(), out.allocation.np(t));
                prop_assert!(e.finish >= e.start);
            }
        }
    }

    #[test]
    fn task_and_data_schedules_validate_under_true_model(g in arb_graph(), p in 1usize..8) {
        let cluster = Cluster::new(p, 12.5);
        let model = CommModel::new(&cluster);
        // TASK uses LoCBS so it is exact under the true model; DATA has no
        // transfers by construction.
        let task = TaskParallel.schedule(&g, &cluster).unwrap();
        prop_assert!(task.schedule.validate(&g, &model).is_ok(),
            "{:?}", task.schedule.validate(&g, &model));
        let data = DataParallel.schedule(&g, &cluster).unwrap();
        prop_assert!(data.schedule.validate(&g, &model).is_ok(),
            "{:?}", data.schedule.validate(&g, &model));
    }

    #[test]
    fn cpr_never_worse_than_its_task_parallel_start(g in arb_graph(), p in 1usize..8) {
        // CPR only commits strict improvements over the one-proc start.
        let cluster = Cluster::new(p, 12.5);
        let start = crate::PlainListScheduler
            .run(
                &g,
                &locmps_core::Allocation::ones(g.n_tasks()),
                &cluster,
                crate::listsched::ReadyRule::BottomLevel,
            )
            .unwrap();
        let out = Cpr.schedule(&g, &cluster).unwrap();
        prop_assert!(out.makespan() <= start.makespan * (1.0 + 1e-9));
    }

    #[test]
    fn data_makespan_formula(g in arb_graph(), p in 1usize..8) {
        let cluster = Cluster::new(p, 12.5);
        let out = DataParallel.schedule(&g, &cluster).unwrap();
        let expect: f64 = g.task_ids().map(|t| g.task(t).profile.time(p)).sum();
        prop_assert!((out.makespan() - expect).abs() < 1e-6 * expect.max(1.0));
    }

    #[test]
    fn baselines_are_deterministic(g in arb_graph(), p in 1usize..6) {
        let cluster = Cluster::new(p, 12.5);
        for run in 0..2 {
            let _ = run;
            let a = Cpa.schedule(&g, &cluster).unwrap();
            let b = Cpa.schedule(&g, &cluster).unwrap();
            prop_assert_eq!(a.schedule, b.schedule);
            let c = Cpr.schedule(&g, &cluster).unwrap();
            let d = Cpr.schedule(&g, &cluster).unwrap();
            prop_assert_eq!(c.schedule, d.schedule);
        }
    }
}
