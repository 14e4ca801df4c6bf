//! Diagnostics over the workload zoo: every scheduler in the paper's
//! comparison set must produce analyzer-clean schedules (zero `LMxxx`
//! *Error* diagnostics) on every zoo workload, and the schedule analyzer
//! must agree with [`Schedule::validate`] — analyzer-clean if and only if
//! validation passes.

use locmps::analysis::{codes, lint_input, replay_and_audit, Severity};
use locmps::baselines::registry::paper_set;
use locmps::prelude::*;
use locmps::workloads::strassen::{strassen_graph, StrassenConfig};
use locmps::workloads::synthetic::{synthetic_graph, SyntheticConfig};
use locmps::workloads::tce::{ccsd_t1_graph, TceConfig};
use locmps::workloads::toys::{chain, fork_join, independent};

fn workloads() -> Vec<(&'static str, TaskGraph)> {
    vec![
        ("chain", chain(6, 10.0, 20.0)),
        ("fork_join", fork_join(5, 8.0, 15.0)),
        ("independent", independent(6, 12.0, 0.2)),
        (
            "synthetic",
            synthetic_graph(&SyntheticConfig {
                n_tasks: 18,
                ccr: 0.5,
                seed: 77,
                ..Default::default()
            }),
        ),
        (
            "strassen",
            strassen_graph(&StrassenConfig {
                n: 512,
                ..Default::default()
            }),
        ),
        (
            "ccsd_t1",
            ccsd_t1_graph(&TceConfig {
                n_occ: 16,
                n_virt: 64,
                ..Default::default()
            }),
        ),
    ]
}

#[test]
fn zoo_inputs_are_lint_clean() {
    for (name, g) in workloads() {
        let cluster = Cluster::new(8, 100.0);
        let report = lint_input(&g, &cluster);
        assert_eq!(
            report.count(Severity::Error),
            0,
            "{name}: input lint errors:\n{}",
            report.render_text()
        );
        assert_eq!(
            report.count(Severity::Warn),
            0,
            "{name}: input lint warnings:\n{}",
            report.render_text()
        );
    }
}

#[test]
fn zoo_schedules_are_analyzer_clean_for_all_schedulers() {
    for (wname, g) in workloads() {
        for overlap in [true, false] {
            let cluster = if overlap {
                Cluster::new(8, 100.0)
            } else {
                Cluster::new(8, 100.0).without_overlap()
            };
            for kind in paper_set() {
                let s = kind.build();
                let out = s.schedule(&g, &cluster).unwrap();
                let diag = replay_and_audit(&g, &cluster, kind.name(), &out).report;
                assert_eq!(
                    diag.count(Severity::Error),
                    0,
                    "{wname}/{} (overlap={overlap}): analyzer errors:\n{}",
                    s.name(),
                    diag.render_text()
                );
                // Metrics are always emitted for a fully usable schedule.
                assert!(diag.has_code(codes::UTILIZATION), "{wname}/{}", s.name());
                assert!(diag.has_code(codes::IDLE_GAPS), "{wname}/{}", s.name());
            }
        }
    }
}

#[test]
fn analyzer_agrees_with_validate_on_the_zoo() {
    for (wname, g) in workloads() {
        let cluster = Cluster::new(8, 100.0);
        for kind in paper_set() {
            let s = kind.build();
            let out = s.schedule(&g, &cluster).unwrap();
            let replayed = replay_and_audit(&g, &cluster, kind.name(), &out);
            let (diag, model, executed) = (replayed.report, replayed.model, replayed.sim.executed);
            let analyzer_clean = diag.count(Severity::Error) == 0;
            let validate_ok = executed.validate(&g, &model).is_ok();
            assert_eq!(
                analyzer_clean,
                validate_ok,
                "{wname}/{}: analyzer said clean={analyzer_clean} but validate said ok={validate_ok}:\n{}\n{:?}",
                s.name(),
                diag.render_text(),
                executed.validate(&g, &model)
            );
        }
    }
}

#[test]
fn locality_stats_reported_on_communication_heavy_workloads() {
    let g = synthetic_graph(&SyntheticConfig {
        n_tasks: 18,
        ccr: 2.0,
        seed: 42,
        ..Default::default()
    });
    let cluster = Cluster::new(8, 100.0);
    let out = LocMps::default().schedule(&g, &cluster).unwrap();
    let diag = replay_and_audit(&g, &cluster, "locmps", &out).report;
    let loc: Vec<_> = diag.by_code(codes::LOCALITY).collect();
    assert_eq!(loc.len(), 1, "{}", diag.render_text());
    assert_eq!(loc[0].severity, Severity::Info);
}
