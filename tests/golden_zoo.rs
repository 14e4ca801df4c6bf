//! Golden-output pinning for the scheduler hot path: the optimized LoCBS /
//! LoC-MPS implementations must produce **bit-identical** schedules to the
//! seed implementation on the full workload zoo.
//!
//! Each fingerprint below is an FNV-1a hash of the serialized schedule
//! (processor sets and full-precision start/compute/finish times), captured
//! from the pre-optimization implementation. Any behavioral drift in the
//! placement kernel — candidate enumeration, locality selection, tie
//! breaking, estimate caching — changes a fingerprint and fails this test.
//!
//! Regenerate (after an *intentional* semantic change only) with
//! `cargo test --release --test golden_zoo -- --nocapture dump_fingerprints --ignored`.

use locmps::core::{Allocation, CommModel, Locbs, LocbsOptions, LocbsScratch};
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

/// FNV-1a over the serialized schedule: start/compute/finish are printed
/// with shortest-round-trip precision, so the hash pins exact f64 bits.
fn fingerprint(s: &locmps::core::Schedule) -> u64 {
    fnv(&serde_json::to_string(s).expect("schedules serialize"))
}

/// FNV-1a, 64-bit.
fn fnv(text: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A deterministic mixed-width allocation for the direct-LoCBS cases.
fn mixed_alloc(g: &TaskGraph, p: usize) -> Allocation {
    let half = (p / 2).max(1);
    Allocation::from_vec(g.task_ids().map(|t| 1 + (t.index() * 7) % half).collect())
}

fn locmps_cases() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (wname, g) in workloads() {
        for (cname, cluster) in [
            ("ovl", Cluster::new(7, 50.0)),
            ("noovl", Cluster::new(7, 50.0).without_overlap()),
        ] {
            for sched in [
                LocMps::default(),
                LocMps::new(LocMpsConfig::icaslb()),
                LocMps::new(LocMpsConfig::no_backfill()),
            ] {
                let outp = sched.schedule(&g, &cluster).expect("zoo schedules");
                out.push((
                    format!("{wname}/{cname}/{}", sched.name()),
                    fingerprint(&outp.schedule),
                ));
            }
        }
    }
    out
}

fn locbs_cases() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (wname, g) in workloads() {
        for (cname, cluster) in [
            ("ovl", Cluster::new(7, 50.0)),
            ("noovl", Cluster::new(7, 50.0).without_overlap()),
        ] {
            let model = CommModel::new(&cluster);
            let locbs = Locbs::new(model, LocbsOptions::default());
            let res = locbs
                .run(&g, &mixed_alloc(&g, cluster.n_procs))
                .expect("zoo places");
            out.push((
                format!("{wname}/{cname}/locbs-direct"),
                fingerprint(&res.schedule),
            ));
        }
    }
    out
}

/// Fault-free `OnlineLocbs` execution traces, fingerprinted whole —
/// events, schedule and makespan bits. Pins the run-time moulding +
/// placement path and the engine's event ordering, complementing the
/// offline tables above.
fn online_cases() -> Vec<(String, u64)> {
    use locmps::runtime::{OnlineConfig, OnlineLocbs, RuntimeEngine};
    let mut out = Vec::new();
    for (wname, g) in workloads() {
        for (cname, cluster) in [
            ("ovl", Cluster::new(7, 50.0)),
            ("noovl", Cluster::new(7, 50.0).without_overlap()),
        ] {
            let trace = RuntimeEngine::new(&g, &cluster, OnlineConfig::default())
                .run(&mut OnlineLocbs::default());
            assert!(trace.is_complete(), "{wname}/{cname}: fault-free zoo run");
            let text = serde_json::to_string(&trace).expect("traces serialize");
            out.push((format!("{wname}/{cname}/online-locbs"), fnv(&text)));
        }
    }
    out
}

/// The list-scheduling baselines, fingerprinted like the LoC-MPS cases.
/// CPR, CPA and TSAS place through `PlainListScheduler`; PS-ONLINE runs
/// the same placement loop with its own ready-task rule.
fn baseline_cases() -> Vec<(String, u64)> {
    use locmps::baselines::{Cpa, Cpr, OnlineMoldable, Tsas};
    let mut out = Vec::new();
    for (wname, g) in workloads() {
        for (cname, cluster) in [
            ("ovl", Cluster::new(7, 50.0)),
            ("noovl", Cluster::new(7, 50.0).without_overlap()),
        ] {
            let scheds: [&dyn Scheduler; 4] = [&Cpr, &Cpa, &Tsas::default(), &OnlineMoldable];
            for sched in scheds {
                let outp = sched.schedule(&g, &cluster).expect("zoo schedules");
                out.push((
                    format!("{wname}/{cname}/{}", sched.name()),
                    fingerprint(&outp.schedule),
                ));
            }
        }
    }
    out
}

/// Traces of faulty runs under every LoC-MPS-backed and retrying
/// recovery, fingerprinted whole. One fixed plan kills a processor, slows
/// another for the whole run and crashes a task once; the watchdog is
/// armed at 2, so the slowed processor raises straggler alarms that
/// `remold` learns from, `replan` ignores and the hedged wrappers answer
/// with speculative duplicates.
fn fault_cases() -> Vec<(String, u64)> {
    use locmps::runtime::{recovery_by_name, FaultPlan, OnlineConfig, PlanFollower, RuntimeEngine};
    let plan = FaultPlan::parse("fail:0@3,slow:1@0-1000000x3,crash:2@0.5").expect("fixed plan");
    let cfg = OnlineConfig {
        straggler_threshold: 2.0,
        ..OnlineConfig::default()
    };
    let mut out = Vec::new();
    for (wname, g) in workloads() {
        for (cname, cluster) in [
            ("ovl", Cluster::new(7, 50.0)),
            ("noovl", Cluster::new(7, 50.0).without_overlap()),
        ] {
            for name in [
                "retryshrink",
                "replan",
                "remold",
                "hedged-replan",
                "hedged-remold",
            ] {
                let mut recovery = recovery_by_name(name).expect("registered recovery");
                let trace = RuntimeEngine::new(&g, &cluster, cfg).run_with_faults(
                    &mut PlanFollower::locmps(),
                    &plan,
                    recovery.as_mut(),
                );
                assert!(trace.is_complete(), "{wname}/{cname}/{name}: recovers");
                let text = serde_json::to_string(&trace).expect("traces serialize");
                out.push((format!("{wname}/{cname}/{name}"), fnv(&text)));
            }
        }
    }
    out
}

/// Charts whose processor bitmaps span more than one 64-bit word: direct
/// LoCBS passes at P = 96 and P = 130 on both overlap regimes, with and
/// without backfilling, plus one LoC-MPS search at P = 96. Each case
/// pins the schedule and the schedule-DAG (pseudo-edges included).
fn multiword_cases() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (wname, g) in workloads() {
        for p in [96, 130] {
            for (cname, cluster) in [
                ("ovl", Cluster::new(p, 50.0)),
                ("noovl", Cluster::new(p, 50.0).without_overlap()),
            ] {
                for (bname, backfill) in [("backfill", true), ("no-backfill", false)] {
                    let locbs = Locbs::new(CommModel::new(&cluster), LocbsOptions { backfill });
                    let res = locbs.run(&g, &mixed_alloc(&g, p)).expect("zoo places");
                    let text = serde_json::to_string(&res.schedule).expect("schedules serialize")
                        + &res.schedule_dag.to_json();
                    out.push((format!("{wname}/p{p}/{cname}/{bname}"), fnv(&text)));
                }
            }
        }
    }
    let g = synthetic_graph(&SyntheticConfig {
        n_tasks: 16,
        ccr: 0.5,
        seed: 7,
        ..Default::default()
    });
    let outp = LocMps::default()
        .schedule(&g, &Cluster::new(96, 50.0))
        .expect("synthetic schedules");
    let text = serde_json::to_string(&outp.schedule).expect("schedules serialize")
        + &format!("{:?}", outp.allocation.as_slice());
    out.push(("synthetic-16/p96/ovl/LoC-MPS".to_string(), fnv(&text)));
    out
}

#[test]
#[ignore = "generator: prints the fingerprint tables for the constants below"]
fn dump_fingerprints() {
    println!("const LOCMPS_GOLDEN: &[(&str, u64)] = &[");
    for (name, fp) in locmps_cases() {
        println!("    (\"{name}\", 0x{fp:016x}),");
    }
    println!("];");
    println!("const LOCBS_GOLDEN: &[(&str, u64)] = &[");
    for (name, fp) in locbs_cases() {
        println!("    (\"{name}\", 0x{fp:016x}),");
    }
    println!("];");
    println!("const ONLINE_GOLDEN: &[(&str, u64)] = &[");
    for (name, fp) in online_cases() {
        println!("    (\"{name}\", 0x{fp:016x}),");
    }
    println!("];");
    println!("const BASELINE_GOLDEN: &[(&str, u64)] = &[");
    for (name, fp) in baseline_cases() {
        println!("    (\"{name}\", 0x{fp:016x}),");
    }
    println!("];");
    println!("const FAULT_GOLDEN: &[(&str, u64)] = &[");
    for (name, fp) in fault_cases() {
        println!("    (\"{name}\", 0x{fp:016x}),");
    }
    println!("];");
    println!("const MULTIWORD_GOLDEN: &[(&str, u64)] = &[");
    for (name, fp) in multiword_cases() {
        println!("    (\"{name}\", 0x{fp:016x}),");
    }
    println!("];");
}

const LOCMPS_GOLDEN: &[(&str, u64)] = &[
    ("chain/ovl/LoC-MPS", 0x51b023f5229c1847),
    ("chain/ovl/iCASLB", 0x51b023f5229c1847),
    ("chain/ovl/LoC-MPS/no-backfill", 0x51b023f5229c1847),
    ("chain/noovl/LoC-MPS", 0x51b023f5229c1847),
    ("chain/noovl/iCASLB", 0x51b023f5229c1847),
    ("chain/noovl/LoC-MPS/no-backfill", 0x51b023f5229c1847),
    ("fork_join/ovl/LoC-MPS", 0xcad58329ff4f976a),
    ("fork_join/ovl/iCASLB", 0xcad58329ff4f976a),
    ("fork_join/ovl/LoC-MPS/no-backfill", 0xcad58329ff4f976a),
    ("fork_join/noovl/LoC-MPS", 0xcad58329ff4f976a),
    ("fork_join/noovl/iCASLB", 0xcad58329ff4f976a),
    ("fork_join/noovl/LoC-MPS/no-backfill", 0xcad58329ff4f976a),
    ("independent/ovl/LoC-MPS", 0x9e268f4e2b7a1e2d),
    ("independent/ovl/iCASLB", 0x9e268f4e2b7a1e2d),
    ("independent/ovl/LoC-MPS/no-backfill", 0x9e268f4e2b7a1e2d),
    ("independent/noovl/LoC-MPS", 0x9e268f4e2b7a1e2d),
    ("independent/noovl/iCASLB", 0x9e268f4e2b7a1e2d),
    ("independent/noovl/LoC-MPS/no-backfill", 0x9e268f4e2b7a1e2d),
    ("synthetic/ovl/LoC-MPS", 0x22479f276656b763),
    ("synthetic/ovl/iCASLB", 0x9001c635e80db80a),
    ("synthetic/ovl/LoC-MPS/no-backfill", 0x22479f276656b763),
    ("synthetic/noovl/LoC-MPS", 0x22479f276656b763),
    ("synthetic/noovl/iCASLB", 0x9001c635e80db80a),
    ("synthetic/noovl/LoC-MPS/no-backfill", 0x22479f276656b763),
    ("strassen/ovl/LoC-MPS", 0x5f633311a6ba48c7),
    ("strassen/ovl/iCASLB", 0xbfb85327f1fe267b),
    ("strassen/ovl/LoC-MPS/no-backfill", 0x5f633311a6ba48c7),
    ("strassen/noovl/LoC-MPS", 0x5f633311a6ba48c7),
    ("strassen/noovl/iCASLB", 0xbfb85327f1fe267b),
    ("strassen/noovl/LoC-MPS/no-backfill", 0x5f633311a6ba48c7),
    ("ccsd_t1/ovl/LoC-MPS", 0xfa7989cfa100eb68),
    ("ccsd_t1/ovl/iCASLB", 0x64efa7fc02c38a58),
    ("ccsd_t1/ovl/LoC-MPS/no-backfill", 0x201a9b306083fbc2),
    ("ccsd_t1/noovl/LoC-MPS", 0x12a4482b6f9fe7dc),
    ("ccsd_t1/noovl/iCASLB", 0x64efa7fc02c38a58),
    ("ccsd_t1/noovl/LoC-MPS/no-backfill", 0x7699ebfaac22fa29),
];
const LOCBS_GOLDEN: &[(&str, u64)] = &[
    ("chain/ovl/locbs-direct", 0xd3076428d01f69ef),
    ("chain/noovl/locbs-direct", 0x9e47840b54671825),
    ("fork_join/ovl/locbs-direct", 0xf1cb617eb7c3088d),
    ("fork_join/noovl/locbs-direct", 0xaf6bbb7952b0ba64),
    ("independent/ovl/locbs-direct", 0x9588bddb0d89f255),
    ("independent/noovl/locbs-direct", 0x9588bddb0d89f255),
    ("synthetic/ovl/locbs-direct", 0xe96b39a1b4874a63),
    ("synthetic/noovl/locbs-direct", 0x1bf08da4a0f6065c),
    ("strassen/ovl/locbs-direct", 0x7e027bda24fea542),
    ("strassen/noovl/locbs-direct", 0xb4dd641179a8d888),
    ("ccsd_t1/ovl/locbs-direct", 0xede3d0914594410a),
    ("ccsd_t1/noovl/locbs-direct", 0x783909ac63a4a579),
];

fn check(actual: Vec<(String, u64)>, golden: &[(&str, u64)]) {
    assert_eq!(
        actual.len(),
        golden.len(),
        "case count drifted — regenerate the table"
    );
    for ((name, fp), (gname, gfp)) in actual.iter().zip(golden) {
        assert_eq!(name, gname, "case order drifted — regenerate the table");
        assert_eq!(
            *fp, *gfp,
            "{name}: schedule is no longer bit-identical to the seed implementation"
        );
    }
}

#[test]
fn locmps_schedules_match_seed_fingerprints() {
    check(locmps_cases(), LOCMPS_GOLDEN);
}

#[test]
fn locbs_placements_match_seed_fingerprints() {
    check(locbs_cases(), LOCBS_GOLDEN);
}

const ONLINE_GOLDEN: &[(&str, u64)] = &[
    ("chain/ovl/online-locbs", 0x2f27a9a230875a07),
    ("chain/noovl/online-locbs", 0x2f27a9a230875a07),
    ("fork_join/ovl/online-locbs", 0xa07ab444da17e82c),
    ("fork_join/noovl/online-locbs", 0xbc8a92bc7a1dd01d),
    ("independent/ovl/online-locbs", 0x88777aa2c347230f),
    ("independent/noovl/online-locbs", 0x88777aa2c347230f),
    ("synthetic/ovl/online-locbs", 0x2050c643bb33c7ca),
    ("synthetic/noovl/online-locbs", 0x012bd9e409ae32ab),
    ("strassen/ovl/online-locbs", 0xc3692116786fa996),
    ("strassen/noovl/online-locbs", 0xeed236db07ee3ba4),
    ("ccsd_t1/ovl/online-locbs", 0x99c14045cdd17f7b),
    ("ccsd_t1/noovl/online-locbs", 0x78983ddd702114c7),
];

#[test]
fn online_traces_match_pinned_fingerprints() {
    check(online_cases(), ONLINE_GOLDEN);
}

const BASELINE_GOLDEN: &[(&str, u64)] = &[
    ("chain/ovl/CPR", 0x681faac3c2dba779),
    ("chain/ovl/CPA", 0x681faac3c2dba779),
    ("chain/ovl/TSAS", 0x681faac3c2dba779),
    ("chain/ovl/PS-ONLINE", 0x471c8e8c166edc5c),
    ("chain/noovl/CPR", 0x681faac3c2dba779),
    ("chain/noovl/CPA", 0x681faac3c2dba779),
    ("chain/noovl/TSAS", 0x681faac3c2dba779),
    ("chain/noovl/PS-ONLINE", 0x471c8e8c166edc5c),
    ("fork_join/ovl/CPR", 0x5b337d4ba8ad6e6b),
    ("fork_join/ovl/CPA", 0x6e61be749c0f1ba2),
    ("fork_join/ovl/TSAS", 0x6e61be749c0f1ba2),
    ("fork_join/ovl/PS-ONLINE", 0xe2db60aa376cc835),
    ("fork_join/noovl/CPR", 0x5b337d4ba8ad6e6b),
    ("fork_join/noovl/CPA", 0x6e61be749c0f1ba2),
    ("fork_join/noovl/TSAS", 0x6e61be749c0f1ba2),
    ("fork_join/noovl/PS-ONLINE", 0xe2db60aa376cc835),
    ("independent/ovl/CPR", 0x9e268f4e2b7a1e2d),
    ("independent/ovl/CPA", 0x3216f1205d087789),
    ("independent/ovl/TSAS", 0x9e268f4e2b7a1e2d),
    ("independent/ovl/PS-ONLINE", 0xe2fe07d981c9ad86),
    ("independent/noovl/CPR", 0x9e268f4e2b7a1e2d),
    ("independent/noovl/CPA", 0x3216f1205d087789),
    ("independent/noovl/TSAS", 0x9e268f4e2b7a1e2d),
    ("independent/noovl/PS-ONLINE", 0xe2fe07d981c9ad86),
    ("synthetic/ovl/CPR", 0x5ea469bf0f96bc39),
    ("synthetic/ovl/CPA", 0xb92fd8e4aacbe3f1),
    ("synthetic/ovl/TSAS", 0xe0f2da681679d45d),
    ("synthetic/ovl/PS-ONLINE", 0xf5498aaedc4a320e),
    ("synthetic/noovl/CPR", 0x5ea469bf0f96bc39),
    ("synthetic/noovl/CPA", 0xb92fd8e4aacbe3f1),
    ("synthetic/noovl/TSAS", 0xe0f2da681679d45d),
    ("synthetic/noovl/PS-ONLINE", 0xf5498aaedc4a320e),
    ("strassen/ovl/CPR", 0xacc3e47e67b25394),
    ("strassen/ovl/CPA", 0xa2d4859a78e21100),
    ("strassen/ovl/TSAS", 0x4b07ee23328dc67a),
    ("strassen/ovl/PS-ONLINE", 0xb0d3e32e538c7db2),
    ("strassen/noovl/CPR", 0xacc3e47e67b25394),
    ("strassen/noovl/CPA", 0xa2d4859a78e21100),
    ("strassen/noovl/TSAS", 0x4b07ee23328dc67a),
    ("strassen/noovl/PS-ONLINE", 0xb0d3e32e538c7db2),
    ("ccsd_t1/ovl/CPR", 0xf416ce5d77223ef1),
    ("ccsd_t1/ovl/CPA", 0xba365026625a11c4),
    ("ccsd_t1/ovl/TSAS", 0x2cbdcffbb842f730),
    ("ccsd_t1/ovl/PS-ONLINE", 0xc0aeac346c2d639e),
    ("ccsd_t1/noovl/CPR", 0xf416ce5d77223ef1),
    ("ccsd_t1/noovl/CPA", 0xba365026625a11c4),
    ("ccsd_t1/noovl/TSAS", 0x2cbdcffbb842f730),
    ("ccsd_t1/noovl/PS-ONLINE", 0xc0aeac346c2d639e),
];

#[test]
fn baseline_schedules_match_pinned_fingerprints() {
    check(baseline_cases(), BASELINE_GOLDEN);
}

const FAULT_GOLDEN: &[(&str, u64)] = &[
    ("chain/ovl/retryshrink", 0xa3e408a7044d4e79),
    ("chain/ovl/replan", 0x6eb8012ab4cf4ae7),
    ("chain/ovl/remold", 0x67cce3cd995d5d2f),
    ("chain/ovl/hedged-replan", 0x6eb8012ab4cf4ae7),
    ("chain/ovl/hedged-remold", 0x6eb8012ab4cf4ae7),
    ("chain/noovl/retryshrink", 0xa3e408a7044d4e79),
    ("chain/noovl/replan", 0x6eb8012ab4cf4ae7),
    ("chain/noovl/remold", 0x67cce3cd995d5d2f),
    ("chain/noovl/hedged-replan", 0x6eb8012ab4cf4ae7),
    ("chain/noovl/hedged-remold", 0x6eb8012ab4cf4ae7),
    ("fork_join/ovl/retryshrink", 0x4abb1b087078e8db),
    ("fork_join/ovl/replan", 0xd5a7d50a01906fd2),
    ("fork_join/ovl/remold", 0xd50d2f5ff58e00dd),
    ("fork_join/ovl/hedged-replan", 0xd5a7d50a01906fd2),
    ("fork_join/ovl/hedged-remold", 0xd5a7d50a01906fd2),
    ("fork_join/noovl/retryshrink", 0x038088d615754045),
    ("fork_join/noovl/replan", 0x5cd4ebe522cb3560),
    ("fork_join/noovl/remold", 0xd7870e302110c9f1),
    ("fork_join/noovl/hedged-replan", 0x5cd4ebe522cb3560),
    ("fork_join/noovl/hedged-remold", 0x5cd4ebe522cb3560),
    ("independent/ovl/retryshrink", 0x4670c872183d1c44),
    ("independent/ovl/replan", 0x9975599191130866),
    ("independent/ovl/remold", 0x42dc09dfedf7e8e1),
    ("independent/ovl/hedged-replan", 0xcb881da0e0a266da),
    ("independent/ovl/hedged-remold", 0xcb881da0e0a266da),
    ("independent/noovl/retryshrink", 0x4670c872183d1c44),
    ("independent/noovl/replan", 0x9975599191130866),
    ("independent/noovl/remold", 0x42dc09dfedf7e8e1),
    ("independent/noovl/hedged-replan", 0xcb881da0e0a266da),
    ("independent/noovl/hedged-remold", 0xcb881da0e0a266da),
    ("synthetic/ovl/retryshrink", 0xfceb62fbbe041f44),
    ("synthetic/ovl/replan", 0x9e7177970803dadd),
    ("synthetic/ovl/remold", 0x1c0007bec946feb3),
    ("synthetic/ovl/hedged-replan", 0x6d9d7c3f6277e028),
    ("synthetic/ovl/hedged-remold", 0x6d9d7c3f6277e028),
    ("synthetic/noovl/retryshrink", 0xfceb62fbbe041f44),
    ("synthetic/noovl/replan", 0x0c83c65e3f65d022),
    ("synthetic/noovl/remold", 0xa3375331f1c2dac7),
    ("synthetic/noovl/hedged-replan", 0x0c83c65e3f65d022),
    ("synthetic/noovl/hedged-remold", 0x0c83c65e3f65d022),
    ("strassen/ovl/retryshrink", 0xa47775d60394fe83),
    ("strassen/ovl/replan", 0x32eaa4072490d686),
    ("strassen/ovl/remold", 0x09eef50a78184d61),
    ("strassen/ovl/hedged-replan", 0x741f02f3fb71c350),
    ("strassen/ovl/hedged-remold", 0x741f02f3fb71c350),
    ("strassen/noovl/retryshrink", 0xa47775d60394fe83),
    ("strassen/noovl/replan", 0x22033f9e598458e5),
    ("strassen/noovl/remold", 0xb9266cf3880c9fe5),
    ("strassen/noovl/hedged-replan", 0x22033f9e598458e5),
    ("strassen/noovl/hedged-remold", 0x22033f9e598458e5),
    ("ccsd_t1/ovl/retryshrink", 0xad35eecc31ff0823),
    ("ccsd_t1/ovl/replan", 0x571627379608cd89),
    ("ccsd_t1/ovl/remold", 0x2b1f37b7343f1ac4),
    ("ccsd_t1/ovl/hedged-replan", 0x0a21ff2979f867c0),
    ("ccsd_t1/ovl/hedged-remold", 0x0a21ff2979f867c0),
    ("ccsd_t1/noovl/retryshrink", 0xfe3995f14fc13d1f),
    ("ccsd_t1/noovl/replan", 0x1e01f232fc9179f9),
    ("ccsd_t1/noovl/remold", 0xf0e9abd007c84812),
    ("ccsd_t1/noovl/hedged-replan", 0xf0950bad3fba8b5f),
    ("ccsd_t1/noovl/hedged-remold", 0xf0950bad3fba8b5f),
];

#[test]
fn fault_run_traces_match_pinned_fingerprints() {
    check(fault_cases(), FAULT_GOLDEN);
}

const MULTIWORD_GOLDEN: &[(&str, u64)] = &[
    ("chain/p96/ovl/backfill", 0x634b28a080a6119b),
    ("chain/p96/ovl/no-backfill", 0x634b28a080a6119b),
    ("chain/p96/noovl/backfill", 0x70d6356d6d77771b),
    ("chain/p96/noovl/no-backfill", 0x70d6356d6d77771b),
    ("chain/p130/ovl/backfill", 0x634b28a080a6119b),
    ("chain/p130/ovl/no-backfill", 0x634b28a080a6119b),
    ("chain/p130/noovl/backfill", 0x70d6356d6d77771b),
    ("chain/p130/noovl/no-backfill", 0x70d6356d6d77771b),
    ("fork_join/p96/ovl/backfill", 0x4d9aa2c4f7001e58),
    ("fork_join/p96/ovl/no-backfill", 0x204fd36bea1d3e21),
    ("fork_join/p96/noovl/backfill", 0x4da5002b0310e9c3),
    ("fork_join/p96/noovl/no-backfill", 0x4da5002b0310e9c3),
    ("fork_join/p130/ovl/backfill", 0x4d9aa2c4f7001e58),
    ("fork_join/p130/ovl/no-backfill", 0xfafb30b15a435cb8),
    ("fork_join/p130/noovl/backfill", 0x418bbdb6f8cd8495),
    ("fork_join/p130/noovl/no-backfill", 0x418bbdb6f8cd8495),
    ("independent/p96/ovl/backfill", 0x5d926362f188bd87),
    ("independent/p96/ovl/no-backfill", 0x5d926362f188bd87),
    ("independent/p96/noovl/backfill", 0x5d926362f188bd87),
    ("independent/p96/noovl/no-backfill", 0x5d926362f188bd87),
    ("independent/p130/ovl/backfill", 0x9fc05f42e7ad0def),
    ("independent/p130/ovl/no-backfill", 0x9fc05f42e7ad0def),
    ("independent/p130/noovl/backfill", 0x9fc05f42e7ad0def),
    ("independent/p130/noovl/no-backfill", 0x9fc05f42e7ad0def),
    ("synthetic/p96/ovl/backfill", 0x2bafe55c74ce7998),
    ("synthetic/p96/ovl/no-backfill", 0xf99b68a6f28f2aca),
    ("synthetic/p96/noovl/backfill", 0xbfb24119669018ed),
    ("synthetic/p96/noovl/no-backfill", 0xafdbe90361a19a21),
    ("synthetic/p130/ovl/backfill", 0x95cdefdc07971413),
    ("synthetic/p130/ovl/no-backfill", 0xedce45de88d4c1a7),
    ("synthetic/p130/noovl/backfill", 0xb9e38595b70a0e32),
    ("synthetic/p130/noovl/no-backfill", 0x1290f17775365d98),
    ("strassen/p96/ovl/backfill", 0x03d6791ee4d7f393),
    ("strassen/p96/ovl/no-backfill", 0x37527565b2154fa7),
    ("strassen/p96/noovl/backfill", 0x544c2ecd111195ee),
    ("strassen/p96/noovl/no-backfill", 0x0402f609848a7dda),
    ("strassen/p130/ovl/backfill", 0x2b99f356c7d62c90),
    ("strassen/p130/ovl/no-backfill", 0x2ce43abc7758750c),
    ("strassen/p130/noovl/backfill", 0xaeb939bacac52f6c),
    ("strassen/p130/noovl/no-backfill", 0xd7540ca484c9df4f),
    ("ccsd_t1/p96/ovl/backfill", 0x4cd385becc0e819a),
    ("ccsd_t1/p96/ovl/no-backfill", 0x2c214bd532e55b10),
    ("ccsd_t1/p96/noovl/backfill", 0x2905ee3ed466d2e6),
    ("ccsd_t1/p96/noovl/no-backfill", 0x2c6bf74df1f49cd1),
    ("ccsd_t1/p130/ovl/backfill", 0xa04d9c8da5b963fc),
    ("ccsd_t1/p130/ovl/no-backfill", 0x71471e65e09d2f8f),
    ("ccsd_t1/p130/noovl/backfill", 0xfcbaa69be30c26eb),
    ("ccsd_t1/p130/noovl/no-backfill", 0x2cd5fb910c720de0),
    ("synthetic-16/p96/ovl/LoC-MPS", 0x3f30f2ea0e01708a),
];

#[test]
fn multiword_charts_match_pinned_fingerprints() {
    check(multiword_cases(), MULTIWORD_GOLDEN);
}

/// Buffer reuse must be invisible: `run_into` with one schedule-DAG per
/// graph and one scratch carried across every workload, cluster and
/// repeated invocation has to serialize to exactly the bytes a fresh `run`
/// produces.
#[test]
fn reused_scratch_serializes_identically_across_zoo() {
    let mut scratch = LocbsScratch::new();
    for (wname, g) in workloads() {
        for (cname, cluster) in [
            ("ovl", Cluster::new(7, 50.0)),
            ("noovl", Cluster::new(7, 50.0).without_overlap()),
        ] {
            let model = CommModel::new(&cluster);
            let locbs = Locbs::new(model, LocbsOptions::default());
            let alloc = mixed_alloc(&g, cluster.n_procs);
            let fresh = locbs.run(&g, &alloc).expect("zoo places");
            let mut dag = g.clone();
            for round in 0..3 {
                let (schedule, makespan) = locbs
                    .run_into(&mut dag, &alloc, &mut scratch)
                    .expect("zoo places");
                assert_eq!(
                    serde_json::to_string(&schedule).unwrap(),
                    serde_json::to_string(&fresh.schedule).unwrap(),
                    "{wname}/{cname} round {round}: scratch reuse changed the schedule bytes"
                );
                assert_eq!(makespan, fresh.makespan, "{wname}/{cname} round {round}");
            }
            assert_eq!(
                dag, fresh.schedule_dag,
                "{wname}/{cname}: schedule-DAG drifted"
            );
        }
    }
}
