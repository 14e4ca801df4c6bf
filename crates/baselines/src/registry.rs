//! Scheduler registry: the one table every front end (the CLI, the serve
//! daemon, the bench harness) resolves scheduler names through, so the set
//! of schedulable algorithms, the runtime each one is replayed under and
//! the paper's scheme set cannot drift between them.

use locmps_core::{LocMps, LocMpsConfig, Scheduler};

use crate::{Cpa, Cpr, DataParallel, OnlineMoldable, TaskParallel, Tsas};

/// Where the paper's evaluation (§IV) uses a registered scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// One of the six schemes of Figures 4, 5 and 8–11.
    Paper,
    /// A further baseline (TSAS, PS-ONLINE).
    Baseline,
    /// A LoC-MPS ablation (Figure 6's no-backfill variant), not a scheme
    /// of its own.
    Ablation,
}

/// One registered scheduler.
#[derive(Debug)]
pub struct Registered {
    name: &'static str,
    role: Role,
    locality_aware: bool,
    build: fn() -> Box<dyn Scheduler + Send + Sync>,
}

impl Registered {
    /// The name front ends accept (`--algo`, the daemon's `"algo"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Constructs the scheduler. The trait object is `Send + Sync`: every
    /// registered scheduler is a plain configuration struct, so the daemon
    /// can construct one per job on any worker thread.
    pub fn build(&self) -> Box<dyn Scheduler + Send + Sync> {
        (self.build)()
    }
}

const fn entry(
    name: &'static str,
    role: Role,
    locality_aware: bool,
    build: fn() -> Box<dyn Scheduler + Send + Sync>,
) -> Registered {
    Registered {
        name,
        role,
        locality_aware,
        build,
    }
}

/// Every registered scheduler, in display order. CPR, CPA, TSAS and
/// PS-ONLINE come from locality-oblivious runtimes that pay the aggregate
/// redistribution estimate wherever the groups land; everything else
/// reuses resident block-cyclic data (see `locmps-sim`).
static REGISTRY: [Registered; 9] = [
    entry("locmps", Role::Paper, true, || Box::new(LocMps::default())),
    entry("icaslb", Role::Paper, true, || {
        Box::new(LocMps::new(LocMpsConfig::icaslb()))
    }),
    entry("nobackfill", Role::Ablation, true, || {
        Box::new(LocMps::new(LocMpsConfig::no_backfill()))
    }),
    entry("cpr", Role::Paper, false, || Box::new(Cpr)),
    entry("cpa", Role::Paper, false, || Box::new(Cpa)),
    entry("tsas", Role::Baseline, false, || Box::new(Tsas::default())),
    entry("psonline", Role::Baseline, false, || {
        Box::new(OnlineMoldable)
    }),
    entry("task", Role::Paper, true, || Box::new(TaskParallel)),
    entry("data", Role::Paper, true, || Box::new(DataParallel)),
];

/// The scheduler registered under `name`.
pub fn registered(name: &str) -> Option<&'static Registered> {
    REGISTRY.iter().find(|r| r.name == name)
}

/// The names [`scheduler_by_name`] accepts, in display order.
pub fn scheduler_names() -> impl Iterator<Item = &'static str> {
    REGISTRY.iter().map(Registered::name)
}

/// The paper's six schemes (LoC-MPS, iCASLB, CPR, CPA, TASK, DATA) in its
/// plotting order.
pub fn paper_set() -> impl Iterator<Item = &'static Registered> {
    REGISTRY.iter().filter(|r| r.role == Role::Paper)
}

/// Every scheme a comparison runs: the registry without its ablations.
pub fn schemes() -> impl Iterator<Item = &'static Registered> {
    REGISTRY.iter().filter(|r| r.role != Role::Ablation)
}

/// Constructs the scheduler registered under `name`.
///
/// # Errors
/// A human-readable message naming the unknown scheduler.
pub fn scheduler_by_name(name: &str) -> Result<Box<dyn Scheduler + Send + Sync>, String> {
    registered(name)
        .map(Registered::build)
        .ok_or_else(|| format!("unknown scheduler {name:?}"))
}

/// Whether the runtime behind scheduler `name` reuses resident
/// block-cyclic data (replayed with exact transfer times) rather than
/// paying the aggregate estimate (see `locmps_sim::SimConfig`).
pub fn locality_aware(name: &str) -> bool {
    registered(name).is_none_or(|r| r.locality_aware)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_name_constructs() {
        for name in scheduler_names() {
            assert!(scheduler_by_name(name).is_ok(), "{name}");
        }
        assert!(scheduler_by_name("does-not-exist").is_err());
    }

    #[test]
    fn scheme_sets_follow_the_paper() {
        let names = |set: &mut dyn Iterator<Item = &'static Registered>| {
            set.map(|r| r.build().name()).collect::<Vec<_>>()
        };
        assert_eq!(
            names(&mut paper_set()),
            ["LoC-MPS", "iCASLB", "CPR", "CPA", "TASK", "DATA"]
        );
        assert_eq!(
            names(&mut schemes()),
            [
                "LoC-MPS",
                "iCASLB",
                "CPR",
                "CPA",
                "TSAS",
                "PS-ONLINE",
                "TASK",
                "DATA"
            ]
        );
        let oblivious: Vec<_> = scheduler_names().filter(|n| !locality_aware(n)).collect();
        assert_eq!(oblivious, ["cpr", "cpa", "tsas", "psonline"]);
    }
}
