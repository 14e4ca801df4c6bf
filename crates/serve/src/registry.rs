//! Scheduler registry: one name → construction table shared by every
//! front end (CLI subcommands, the serve daemon, future WASM bindings),
//! so the set of schedulable algorithms cannot drift between them.

use locmps_baselines::{Cpa, Cpr, DataParallel, OnlineMoldable, TaskParallel, Tsas};
use locmps_core::{LocMps, LocMpsConfig, Scheduler};

/// The names [`scheduler_by_name`] accepts, in display order.
pub const SCHEDULER_NAMES: [&str; 9] = [
    "locmps",
    "icaslb",
    "nobackfill",
    "cpr",
    "cpa",
    "tsas",
    "psonline",
    "task",
    "data",
];

/// The names [`scheduler_by_name`] accepts.
pub fn scheduler_names() -> &'static [&'static str] {
    &SCHEDULER_NAMES
}

/// Constructs the scheduler registered under `name`.
///
/// The trait object is `Send + Sync`: every registered scheduler is a
/// plain configuration struct, so the daemon can construct one per job on
/// any worker thread.
///
/// # Errors
/// A human-readable message naming the unknown scheduler.
pub fn scheduler_by_name(name: &str) -> Result<Box<dyn Scheduler + Send + Sync>, String> {
    Ok(match name {
        "locmps" => Box::new(LocMps::default()),
        "icaslb" => Box::new(LocMps::new(LocMpsConfig::icaslb())),
        "nobackfill" => Box::new(LocMps::new(LocMpsConfig::no_backfill())),
        "cpr" => Box::new(Cpr),
        "cpa" => Box::new(Cpa),
        "tsas" => Box::new(Tsas::default()),
        "psonline" => Box::new(OnlineMoldable),
        "task" => Box::new(TaskParallel),
        "data" => Box::new(DataParallel),
        other => return Err(format!("unknown scheduler {other:?}")),
    })
}

/// CPR, CPA, TSAS and PS-ONLINE come from locality-oblivious runtimes;
/// everything else reuses resident block-cyclic data (see `locmps-sim`).
pub fn locality_aware(name: &str) -> bool {
    !matches!(name, "cpr" | "cpa" | "tsas" | "psonline")
}

/// The cheap scheduler a degraded daemon substitutes for `name`, or
/// `None` when `name` is already cheap enough to run under pressure.
///
/// The expensive set is the LoC-MPS family — their allocation search is
/// what a single slow pass can starve the queue with. The fallback is the
/// online-moldable baseline (Perotin–Sun's PS-ONLINE): bounded quality,
/// near-constant cost, exactly the trade an overloaded daemon wants.
pub fn degraded_fallback(name: &str) -> Option<&'static str> {
    match name {
        "locmps" | "icaslb" | "nobackfill" => Some("psonline"),
        _ => None,
    }
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
    fn fallbacks_are_registered_and_never_chain() {
        for name in scheduler_names() {
            if let Some(fb) = degraded_fallback(name) {
                assert!(scheduler_by_name(fb).is_ok(), "{name} -> {fb}");
                assert_eq!(degraded_fallback(fb), None, "fallback of a fallback");
            }
        }
    }
}
