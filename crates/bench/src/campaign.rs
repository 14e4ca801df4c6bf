//! The slowdown-heavy straggler campaign shared by the `resilience` and
//! `adaptive` binaries.

use locmps_runtime::{Fault, FaultPlan};
use locmps_sim::seeding;

/// A seeded slowdown-heavy fault plan: `max(1, n_procs/4)` distinct
/// processors (≥ 25 %) each slowed by a factor in `[4, 8]` over a window
/// covering the entire (stretched) run, `10 × horizon`.
///
/// # Errors
/// A processor id past `u32` or a window the plan refuses (`horizon` not
/// finite and positive).
pub fn slowdown_campaign(seed: u64, n_procs: usize, horizon: f64) -> Result<FaultPlan, String> {
    let n_slow = (n_procs / 4).max(1);
    let mut plan = FaultPlan::new();
    let mut picked: Vec<usize> = Vec::new();
    let mut draw = 0u64;
    while picked.len() < n_slow && draw < 64 {
        let u = seeding::keyed_unit(seed, 2 * draw);
        let proc = ((u * n_procs as f64) as usize).min(n_procs - 1);
        if !picked.contains(&proc) {
            let factor = 4.0 + 4.0 * seeding::keyed_unit(seed, 2 * draw + 1);
            plan.push(Fault::Slowdown {
                proc: u32::try_from(proc).map_err(|e| e.to_string())?,
                from: 0.0,
                until: 10.0 * horizon,
                factor,
            })
            .map_err(|e| e.to_string())?;
            picked.push(proc);
        }
        draw += 1;
    }
    Ok(plan)
}
