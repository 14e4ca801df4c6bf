//! The load monitor behind graceful degradation: a three-state health
//! machine driven by outstanding work (queued plus in-flight
//! computations) and the p95 of recent schedule latencies.
//!
//! * `full` — every submission gets the scheduler it asked for.
//! * `degraded` — fresh computations of expensive schedulers fall back to
//!   the cheap online-moldable baseline (see [`degraded_fallback`]);
//!   results are tagged `degraded: true` and excluded from the shared
//!   cache.
//! * `shedding` — submissions are refused with a typed overload error
//!   (the HTTP layer answers `429` with `Retry-After`).
//!
//! Transitions have hysteresis: entering a worse state happens the moment
//! a threshold is crossed, but recovering requires pressure to fall to
//! *half* the entry threshold (and shedding first steps down through
//! `degraded`), so the machine cannot flap on a load right at the line.
//! The monitor is plain data guarded by the service state lock — pure and
//! unit-testable, no clocks or threads of its own.

/// The daemon's load condition, worst to best: see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Normal operation.
    Full,
    /// Expensive schedulers fall back to the cheap baseline.
    Degraded,
    /// Submissions are refused until pressure drops.
    Shedding,
}

impl HealthState {
    /// Lower-case wire name (`/healthz`, `/v1/stats`).
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Full => "full",
            HealthState::Degraded => "degraded",
            HealthState::Shedding => "shedding",
        }
    }
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

/// Ring-buffer capacity for schedule latencies: enough history to make
/// p95 meaningful, small enough that the percentile scan under the state
/// lock is trivial.
const WINDOW: usize = 64;

/// The load monitor: recent schedule latencies plus the current state.
#[derive(Debug)]
pub struct HealthMonitor {
    window: [f64; WINDOW],
    len: usize,
    pos: usize,
    state: HealthState,
}

impl Default for HealthMonitor {
    fn default() -> Self {
        Self {
            window: [0.0; WINDOW],
            len: 0,
            pos: 0,
            state: HealthState::Full,
        }
    }
}

impl HealthMonitor {
    /// Records one completed scheduling pass's wall-clock latency.
    /// Non-finite samples are discarded (they would poison the p95).
    pub fn record_latency_ms(&mut self, ms: f64) {
        if !ms.is_finite() {
            return;
        }
        self.window[self.pos] = ms;
        self.pos = (self.pos + 1) % WINDOW;
        self.len = (self.len + 1).min(WINDOW);
    }

    /// The 95th-percentile latency of the window, `0.0` when empty.
    pub fn p95_ms(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let mut sorted = self.window[..self.len].to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = (self.len * 95).div_ceil(100).max(1) - 1;
        sorted[rank]
    }

    /// The state of the last assessment.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Re-evaluates the machine against the current pressure. Called on
    /// every submission and every completion (and by `/healthz`, so an
    /// idle daemon still recovers).
    ///
    /// `outstanding` counts queued **plus in-flight** computations, not
    /// just the queue: a slow pass contributes no latency sample until it
    /// finishes, so a queue-only signal goes quiet the moment workers
    /// pick the slow jobs up — the machine would recover mid-overload and
    /// re-admit full-cost work in a metastable oscillation. Counting
    /// running work keeps recovery blocked while the expensive jobs that
    /// caused the degradation are still on the workers.
    pub fn assess(
        &mut self,
        outstanding: usize,
        degrade_queue: usize,
        shed_queue: usize,
        degrade_p95_ms: f64,
    ) -> HealthState {
        let p95 = self.p95_ms();
        let over_shed = outstanding >= shed_queue;
        let over_degrade = outstanding >= degrade_queue || p95 >= degrade_p95_ms;
        // Recovery needs pressure at half the entry threshold — the
        // hysteresis band where the current state is simply kept.
        let clear_degrade =
            outstanding.saturating_mul(2) <= degrade_queue && p95 * 2.0 <= degrade_p95_ms;
        self.state = match self.state {
            _ if over_shed => HealthState::Shedding,
            // Below the shed line: step down one level per assessment so a
            // burst's backlog drains through `degraded`, not straight to
            // `full`.
            HealthState::Shedding => HealthState::Degraded,
            HealthState::Degraded if clear_degrade => HealthState::Full,
            HealthState::Degraded => HealthState::Degraded,
            HealthState::Full if over_degrade => HealthState::Degraded,
            HealthState::Full => HealthState::Full,
        };
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmps_baselines::registry::{scheduler_by_name, scheduler_names};

    #[test]
    fn fallbacks_are_registered_and_never_chain() {
        for name in scheduler_names() {
            if let Some(fb) = degraded_fallback(name) {
                assert!(scheduler_by_name(fb).is_ok(), "{name} -> {fb}");
                assert_eq!(degraded_fallback(fb), None, "fallback of a fallback");
            }
        }
    }

    #[test]
    fn queue_depth_walks_the_machine_up_and_down() {
        let mut m = HealthMonitor::default();
        assert_eq!(m.assess(0, 16, 48, 400.0), HealthState::Full);
        assert_eq!(m.assess(16, 16, 48, 400.0), HealthState::Degraded);
        assert_eq!(m.assess(48, 16, 48, 400.0), HealthState::Shedding);
        // Pressure just under the shed line: one step down, then held by
        // hysteresis (9 > 16/2).
        assert_eq!(m.assess(9, 16, 48, 400.0), HealthState::Degraded);
        assert_eq!(m.assess(9, 16, 48, 400.0), HealthState::Degraded);
        // Clear recovery at half the degrade threshold.
        assert_eq!(m.assess(8, 16, 48, 400.0), HealthState::Full);
    }

    #[test]
    fn slow_schedule_latency_alone_degrades() {
        let mut m = HealthMonitor::default();
        for _ in 0..WINDOW {
            m.record_latency_ms(500.0);
        }
        assert_eq!(m.assess(0, 16, 48, 400.0), HealthState::Degraded);
        assert_eq!(m.p95_ms(), 500.0);
        // Fast passes wash the window out and the machine recovers.
        for _ in 0..WINDOW {
            m.record_latency_ms(1.0);
        }
        assert_eq!(m.assess(0, 16, 48, 400.0), HealthState::Full);
    }

    #[test]
    fn p95_is_the_right_order_statistic() {
        let mut m = HealthMonitor::default();
        assert_eq!(m.p95_ms(), 0.0);
        for i in 1..=20 {
            m.record_latency_ms(f64::from(i));
        }
        // ceil(20 * 0.95) = 19th smallest of 1..=20.
        assert_eq!(m.p95_ms(), 19.0);
        m.record_latency_ms(f64::NAN); // discarded, not propagated
        assert!(m.p95_ms().is_finite());
    }

    #[test]
    fn shedding_steps_down_through_degraded() {
        let mut m = HealthMonitor::default();
        assert_eq!(m.assess(100, 16, 48, 400.0), HealthState::Shedding);
        assert_eq!(m.assess(0, 16, 48, 400.0), HealthState::Degraded);
        assert_eq!(m.assess(0, 16, 48, 400.0), HealthState::Full);
    }
}
