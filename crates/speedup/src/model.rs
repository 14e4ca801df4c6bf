//! The [`SpeedupModel`] enum: every speedup law supported by the library.

use serde::{Deserialize, Serialize};

use crate::downey::DowneyParams;
use crate::table::ProfiledSpeedup;

/// Errors arising from constructing or evaluating speedup models.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A scalar parameter was out of its valid domain.
    InvalidParameter {
        /// Description of the constraint that was violated.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A profiled table was empty or malformed.
    InvalidTable(&'static str),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::InvalidParameter { what, value } => {
                write!(f, "invalid model parameter: {what} (got {value})")
            }
            ModelError::InvalidTable(msg) => write!(f, "invalid speedup table: {msg}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// A speedup law `S(n)`: how much faster a task runs on `n` processors than
/// on one.
///
/// All variants guarantee `S(1) = 1` and `S(n) > 0` for `n ≥ 1`. Execution
/// time on `n` processors is `seq_time / S(n)` (plus overhead for
/// [`SpeedupModel::WithOverhead`]); see
/// [`ExecutionProfile`](crate::ExecutionProfile).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SpeedupModel {
    /// Perfect linear speedup: `S(n) = n`.
    Linear,
    /// Downey's two-parameter model (the paper's synthetic-workload model).
    Downey(DowneyParams),
    /// Amdahl's law with serial fraction `f`: `S(n) = 1 / (f + (1-f)/n)`.
    Amdahl {
        /// Fraction of the work that is inherently serial, in `[0, 1]`.
        serial_fraction: f64,
    },
    /// Power-law speedup `S(n) = n^alpha` with `alpha` in `[0, 1]`.
    PowerLaw {
        /// The scaling exponent.
        alpha: f64,
    },
    /// Profiled speedups measured at discrete processor counts.
    Table(ProfiledSpeedup),
    /// Any inner model plus a fixed per-extra-processor time overhead,
    /// added to the execution time (not the speedup):
    /// `et(n) = seq/S_inner(n) + overhead · (n − 1)`.
    ///
    /// This models coordination/communication overheads inside a parallel
    /// task, producing a U-shaped execution-time curve with a well-defined
    /// `Pbest` below the machine size.
    WithOverhead {
        /// The underlying speedup law.
        inner: Box<SpeedupModel>,
        /// Extra seconds of execution time per processor beyond the first,
        /// expressed as a *fraction of the sequential time* so that the
        /// model stays scale-free.
        overhead_frac: f64,
    },
}

impl SpeedupModel {
    /// Constructs an Amdahl model, validating the serial fraction.
    pub fn amdahl(serial_fraction: f64) -> Result<Self, ModelError> {
        if !(0.0..=1.0).contains(&serial_fraction) || !serial_fraction.is_finite() {
            return Err(ModelError::InvalidParameter {
                what: "Amdahl serial fraction must be in [0, 1]",
                value: serial_fraction,
            });
        }
        Ok(SpeedupModel::Amdahl { serial_fraction })
    }

    /// Constructs a power-law model, validating the exponent.
    pub fn power_law(alpha: f64) -> Result<Self, ModelError> {
        if !(0.0..=1.0).contains(&alpha) || !alpha.is_finite() {
            return Err(ModelError::InvalidParameter {
                what: "power-law exponent must be in [0, 1]",
                value: alpha,
            });
        }
        Ok(SpeedupModel::PowerLaw { alpha })
    }

    /// Constructs a Downey model (convenience wrapper over
    /// [`DowneyParams::new`]).
    pub fn downey(a: f64, sigma: f64) -> Result<Self, ModelError> {
        Ok(SpeedupModel::Downey(DowneyParams::new(a, sigma)?))
    }

    /// Wraps `self` with a per-processor overhead fraction.
    pub fn with_overhead(self, overhead_frac: f64) -> Result<Self, ModelError> {
        if !overhead_frac.is_finite() || overhead_frac < 0.0 {
            return Err(ModelError::InvalidParameter {
                what: "overhead fraction must be finite and >= 0",
                value: overhead_frac,
            });
        }
        Ok(SpeedupModel::WithOverhead {
            inner: Box::new(self),
            overhead_frac,
        })
    }

    /// Re-checks every construction-time parameter constraint, recursively.
    ///
    /// Serde deserialization fills the variants field-by-field and so
    /// bypasses the checked constructors; models loaded from external files
    /// (workload JSON) can therefore carry out-of-domain parameters. Call
    /// this after deserializing to restore the constructor guarantees.
    ///
    /// # Errors
    /// The same [`ModelError`] the corresponding constructor would return.
    pub fn validate(&self) -> Result<(), ModelError> {
        match self {
            SpeedupModel::Linear => Ok(()),
            SpeedupModel::Downey(d) => DowneyParams::new(d.a, d.sigma).map(|_| ()),
            SpeedupModel::Amdahl { serial_fraction } => {
                SpeedupModel::amdahl(*serial_fraction).map(|_| ())
            }
            SpeedupModel::PowerLaw { alpha } => SpeedupModel::power_law(*alpha).map(|_| ()),
            SpeedupModel::Table(t) => ProfiledSpeedup::new(t.values().to_vec()).map(|_| ()),
            SpeedupModel::WithOverhead {
                inner,
                overhead_frac,
            } => {
                if !overhead_frac.is_finite() || *overhead_frac < 0.0 {
                    return Err(ModelError::InvalidParameter {
                        what: "overhead fraction must be finite and >= 0",
                        value: *overhead_frac,
                    });
                }
                inner.validate()
            }
        }
    }

    /// Speedup `S(n)` on `n` processors (`n = 0` treated as 1).
    ///
    /// For [`SpeedupModel::WithOverhead`] this returns the *effective*
    /// speedup `seq / et(n)` with a normalized sequential time of 1, so it
    /// can be less than the inner model's speedup and can decrease in `n`.
    pub fn speedup(&self, n: usize) -> f64 {
        let n = n.max(1);
        match self {
            SpeedupModel::Linear => n as f64,
            SpeedupModel::Downey(d) => d.speedup(n),
            SpeedupModel::Amdahl { serial_fraction } => {
                let f = *serial_fraction;
                1.0 / (f + (1.0 - f) / n as f64)
            }
            SpeedupModel::PowerLaw { alpha } => (n as f64).powf(*alpha),
            SpeedupModel::Table(t) => t.speedup(n),
            SpeedupModel::WithOverhead {
                inner,
                overhead_frac,
            } => {
                let et = 1.0 / inner.speedup(n) + overhead_frac * (n as f64 - 1.0);
                1.0 / et
            }
        }
    }

    /// Normalized execution time on `n` processors for unit sequential time:
    /// `1 / S(n)` (overheads already folded in).
    pub fn unit_time(&self, n: usize) -> f64 {
        1.0 / self.speedup(n)
    }

    /// Speedup at a *continuous* processor count `x ≥ 1`.
    ///
    /// Downey's, Amdahl's and the power-law formulas are already defined
    /// over the reals; profiled tables interpolate linearly between
    /// adjacent integer samples. Continuous evaluation is what TSAS-style
    /// convex allocation (Ramaswamy et al. \[3\]) optimizes over before
    /// rounding to integers.
    pub fn speedup_cont(&self, x: f64) -> f64 {
        let x = x.max(1.0);
        match self {
            SpeedupModel::Linear => x,
            SpeedupModel::Downey(d) => downey_cont(d, x),
            SpeedupModel::Amdahl { serial_fraction } => {
                let f = *serial_fraction;
                1.0 / (f + (1.0 - f) / x)
            }
            SpeedupModel::PowerLaw { alpha } => x.powf(*alpha),
            SpeedupModel::Table(t) => {
                // Clamp to the profiled range before interpolating: past
                // the last sample the table has no information, so the
                // curve goes flat (clamped, not extrapolated) — and the
                // unclamped `x.floor() as usize` saturates to usize::MAX
                // for huge x, overflowing `lo + 1`.
                let x = x.min(t.profiled_procs() as f64);
                let lo = x.floor() as usize;
                let hi = lo + 1;
                let frac = x - lo as f64;
                t.speedup(lo) * (1.0 - frac) + t.speedup(hi) * frac
            }
            SpeedupModel::WithOverhead {
                inner,
                overhead_frac,
            } => {
                let et = 1.0 / inner.speedup_cont(x) + overhead_frac * (x - 1.0);
                1.0 / et
            }
        }
    }
}

/// Downey's piecewise formulas evaluated at real `x` (they are continuous
/// across the breakpoints; see the unit tests in `downey.rs`).
fn downey_cont(d: &crate::DowneyParams, x: f64) -> f64 {
    let a = d.a;
    let sigma = d.sigma;
    if sigma <= 1.0 {
        if x <= a {
            (a * x) / (a + sigma * (x - 1.0) / 2.0)
        } else if x <= 2.0 * a - 1.0 {
            (a * x) / (sigma * (a - 0.5) + x * (1.0 - sigma / 2.0))
        } else {
            a
        }
    } else if x <= a + a * sigma - sigma {
        (x * a * (sigma + 1.0)) / (sigma * (x + a - 1.0) + a)
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_is_linear() {
        assert_eq!(SpeedupModel::Linear.speedup(8), 8.0);
        assert_eq!(SpeedupModel::Linear.speedup(1), 1.0);
    }

    #[test]
    fn amdahl_limits() {
        let m = SpeedupModel::amdahl(0.1).unwrap();
        assert!((m.speedup(1) - 1.0).abs() < 1e-12);
        // Asymptote is 1/f = 10.
        assert!(m.speedup(100_000) < 10.0);
        assert!(m.speedup(100_000) > 9.9);
        // Fully serial never speeds up.
        let serial = SpeedupModel::amdahl(1.0).unwrap();
        assert!((serial.speedup(64) - 1.0).abs() < 1e-12);
        // Fully parallel is linear.
        let par = SpeedupModel::amdahl(0.0).unwrap();
        assert!((par.speedup(64) - 64.0).abs() < 1e-12);
    }

    #[test]
    fn power_law_bounds() {
        let m = SpeedupModel::power_law(0.5).unwrap();
        assert!((m.speedup(16) - 4.0).abs() < 1e-12);
        assert!(SpeedupModel::power_law(1.5).is_err());
        assert!(SpeedupModel::power_law(-0.1).is_err());
    }

    #[test]
    fn overhead_creates_u_shaped_time() {
        let m = SpeedupModel::Linear.with_overhead(0.01).unwrap();
        // et(n) = 1/n + 0.01 (n-1): minimized at n = 10.
        let times: Vec<f64> = (1..=32).map(|n| m.unit_time(n)).collect();
        let argmin = times
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0
            + 1;
        assert_eq!(argmin, 10);
        assert!(m.unit_time(32) > m.unit_time(10));
    }

    #[test]
    fn speedup_at_one_is_one_for_all_models() {
        let models = [
            SpeedupModel::Linear,
            SpeedupModel::downey(12.0, 0.7).unwrap(),
            SpeedupModel::amdahl(0.25).unwrap(),
            SpeedupModel::power_law(0.8).unwrap(),
            SpeedupModel::Linear.with_overhead(0.05).unwrap(),
        ];
        for m in &models {
            assert!((m.speedup(1) - 1.0).abs() < 1e-12, "{m:?}");
        }
    }

    #[test]
    fn table_cont_clamps_past_profiled_range() {
        // Regression: the Table arm used to compute `x.floor() as usize`
        // unclamped — for huge x the cast saturates to usize::MAX and
        // `lo + 1` overflows (a panic under overflow checks), and even
        // in-range queries past the last sample must clamp flat rather
        // than extrapolate the last segment's slope.
        let t = ProfiledSpeedup::new(vec![1.0, 1.8, 2.4, 2.9]).unwrap();
        let last = 2.9;
        let m = SpeedupModel::Table(t);
        assert!((m.speedup_cont(4.0) - last).abs() < 1e-12);
        assert!(
            (m.speedup_cont(4.5) - last).abs() < 1e-12,
            "clamp, not slope"
        );
        assert!((m.speedup_cont(1e300) - last).abs() < 1e-12, "no overflow");
        assert!((m.speedup_cont(f64::MAX) - last).abs() < 1e-12);
        // Interior interpolation is untouched by the clamp.
        assert!((m.speedup_cont(1.5) - 1.4).abs() < 1e-12);
        assert!((m.speedup_cont(3.25) - (0.75 * 2.4 + 0.25 * 2.9)).abs() < 1e-12);
    }

    #[test]
    fn serde_round_trip() {
        let m = SpeedupModel::downey(48.0, 2.0)
            .unwrap()
            .with_overhead(0.001)
            .unwrap();
        let json = serde_json::to_string(&m).unwrap();
        let back: SpeedupModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn error_display_is_informative() {
        let err = SpeedupModel::amdahl(2.0).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("serial fraction"));
        assert!(text.contains('2'));
    }
}
