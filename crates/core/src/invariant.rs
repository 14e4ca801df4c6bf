//! The [`invariant!`](crate::invariant!) macro: debug/test-time assertions
//! for hot-path boundary conditions.
//!
//! The placement kernel maintains data-structure invariants (sorted event
//! lists, cleared scratch buffers, acyclic schedule-DAGs) that are too
//! expensive to check on every release-mode call but cheap enough to verify
//! exhaustively under `debug_assertions` and in tests. `invariant!` is the
//! single spelling for those checks: it reads like `assert!`, compiles to
//! nothing in release builds, and marks the condition as a *structural
//! invariant* rather than an input validation (inputs are rejected with
//! typed errors, never asserted).

/// Asserts a structural invariant in debug and test builds only.
///
/// Identical to [`assert!`] when `debug_assertions` (or `cfg(test)`) is
/// enabled; compiles to nothing otherwise, so the condition must be free of
/// side effects.
///
/// # Examples
/// ```
/// use locmps_core::invariant;
///
/// let ends = [1.0f64, 2.0, 5.0];
/// invariant!(
///     ends.windows(2).all(|w| w[0] <= w[1]),
///     "event list must stay sorted"
/// );
/// ```
#[macro_export]
macro_rules! invariant {
    ($($arg:tt)*) => {
        if cfg!(any(debug_assertions, test)) {
            assert!($($arg)*);
        }
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn passing_invariant_is_silent() {
        invariant!(1 + 1 == 2);
        invariant!(true, "with {} message", "formatted");
    }

    #[test]
    #[should_panic(expected = "broken")]
    fn failing_invariant_panics_under_test() {
        invariant!(false, "broken");
    }
}
