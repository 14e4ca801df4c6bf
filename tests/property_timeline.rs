//! Property tests pinning the resource chart (bookings sorted by end,
//! word-parallel hole queries) to a straight per-processor
//! re-implementation: one start-sorted interval vector per processor,
//! every interval checked on every query, candidates re-gathered and
//! sorted per query, freshly allocated free sets.
//!
//! The reference states the chart's tolerance rule directly: a booking
//! and a window conflict when they overlap by more than `time_eps` of the
//! window's finish, bounded by half the window and half the booking; a
//! booking end is a duplicate candidate within `time_eps` of the end,
//! bounded by half the placement length and half the booking. The two
//! must agree *exactly* on every query after every random booking
//! sequence — including charts wider than one bitmap word, durations short
//! enough that the length bounds bind, and bookings that touch earlier
//! ones. A window the chart reports free must always book.

use std::panic::{catch_unwind, AssertUnwindSafe};

use locmps::core::schedule::time_eps;
use locmps::core::timeline::Timeline;
use locmps::platform::{ProcId, ProcSet};
use proptest::prelude::*;

/// The slack between a window `[start, finish)` and an interval.
fn pair_eps(start: f64, finish: f64, interval: (f64, f64)) -> f64 {
    time_eps(finish).min(0.5 * (finish - start).min(interval.1 - interval.0))
}

/// The per-processor chart the booking list replaced.
struct RefTimeline {
    busy: Vec<Vec<(f64, f64)>>,
}

impl RefTimeline {
    fn new(n_procs: usize) -> Self {
        Self {
            busy: vec![Vec::new(); n_procs],
        }
    }

    fn is_free(&self, p: ProcId, start: f64, finish: f64) -> bool {
        self.busy[p as usize].iter().all(|&iv| {
            let eps = pair_eps(start, finish, iv);
            iv.1 <= start + eps || iv.0 + eps >= finish
        })
    }

    /// Whether booking `[start, finish)` on `procs` is accepted: every
    /// processor of the set is free for the window.
    fn accepts(&self, procs: &ProcSet, start: f64, finish: f64) -> bool {
        finish <= start || procs.iter().all(|p| self.is_free(p, start, finish))
    }

    fn occupy(&mut self, procs: &ProcSet, start: f64, finish: f64) {
        if finish <= start {
            return;
        }
        for p in procs.iter() {
            let intervals = &mut self.busy[p as usize];
            let idx = intervals.partition_point(|iv| iv.0 < start);
            intervals.insert(idx, (start, finish));
        }
    }

    fn free_set(&self, start: f64, finish: f64) -> Vec<ProcId> {
        (0..self.busy.len() as ProcId)
            .filter(|&p| self.is_free(p, start, finish))
            .collect()
    }

    /// The interval on `p` that ends last.
    fn last(&self, p: ProcId) -> Option<(f64, f64)> {
        self.busy[p as usize]
            .iter()
            .copied()
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    fn idle_from(&self, p: ProcId, start: f64, len: f64) -> bool {
        self.last(p)
            .is_none_or(|(s, e)| e <= start + time_eps(start).min(0.5 * len.min(e - s)))
    }

    fn candidate_times(&self, after: f64, len: f64) -> Vec<f64> {
        let mut ends: Vec<(f64, f64)> = self
            .busy
            .iter()
            .flatten()
            .filter(|iv| iv.1 > after)
            .copied()
            .collect();
        ends.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut times = vec![after];
        for (s, e) in ends {
            let last = times[times.len() - 1];
            if e - last > time_eps(e).min(0.5 * len.min(e - s)) {
                times.push(e);
            }
        }
        times
    }
}

/// A processor subset of `0..n_procs` from three random words, thinned by
/// `density` (0: a single processor; 1–3: about 1/8, 1/4 and 1/2 of the
/// processors).
fn proc_subset(words: [u64; 3], density: u32, n_procs: usize) -> ProcSet {
    let thin = |w: u64| match density {
        1 => w & w.rotate_left(13) & w.rotate_left(29),
        2 => w & w.rotate_left(7),
        _ => w,
    };
    let mut s = ProcSet::new();
    if density > 0 {
        for p in 0..n_procs {
            if thin(words[p / 64]) & (1 << (p % 64)) != 0 {
                s.insert(p as ProcId);
            }
        }
    }
    if s.is_empty() {
        s.insert((words[0] % n_procs as u64) as ProcId);
    }
    s
}

/// A duration from a unit draw: long (1–50), medium (1e-3–1) or short
/// (1e-7–1e-4, where half the duration is below `time_eps`).
fn duration(kind: u32, u: f64) -> f64 {
    match kind {
        0 => 1.0 + 49.0 * u,
        1 => 10f64.powf(-3.0 + 3.0 * u),
        _ => 10f64.powf(-7.0 + 3.0 * u),
    }
}

/// The default hook reports every caught double booking; keep the
/// expected ones quiet and everything else loud.
fn quiet_double_booking_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info.payload().downcast_ref::<String>();
            if !msg.is_some_and(|m| m.starts_with("double booking")) {
                default(info);
            }
        }));
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn event_list_timeline_matches_seed_reference(
        n_procs in prop_oneof![2usize..10, 60usize..70, 125usize..135],
        ops in proptest::collection::vec(
            (
                (any::<u64>(), any::<u64>(), any::<u64>()),
                0u32..4,
                (0u32..5, 0.0..500.0f64, any::<u64>()),
                (0u32..3, 0.0..1.0f64),
            ),
            1..40,
        ),
    ) {
        quiet_double_booking_panics();
        let mut tl = Timeline::new(n_procs);
        let mut reference = RefTimeline::new(n_procs);
        let mut booked: Vec<(f64, f64)> = Vec::new();
        let mut scratch = ProcSet::new();

        for ((w0, w1, w2), density, (start_kind, raw_start, pick), (dur_kind, u)) in ops {
            let procs = proc_subset([w0, w1, w2], density, n_procs);
            let dur = duration(dur_kind, u);
            // Random starts, plus starts and finishes that touch earlier
            // bookings exactly or within a few tolerances.
            let earlier = booked.get(pick as usize % booked.len().max(1)).copied();
            let start = match (start_kind, earlier) {
                (2, Some((_, end))) => end,
                (3, Some((_, end))) => end + (raw_start / 500.0 - 0.5) * 4.0 * time_eps(end),
                (4, Some((start, _))) => (start - dur).max(0.0),
                _ => raw_start,
            };
            let finish = start + dur;

            // Every processor, and the set as a whole, agree on freeness
            // before booking...
            for p in 0..n_procs as ProcId {
                prop_assert_eq!(
                    tl.is_free(p, start, finish),
                    reference.is_free(p, start, finish),
                    "is_free(p{}, {}, {})", p, start, finish
                );
                prop_assert_eq!(
                    tl.idle_from(p, start, dur),
                    reference.idle_from(p, start, dur),
                    "idle_from(p{}, {}, {})", p, start, dur
                );
            }
            let set_free = tl.is_set_free(&procs, start, finish);
            prop_assert_eq!(
                set_free,
                procs.iter().all(|p| reference.is_free(p, start, finish)),
                "is_set_free({}, {}, {})", &procs, start, finish
            );
            let set_idle = procs.iter().all(|p| tl.idle_from(p, start, dur));
            // ...the chart refuses a booking exactly when the reference
            // does, leaving itself unchanged...
            let accepts = reference.accepts(&procs, start, finish);
            let booked_ok =
                catch_unwind(AssertUnwindSafe(|| tl.occupy(&procs, start, finish))).is_ok();
            prop_assert_eq!(booked_ok, accepts, "occupy({}, {}, {})", &procs, start, finish);
            // ...and a window reported free, or on processors idle from its
            // start, always books.
            prop_assert!(
                booked_ok || !(set_free || set_idle),
                "free window refused: occupy({}, {}, {})", &procs, start, finish
            );
            if accepts {
                reference.occupy(&procs, start, finish);
                booked.push((start, finish));
            }

            // Candidate enumeration: full, from a booking end, and cut off
            // at a horizon, for placements of several lengths, against the
            // gather-and-sort reference.
            for after in [0.0, start, finish, 250.0] {
                for len in [dur, 1e-5, 10.0] {
                    let expect = reference.candidate_times(after, len);
                    prop_assert_eq!(&tl.candidate_times(after, len), &expect);
                    for horizon in [after, 100.0, f64::INFINITY] {
                        let cut: Vec<f64> =
                            expect.iter().copied().filter(|&c| c < horizon).collect();
                        prop_assert_eq!(&tl.candidate_times_below(after, len, horizon), &cut);
                    }
                }
            }

            // Free sets through the reused scratch buffer, and the set
            // query on the same windows.
            for (ws, wf) in [
                (start, finish),
                (0.0, 600.0),
                (finish, finish + 10.0),
                (finish, finish + dur),
            ] {
                tl.free_set_into(ws, wf, &mut scratch);
                prop_assert_eq!(&scratch.to_vec(), &reference.free_set(ws, wf));
                prop_assert_eq!(&tl.free_set(ws, wf), &scratch);
                prop_assert_eq!(
                    tl.is_set_free(&procs, ws, wf),
                    procs.iter().all(|p| reference.is_free(p, ws, wf))
                );
            }
            for p in 0..n_procs as ProcId {
                for (at, len) in [(finish, dur), (start, 10.0), (600.0, 1e-7)] {
                    prop_assert_eq!(tl.idle_from(p, at, len), reference.idle_from(p, at, len));
                }
            }
        }
    }
}
