//! The 2-D (processors × time) resource chart behind backfill scheduling
//! (§III.F).
//!
//! Parallel job scheduling "can be viewed as a 2D chart with time along one
//! axis and the processors along the other"; backfilling finds *holes* in
//! that chart. [`Timeline`] records every booking and enumerates the
//! candidate start times at which the set of free processors changes —
//! every minimal-finish-time placement starts either at the task's ready
//! time or at some booking end, so scanning those candidates finds the
//! optimal hole.
//!
//! # Bookings sorted by end
//!
//! The chart is one list of bookings, each a window `[start, end)` and the
//! processor bitmap it occupies, kept sorted by end. One list serves every
//! query:
//!
//! * the candidate starts are the booking ends, so the streaming
//!   [`CandidateTimes`] cursor walks the list from the ready time and stops
//!   at the caller's best finish time without materializing anything;
//! * a booking can overlap a window only if it ends after the window
//!   starts, so the hole queries binary-search to the first such booking
//!   and scan from there. [`Timeline::free_set_into`] starts from all
//!   processors and clears the bitmap of every overlapping booking, and
//!   [`Timeline::is_set_free`] tests a whole processor set against each
//!   one: a few word operations per booking instead of one binary search
//!   per processor;
//! * [`Timeline::occupy`] checks the new booking against the overlapping
//!   bookings that share a processor, then makes one ordered insert.
//!
//! A per-processor last end answers [`Timeline::last_free_time`], all the
//! no-backfill variant reads. A reset chart keeps every booking's storage,
//! bitmap included, so a warm pass books without allocating.
//!
//! # Tolerance
//!
//! Touching interval endpoints must not conflict even after float rounding,
//! so comparisons use the relative `time_eps`. A *purely* relative
//! tolerance, however, grows past entire task durations at large makespans
//! (at `t ≈ 1e9`, `time_eps` is ~1e3 — longer than a 10-second task), which
//! once allowed genuine overlaps to book silently. Every tolerance here is
//! therefore additionally bounded by half the shortest interval involved:
//! rounding error is many orders of magnitude below either bound, and an
//! overlap that exceeds half a task is never forgiven.

use locmps_platform::{ProcId, ProcSet};

use crate::schedule::time_eps;

/// The comparison slack for intervals `a` and `b` meeting near time
/// `scale`: relative to the time scale but never more than half the
/// shorter interval.
#[inline]
fn bounded_eps(scale: f64, a_len: f64, b_len: f64) -> f64 {
    time_eps(scale).min(0.5 * a_len.min(b_len))
}

/// One booking: `[start, end)` on every processor of `procs`.
#[derive(Debug, Clone, Default)]
struct Booking {
    start: f64,
    end: f64,
    procs: ProcSet,
}

/// The resource chart: bookings sorted by end, with hole queries.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// `bookings[..live]` is the chart, sorted by end; the slots past
    /// `live` are storage kept from before the last reset.
    bookings: Vec<Booking>,
    live: usize,
    /// Each processor's last booking end; `NEG_INFINITY` when never booked.
    last_end: Vec<f64>,
    /// `{0, …, n_procs - 1}`: where every free-set query starts.
    all: ProcSet,
}

impl Timeline {
    /// An all-idle chart for `n_procs` processors.
    pub fn new(n_procs: usize) -> Self {
        let mut chart = Self::default();
        chart.reset(n_procs);
        chart
    }

    /// Makes this an all-idle chart for `n_procs` processors, keeping its
    /// allocations for the next pass.
    pub(crate) fn reset(&mut self, n_procs: usize) {
        self.live = 0;
        self.last_end.clear();
        self.last_end.resize(n_procs, f64::NEG_INFINITY);
        if self.all.len() != n_procs {
            self.all = ProcSet::all(n_procs);
        }
    }

    /// Number of processors tracked.
    pub fn n_procs(&self) -> usize {
        self.last_end.len()
    }

    /// The chart's bookings, sorted by end.
    fn live(&self) -> &[Booking] {
        &self.bookings[..self.live]
    }

    /// The bookings that overlap `[start, finish)` beyond the window's
    /// tolerance. A processor is idle throughout the window exactly when
    /// none of them holds it.
    fn overlapping(&self, start: f64, finish: f64) -> impl Iterator<Item = &Booking> {
        let eps = time_eps(finish).min(0.5 * (finish - start));
        let live = self.live();
        let from = live.partition_point(|b| b.end <= start + eps);
        live[from..].iter().filter(move |b| b.start + eps < finish)
    }

    /// Marks `[start, finish)` busy on every processor in `procs`.
    ///
    /// # Panics
    /// Panics if the interval is inverted or overlaps an existing booking
    /// (double-booking is a scheduler bug and must never be silent). A
    /// rejected booking leaves the chart unchanged.
    pub fn occupy(&mut self, procs: &ProcSet, start: f64, finish: f64) {
        assert!(finish >= start, "inverted interval");
        if finish <= start {
            return; // zero-length bookings occupy nothing
        }
        let len = finish - start;
        // A booking that ends by `start` cannot overlap.
        let from = self.live().partition_point(|b| b.end <= start);
        for b in &self.live()[from..] {
            let eps = bounded_eps(finish, len, b.end - b.start);
            let overlaps = b.end > start + eps && b.start + eps < finish;
            assert!(
                !overlaps || b.procs.is_disjoint(procs),
                "double booking on {}",
                b.procs.intersection(procs)
            );
        }
        for p in procs.iter() {
            let last = &mut self.last_end[p as usize];
            *last = last.max(finish);
        }
        let at = self.live().partition_point(|b| b.end < finish);
        if self.live == self.bookings.len() {
            self.bookings.push(Booking::default());
        }
        let slot = &mut self.bookings[self.live];
        slot.start = start;
        slot.end = finish;
        slot.procs.clone_from(procs);
        self.bookings[at..=self.live].rotate_right(1);
        self.live += 1;
        crate::invariant!(
            self.live().windows(2).all(|w| w[0].end <= w[1].end),
            "bookings must stay sorted by end after every insert"
        );
    }

    /// Whether processor `p` is idle throughout `[start, finish)`.
    /// Touching interval endpoints do not conflict.
    pub fn is_free(&self, p: ProcId, start: f64, finish: f64) -> bool {
        self.overlapping(start, finish)
            .all(|b| !b.procs.contains(p))
    }

    /// Whether every processor in `procs` is idle throughout
    /// `[start, finish)`: [`Timeline::is_free`] for the whole set in one
    /// scan.
    pub fn is_set_free(&self, procs: &ProcSet, start: f64, finish: f64) -> bool {
        self.overlapping(start, finish)
            .all(|b| b.procs.is_disjoint(procs))
    }

    /// The set of processors idle throughout `[start, finish)`.
    pub fn free_set(&self, start: f64, finish: f64) -> ProcSet {
        let mut out = ProcSet::new();
        self.free_set_into(start, finish, &mut out);
        out
    }

    /// Fills `out` with the processors idle throughout `[start, finish)`,
    /// reusing its allocation.
    pub fn free_set_into(&self, start: f64, finish: f64, out: &mut ProcSet) {
        out.clone_from(&self.all);
        for b in self.overlapping(start, finish) {
            out.difference_with(&b.procs);
        }
    }

    /// The time at which processor `p` becomes permanently idle (its last
    /// booking's end; 0 when never booked). This is the only availability
    /// information the *no-backfill* scheduler variant keeps (Fig. 6).
    pub fn last_free_time(&self, p: ProcId) -> f64 {
        let last = self.last_end[p as usize];
        if last == f64::NEG_INFINITY {
            0.0
        } else {
            last
        }
    }

    /// Candidate start times for a placement not before `after`: `after`
    /// itself plus every booking end strictly later than `after`, sorted
    /// and deduplicated.
    pub fn candidate_times(&self, after: f64) -> Vec<f64> {
        self.candidate_times_below(after, f64::INFINITY)
    }

    /// [`Timeline::candidate_times`] cut off at `horizon`: only candidates
    /// strictly below it are returned. Callers that track a best finish
    /// time pass it here so candidates that cannot improve are never even
    /// collected.
    pub fn candidate_times_below(&self, after: f64, horizon: f64) -> Vec<f64> {
        let mut out = Vec::new();
        let mut cursor = self.candidates_after(after);
        while let Some(t) = cursor.next_below(horizon) {
            out.push(t);
        }
        out
    }

    /// A streaming cursor over the candidate start times not before
    /// `after` — the zero-allocation form of
    /// [`Timeline::candidate_times_below`] used by the placement loop.
    pub fn candidates_after(&self, after: f64) -> CandidateTimes<'_> {
        let bookings = self.live();
        CandidateTimes {
            i: bookings.partition_point(|b| b.end <= after),
            bookings,
            after,
            last: None,
        }
    }

    /// All bookings on processor `p`, in time order (test/debug aid).
    pub fn bookings(&self, p: ProcId) -> Vec<(f64, f64)> {
        let mut out: Vec<(f64, f64)> = self
            .live()
            .iter()
            .filter(|b| b.procs.contains(p))
            .map(|b| (b.start, b.end))
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }
}

/// Streaming candidate-start iterator: yields `after`, then each booking
/// end above it, skipping ends within `time_eps` of the previously yielded
/// candidate. Created by [`Timeline::candidates_after`].
#[derive(Debug)]
pub struct CandidateTimes<'a> {
    bookings: &'a [Booking],
    i: usize,
    after: f64,
    last: Option<f64>,
}

impl CandidateTimes<'_> {
    /// The next candidate strictly below `horizon`, or `None` when the
    /// remaining candidates are all at/past it. Candidates ascend, so with
    /// a non-increasing `horizon` (a best finish time that only improves)
    /// `None` is final.
    pub fn next_below(&mut self, horizon: f64) -> Option<f64> {
        let Some(last) = self.last else {
            // First call: the ready time itself is always the first candidate.
            if self.after >= horizon {
                return None;
            }
            self.last = Some(self.after);
            return Some(self.after);
        };
        while let Some(e) = self.bookings.get(self.i).map(|b| b.end) {
            if (e - last).abs() <= time_eps(e) {
                self.i += 1; // within tolerance of the previous candidate
                continue;
            }
            if e >= horizon {
                return None;
            }
            self.i += 1;
            self.last = Some(e);
            return Some(e);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> ProcSet {
        ids.iter().copied().collect()
    }

    #[test]
    fn occupy_and_query() {
        let mut tl = Timeline::new(3);
        tl.occupy(&set(&[0, 1]), 0.0, 10.0);
        assert!(!tl.is_free(0, 5.0, 6.0));
        assert!(tl.is_free(2, 0.0, 100.0));
        assert!(tl.is_free(0, 10.0, 20.0), "touching endpoints are free");
        assert_eq!(tl.free_set(0.0, 10.0).to_vec(), vec![2]);
        assert_eq!(tl.free_set(10.0, 20.0).to_vec(), vec![0, 1, 2]);
    }

    #[test]
    fn holes_between_bookings_are_found() {
        let mut tl = Timeline::new(1);
        tl.occupy(&set(&[0]), 0.0, 5.0);
        tl.occupy(&set(&[0]), 20.0, 30.0);
        assert!(tl.is_free(0, 5.0, 20.0));
        assert!(tl.is_free(0, 6.0, 19.0));
        assert!(!tl.is_free(0, 4.0, 6.0));
        assert!(!tl.is_free(0, 19.0, 21.0));
        assert_eq!(tl.last_free_time(0), 30.0);
    }

    #[test]
    fn out_of_order_occupation_stays_sorted() {
        let mut tl = Timeline::new(1);
        tl.occupy(&set(&[0]), 20.0, 30.0);
        tl.occupy(&set(&[0]), 0.0, 5.0); // backfill into the earlier hole
        tl.occupy(&set(&[0]), 5.0, 20.0);
        assert_eq!(tl.bookings(0), &[(0.0, 5.0), (5.0, 20.0), (20.0, 30.0)]);
        assert!(!tl.is_free(0, 0.0, 30.0));
    }

    #[test]
    #[should_panic(expected = "double booking")]
    fn double_booking_panics() {
        let mut tl = Timeline::new(1);
        tl.occupy(&set(&[0]), 0.0, 10.0);
        tl.occupy(&set(&[0]), 5.0, 15.0);
    }

    /// Regression: at makespans near 1e9 the old purely relative tolerance
    /// (`1e-6 · finish` ≈ 1e3) forgave overlaps far longer than the tasks
    /// themselves, silently double-booking. The length-bounded tolerance
    /// must reject them loudly.
    #[test]
    #[should_panic(expected = "double booking")]
    fn long_makespan_overlap_is_not_forgiven() {
        let mut tl = Timeline::new(1);
        tl.occupy(&set(&[0]), 1.0e9, 1.0e9 + 10.0);
        // Overlaps the previous booking by 7 time units — far below the
        // 1e-6-relative slack (~1e3) but most of the task's duration.
        tl.occupy(&set(&[0]), 1.0e9 + 3.0, 1.0e9 + 13.0);
    }

    #[test]
    fn long_makespan_freeness_is_length_aware() {
        let mut tl = Timeline::new(1);
        tl.occupy(&set(&[0]), 1.0e9, 1.0e9 + 10.0);
        // Under the old relative-only eps this interval looked free.
        assert!(!tl.is_free(0, 1.0e9 + 3.0, 1.0e9 + 13.0));
        // Touching placement stays free, as at small scales.
        assert!(tl.is_free(0, 1.0e9 + 10.0, 1.0e9 + 20.0));
        tl.occupy(&set(&[0]), 1.0e9 + 10.0, 1.0e9 + 20.0);
        assert_eq!(
            tl.bookings(0),
            &[(1.0e9, 1.0e9 + 10.0), (1.0e9 + 10.0, 1.0e9 + 20.0)]
        );
    }

    #[test]
    fn candidate_times_are_ready_time_plus_ends() {
        let mut tl = Timeline::new(2);
        tl.occupy(&set(&[0]), 0.0, 5.0);
        tl.occupy(&set(&[1]), 0.0, 8.0);
        tl.occupy(&set(&[0]), 5.0, 12.0);
        assert_eq!(tl.candidate_times(2.0), vec![2.0, 5.0, 8.0, 12.0]);
        assert_eq!(tl.candidate_times(8.0), vec![8.0, 12.0]);
        assert_eq!(tl.candidate_times(50.0), vec![50.0]);
    }

    #[test]
    fn candidate_horizon_cuts_off_the_tail() {
        let mut tl = Timeline::new(2);
        tl.occupy(&set(&[0]), 0.0, 5.0);
        tl.occupy(&set(&[1]), 0.0, 8.0);
        tl.occupy(&set(&[0]), 5.0, 12.0);
        assert_eq!(tl.candidate_times_below(2.0, 8.0), vec![2.0, 5.0]);
        assert_eq!(tl.candidate_times_below(2.0, 8.5), vec![2.0, 5.0, 8.0]);
        assert_eq!(tl.candidate_times_below(9.0, 9.0), Vec::<f64>::new());
        // The cursor honors a horizon that tightens mid-scan.
        let mut c = tl.candidates_after(0.0);
        assert_eq!(c.next_below(f64::INFINITY), Some(0.0));
        assert_eq!(c.next_below(f64::INFINITY), Some(5.0));
        assert_eq!(c.next_below(9.0), Some(8.0));
        assert_eq!(c.next_below(9.0), None, "12.0 is past the horizon");
    }

    #[test]
    fn event_list_matches_bookings_under_interleaved_inserts() {
        let mut tl = Timeline::new(3);
        tl.occupy(&set(&[2]), 6.0, 9.0);
        tl.occupy(&set(&[0, 1]), 0.0, 4.0);
        tl.occupy(&set(&[0]), 4.0, 6.0);
        tl.occupy(&set(&[1]), 30.0, 31.0);
        assert_eq!(tl.candidate_times(0.0), vec![0.0, 4.0, 6.0, 9.0, 31.0]);
        assert_eq!(tl.candidate_times(5.0), vec![5.0, 6.0, 9.0, 31.0]);
    }

    #[test]
    fn reset_to_fewer_procs_answers_like_a_fresh_chart() {
        let mut tl = Timeline::new(32);
        tl.occupy(&set(&[0, 5, 20, 31]), 0.0, 10.0);
        tl.occupy(&set(&[5, 15]), 12.0, 30.0);
        tl.reset(16);
        let fresh = Timeline::new(16);
        assert_eq!(tl.n_procs(), fresh.n_procs());
        for p in 0..16 {
            assert_eq!(tl.bookings(p), fresh.bookings(p));
            assert_eq!(tl.last_free_time(p), fresh.last_free_time(p));
            assert!(tl.is_free(p, 0.0, 40.0));
        }
        assert_eq!(tl.free_set(0.0, 40.0), fresh.free_set(0.0, 40.0));
        assert_eq!(tl.candidate_times(1.0), fresh.candidate_times(1.0));
        // A booking after the reset lands as on the fresh chart.
        let mut fresh = fresh;
        for chart in [&mut tl, &mut fresh] {
            chart.occupy(&set(&[3, 15]), 2.0, 6.0);
        }
        assert_eq!(tl.free_set(4.0, 5.0), fresh.free_set(4.0, 5.0));
        assert_eq!(tl.candidate_times(0.0), fresh.candidate_times(0.0));
    }

    #[test]
    fn a_reset_chart_books_into_its_kept_slots() {
        let mut tl = Timeline::new(130);
        let wide = set(&[0, 64, 129]);
        for round in 0..3 {
            tl.reset(130);
            tl.occupy(&wide, 0.0, 4.0);
            tl.occupy(&set(&[1]), 1.0, 2.0);
            assert_eq!(tl.bookings.len(), 2, "round {round}: no new slot");
            assert_eq!(tl.free_set(0.5, 1.5).len(), 126);
            assert!(tl.is_set_free(&set(&[2, 65]), 0.0, 4.0));
            assert!(!tl.is_set_free(&set(&[2, 64]), 3.0, 5.0));
        }
    }

    #[test]
    fn zero_length_interval_is_fine() {
        let mut tl = Timeline::new(1);
        tl.occupy(&set(&[0]), 3.0, 3.0);
        assert!(tl.is_free(0, 0.0, 10.0));
    }
}
