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
//! A per-processor last booking (its end and length) answers
//! [`Timeline::idle_from`] and the no-backfill candidates, all the
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
//!
//! The queries apply the rule exactly as [`Timeline::occupy`] does, so a
//! window the chart reports free can always be booked. The candidate
//! cursors apply it too: they take the length of the placement they serve,
//! and drop a booking end as a duplicate of the previous candidate only
//! within half that length and half the booking's own, so the processors
//! that booking holds are free at the candidate kept. The last booking end
//! is therefore always a candidate or covered by one, and a placement of
//! any length fits there.

use locmps_platform::{ProcId, ProcSet};

use crate::schedule::time_eps;

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
    /// The length of each processor's last booking; 0 when never booked.
    last_len: Vec<f64>,
    /// The shortest live booking's length; infinite when there is none.
    shortest: f64,
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
        self.shortest = f64::INFINITY;
        self.last_end.clear();
        self.last_end.resize(n_procs, f64::NEG_INFINITY);
        self.last_len.clear();
        self.last_len.resize(n_procs, 0.0);
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

    /// The bookings that overlap `[start, finish)` beyond the tolerance of
    /// the pair: relative to `finish`, bounded by half the window and half
    /// the booking. A processor is idle throughout the window exactly when
    /// none of them holds it, and [`Timeline::occupy`] rejects a booking
    /// exactly when one of them shares a processor with it.
    fn overlapping(&self, start: f64, finish: f64) -> impl Iterator<Item = &Booking> {
        let window_eps = time_eps(finish).min(0.5 * (finish - start));
        let live = self.live();
        // When no booking is shorter than twice the window's tolerance,
        // every pair's tolerance is the window's, and the bookings that end
        // by `start` plus that tolerance are the ones that cannot overlap.
        // Otherwise only those that end by `start` are skipped, and each
        // other booking's bound is applied. (Two slices, one of them empty,
        // keep the common case a one-comparison scan.)
        let (uniform, general): (&[Booking], &[Booking]) = if 0.5 * self.shortest >= window_eps {
            let from = live.partition_point(|b| b.end <= start + window_eps);
            (&live[from..], &[])
        } else {
            let from = live.partition_point(|b| b.end <= start);
            (&[], &live[from..])
        };
        uniform
            .iter()
            .filter(move |b| b.start + window_eps < finish)
            .chain(general.iter().filter(move |b| {
                let eps = window_eps.min(0.5 * (b.end - b.start));
                b.end > start + eps && b.start + eps < finish
            }))
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
        for b in self.overlapping(start, finish) {
            assert!(
                b.procs.is_disjoint(procs),
                "double booking on {}",
                b.procs.intersection(procs)
            );
        }
        self.shortest = self.shortest.min(finish - start);
        for p in procs.iter() {
            let p = p as usize;
            if finish > self.last_end[p] {
                self.last_end[p] = finish;
                self.last_len[p] = finish - start;
            }
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

    /// Whether processor `p`'s last booking has ended by `start` for a
    /// booking of length `len` there, within a tolerance relative to
    /// `start` and bounded by half of either booking. A window `[start,
    /// start + len)` on processors idle from `start` can be booked. The
    /// last booking is the only availability information the
    /// *no-backfill* scheduler variant reads (Fig. 6).
    pub fn idle_from(&self, p: ProcId, start: f64, len: f64) -> bool {
        let (end, last_len) = (self.last_end[p as usize], self.last_len[p as usize]);
        end <= start || end <= start + time_eps(start).min(0.5 * len.min(last_len))
    }

    /// The no-backfill variant's candidate starts for a placement of
    /// length at least `len` not before `after`: each processor's last end
    /// raised to `after`, ascending and deduplicated, into `out` (each
    /// candidate paired with its processor's last booking length). An end
    /// within the [`Timeline::idle_from`] tolerance of the previous
    /// candidate is dropped, so its processor is idle from the candidate
    /// kept.
    pub(crate) fn last_end_candidates_into(&self, after: f64, len: f64, out: &mut Vec<(f64, f64)>) {
        out.clear();
        out.extend(
            self.last_end
                .iter()
                .zip(&self.last_len)
                .map(|(&end, &last_len)| (end.max(after), last_len)),
        );
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out.dedup_by(|a, b| a.0 - b.0 <= time_eps(b.0).min(0.5 * len.min(a.1)));
    }

    /// Candidate start times for a placement of length at least `len` not
    /// before `after`: `after` itself plus every booking end strictly
    /// later than `after`, sorted and deduplicated.
    pub fn candidate_times(&self, after: f64, len: f64) -> Vec<f64> {
        self.candidate_times_below(after, len, f64::INFINITY)
    }

    /// [`Timeline::candidate_times`] cut off at `horizon`: only candidates
    /// strictly below it are returned. Callers that track a best finish
    /// time pass it here so candidates that cannot improve are never even
    /// collected.
    pub fn candidate_times_below(&self, after: f64, len: f64, horizon: f64) -> Vec<f64> {
        let mut out = Vec::new();
        let mut cursor = self.candidates_after(after, len);
        while let Some(t) = cursor.next_below(horizon) {
            out.push(t);
        }
        out
    }

    /// A streaming cursor over the candidate start times not before
    /// `after` for a placement of length at least `len` — the
    /// zero-allocation form of [`Timeline::candidate_times_below`] used by
    /// the placement loop.
    pub fn candidates_after(&self, after: f64, len: f64) -> CandidateTimes<'_> {
        let bookings = self.live();
        CandidateTimes {
            i: bookings.partition_point(|b| b.end <= after),
            bookings,
            after,
            len,
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
/// end above it, skipping an end within tolerance of the previously
/// yielded candidate: `time_eps` of the end, bounded by half the
/// placement length and half the booking. Created by
/// [`Timeline::candidates_after`].
#[derive(Debug)]
pub struct CandidateTimes<'a> {
    bookings: &'a [Booking],
    i: usize,
    after: f64,
    /// The length of the placement the candidates are for.
    len: f64,
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
        while let Some(b) = self.bookings.get(self.i) {
            let (e, gap) = (b.end, b.end - last);
            if gap <= time_eps(e) && gap <= 0.5 * self.len.min(e - b.start) {
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
        assert!(tl.idle_from(0, 30.0, 1.0));
        assert!(!tl.idle_from(0, 29.0, 1.0), "the last booking ends at 30");
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
        assert_eq!(tl.candidate_times(2.0, 1.0), vec![2.0, 5.0, 8.0, 12.0]);
        assert_eq!(tl.candidate_times(8.0, 1.0), vec![8.0, 12.0]);
        assert_eq!(tl.candidate_times(50.0, 1.0), vec![50.0]);
    }

    #[test]
    fn candidate_horizon_cuts_off_the_tail() {
        let mut tl = Timeline::new(2);
        tl.occupy(&set(&[0]), 0.0, 5.0);
        tl.occupy(&set(&[1]), 0.0, 8.0);
        tl.occupy(&set(&[0]), 5.0, 12.0);
        assert_eq!(tl.candidate_times_below(2.0, 1.0, 8.0), vec![2.0, 5.0]);
        assert_eq!(tl.candidate_times_below(2.0, 1.0, 8.5), vec![2.0, 5.0, 8.0]);
        assert_eq!(tl.candidate_times_below(9.0, 1.0, 9.0), Vec::<f64>::new());
        // The cursor honors a horizon that tightens mid-scan.
        let mut c = tl.candidates_after(0.0, 1.0);
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
        assert_eq!(tl.candidate_times(0.0, 1.0), vec![0.0, 4.0, 6.0, 9.0, 31.0]);
        assert_eq!(tl.candidate_times(5.0, 1.0), vec![5.0, 6.0, 9.0, 31.0]);
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
            assert!(tl.idle_from(p, 0.0, 1.0) && fresh.idle_from(p, 0.0, 1.0));
            assert!(tl.is_free(p, 0.0, 40.0));
        }
        assert_eq!(tl.free_set(0.0, 40.0), fresh.free_set(0.0, 40.0));
        assert_eq!(
            tl.candidate_times(1.0, 1.0),
            fresh.candidate_times(1.0, 1.0)
        );
        // A booking after the reset lands as on the fresh chart.
        let mut fresh = fresh;
        for chart in [&mut tl, &mut fresh] {
            chart.occupy(&set(&[3, 15]), 2.0, 6.0);
        }
        assert_eq!(tl.free_set(4.0, 5.0), fresh.free_set(4.0, 5.0));
        assert_eq!(
            tl.candidate_times(0.0, 1.0),
            fresh.candidate_times(0.0, 1.0)
        );
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
