//! The 2-D (processors × time) resource chart behind backfill scheduling
//! (§III.F).
//!
//! Parallel job scheduling "can be viewed as a 2D chart with time along one
//! axis and the processors along the other"; backfilling finds *holes* in
//! that chart. [`Timeline`] tracks the busy intervals of every processor and
//! enumerates the candidate start times at which the set of free processors
//! changes — every minimal-finish-time placement starts either at the task's
//! ready time or at some interval end, so scanning those candidates finds
//! the optimal hole.
//!
//! # Incremental event list
//!
//! Candidate starts are booking *ends*. Instead of re-gathering and sorting
//! every processor's interval ends per query (`O(B log B)` per task, `B` =
//! total bookings), [`Timeline::occupy`] maintains one globally sorted end
//! list — a single ordered insert per booking — and queries walk a slice of
//! it: [`Timeline::candidate_times`] is an `O(log B + k)` scan, and the
//! streaming [`CandidateTimes`] cursor lets the placement loop stop at its
//! current best finish time without materializing anything.
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

/// Per-processor busy intervals with hole queries.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    busy: Vec<Vec<(f64, f64)>>,
    /// Every booking's end time, kept sorted across all processors — the
    /// shared candidate-start event list.
    ends: Vec<f64>,
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
        self.busy.truncate(n_procs);
        self.busy.iter_mut().for_each(Vec::clear);
        self.busy.resize_with(n_procs, Vec::new);
        self.ends.clear();
    }

    /// Number of processors tracked.
    pub fn n_procs(&self) -> usize {
        self.busy.len()
    }

    /// Marks `[start, finish)` busy on every processor in `procs`.
    ///
    /// # Panics
    /// Panics if the interval is inverted or overlaps an existing booking
    /// (double-booking is a scheduler bug and must never be silent).
    pub fn occupy(&mut self, procs: &ProcSet, start: f64, finish: f64) {
        assert!(finish >= start, "inverted interval");
        if finish <= start {
            return; // zero-length bookings occupy nothing
        }
        let len = finish - start;
        for p in procs.iter() {
            let intervals = &mut self.busy[p as usize];
            let idx = intervals.partition_point(|iv| iv.0 < start);
            if idx > 0 {
                let (ps, pf) = intervals[idx - 1];
                let eps = bounded_eps(finish, len, pf - ps);
                assert!(pf <= start + eps, "double booking on p{p}");
            }
            if idx < intervals.len() {
                let (ns, nf) = intervals[idx];
                let eps = bounded_eps(finish, len, nf - ns);
                assert!(ns + eps >= finish, "double booking on p{p}");
            }
            intervals.insert(idx, (start, finish));
        }
        let at = self.ends.partition_point(|&e| e < finish);
        self.ends.insert(at, finish);
        crate::invariant!(
            self.ends.windows(2).all(|w| w[0] <= w[1]),
            "candidate-end event list must stay sorted after every insert"
        );
    }

    /// Whether processor `p` is idle throughout `[start, finish)`.
    /// Touching interval endpoints do not conflict.
    pub fn is_free(&self, p: ProcId, start: f64, finish: f64) -> bool {
        let eps = time_eps(finish).min(0.5 * (finish - start));
        let intervals = &self.busy[p as usize];
        // First interval that could intersect: the one before the partition
        // point and the one at it.
        let idx = intervals.partition_point(|iv| iv.1 <= start + eps);
        match intervals.get(idx) {
            Some(&(s, _)) => s + eps >= finish,
            None => true,
        }
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
        out.clear();
        for p in 0..self.busy.len() as ProcId {
            if self.is_free(p, start, finish) {
                out.insert(p);
            }
        }
    }

    /// The time at which processor `p` becomes permanently idle (its last
    /// booking's end; 0 when never booked). This is the only availability
    /// information the *no-backfill* scheduler variant keeps (Fig. 6).
    pub fn last_free_time(&self, p: ProcId) -> f64 {
        self.busy[p as usize].last().map_or(0.0, |iv| iv.1)
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
        let from = self.ends.partition_point(|&e| e <= after);
        CandidateTimes {
            ends: &self.ends,
            i: from,
            after,
            last: None,
        }
    }

    /// All bookings on processor `p`, in time order (test/debug aid).
    pub fn bookings(&self, p: ProcId) -> &[(f64, f64)] {
        &self.busy[p as usize]
    }
}

/// Streaming candidate-start iterator: yields `after`, then each booking
/// end above it, skipping ends within `time_eps` of the previously yielded
/// candidate. Created by [`Timeline::candidates_after`].
#[derive(Debug)]
pub struct CandidateTimes<'a> {
    ends: &'a [f64],
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
        while let Some(&e) = self.ends.get(self.i) {
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
    fn zero_length_interval_is_fine() {
        let mut tl = Timeline::new(1);
        tl.occupy(&set(&[0]), 3.0, 3.0);
        assert!(tl.is_free(0, 0.0, 10.0));
    }
}
