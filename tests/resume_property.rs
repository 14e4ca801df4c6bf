//! Prefix replay is exact: a LoCBS pass resumed from the placement log of
//! an earlier pass over the same graph (`Locbs::run_into_resumed`) must
//! give the byte-identical schedule, the same makespan bits and the same
//! schedule-DAG — pseudo-edge order included — as a fresh pass.
//!
//! The resume sources are the ones the LoC-MPS search hands over: the log
//! of the previous step of a look-ahead walk (one or two tasks a processor
//! narrower) and the log of an unrelated allocation.

use locmps::core::{Allocation, CommModel, Locbs, LocbsOptions, LocbsScratch, PlacementLog};
use locmps::prelude::*;
use locmps::taskgraph::EdgeKind;
use proptest::prelude::*;

/// Random DAGs whose works and speedups come from small sets, so sibling
/// tasks often finish together and one placement waits on several
/// blockers (several pseudo-edges in one step).
fn arb_graph() -> impl Strategy<Value = TaskGraph> {
    (2usize..16, any::<u64>(), 0.1..0.45f64).prop_map(|(n, seed, density)| {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut g = TaskGraph::new();
        for i in 0..n {
            let work = [4.0, 8.0, 16.0][(3.0 * next()) as usize];
            let model = if next() < 0.5 {
                SpeedupModel::Linear
            } else {
                SpeedupModel::Downey(DowneyParams::new(6.0, 1.0).unwrap())
            };
            g.add_task(format!("t{i}"), ExecutionProfile::new(work, model).unwrap());
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if next() < density {
                    let volume = if next() < 0.5 { 0.0 } else { 200.0 * next() };
                    g.add_edge(TaskId(i as u32), TaskId(j as u32), volume)
                        .unwrap();
                }
            }
        }
        g
    })
}

/// Everything a pass must reproduce bit for bit.
fn fingerprint(
    schedule: &Schedule,
    makespan: f64,
    dag: &TaskGraph,
) -> (String, u64, Vec<(TaskId, TaskId, EdgeKind)>) {
    (
        serde_json::to_string(schedule).expect("schedules serialize"),
        makespan.to_bits(),
        dag.edges().map(|(_, e)| (e.src, e.dst, e.kind)).collect(),
    )
}

/// One schedule-DAG buffer, scratch and log carried from pass to pass, as
/// the search carries them.
struct Resumer<'a> {
    g: &'a TaskGraph,
    locbs: Locbs<'a>,
    dag: TaskGraph,
    scratch: LocbsScratch,
    log: PlacementLog,
}

impl Resumer<'_> {
    /// Runs one pass resumed from the current log and checks it against a
    /// fresh pass. Returns the number of placements copied from the log.
    fn check(&mut self, alloc: &Allocation) -> Result<u64, TestCaseError> {
        let ((schedule, makespan), replayed) = self
            .locbs
            .run_into_resumed(&mut self.dag, alloc, &mut self.scratch, &mut self.log)
            .unwrap();
        let fresh = self.locbs.run(self.g, alloc).unwrap();
        prop_assert_eq!(
            fingerprint(&schedule, makespan, &self.dag),
            fingerprint(&fresh.schedule, fresh.makespan, &fresh.schedule_dag)
        );
        prop_assert_eq!(&self.dag, &fresh.schedule_dag);
        Ok(replayed)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn resumed_passes_match_fresh_runs(
        g in arb_graph(),
        p in 1usize..9,
        overlap in any::<bool>(),
        backfill in any::<bool>(),
        moves in proptest::collection::vec(any::<u64>(), 3..9),
        unrelated in proptest::collection::vec(1usize..9, 16..17),
    ) {
        let cluster = if overlap {
            Cluster::new(p, 25.0)
        } else {
            Cluster::new(p, 25.0).without_overlap()
        };
        let n = g.n_tasks();
        let mut r = Resumer {
            g: &g,
            locbs: Locbs::new(CommModel::new(&cluster), LocbsOptions { backfill }),
            dag: g.clone(),
            scratch: LocbsScratch::new(),
            log: PlacementLog::new(),
        };
        let unrelated = Allocation::from_vec((0..n).map(|i| unrelated[i].min(p)).collect());

        // A pass resumed from its own allocation's log copies every placement.
        let mut alloc = Allocation::ones(n);
        r.check(&alloc)?;
        prop_assert_eq!(r.check(&alloc)?, n as u64);

        for (k, &m) in moves.iter().enumerate() {
            r.check(&alloc)?;
            // The next walk step widens one or two tasks by one processor.
            alloc.widen(TaskId((m % n as u64) as u32), p);
            if m >> 63 == 1 {
                alloc.widen(TaskId(((m >> 32) % n as u64) as u32), p);
            }
            // Source of the next step: the previous walk step's log, or
            // on odd steps the log of an unrelated allocation.
            if k % 2 == 1 {
                r.check(&unrelated)?;
            }
        }
        r.check(&alloc)?;
    }
}
