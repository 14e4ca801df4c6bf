//! The LoC-MPS search's allocation budget.
//!
//! A look-ahead step reuses the search's buffers: the walk's schedule and
//! branch best are refilled in place, processor sets of up to 128
//! processors live inline, and only a pass-memo insert keeps new heap
//! memory (the pass's schedule, its allocation key and its pseudo-edge
//! list). The search is sequential, so its allocation count is a pure
//! function of the input and the toolchain; this gate pins it at no more
//! than [`BUDGET`] allocations per look-ahead step, where a step is one
//! LoCBS pass, completed or aborted, or one pass-memo hit.
//!
//! Debug builds add two allocations per completed pass (a `debug_assert!`
//! checks `G'` with a validating sort), which the budget covers.
//!
//! This file is its own test binary, so its counting allocator sees no
//! other test's work; the count is per thread, so tests that run in
//! parallel here do not leak into each other either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use locmps::prelude::*;
use locmps::workloads::synthetic::{synthetic_graph, SyntheticConfig};
use locmps::workloads::tce::{ccsd_t1_graph, TceConfig};

/// Allocations allowed per look-ahead step.
const BUDGET: f64 = 9.0;

thread_local! {
    /// Heap allocations (and reallocations) made on this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation on the calling thread.
struct Counting;

fn count() {
    // A `const` thread-local without a destructor never allocates and is
    // never torn down, so counting from inside the allocator is safe.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter only reads and writes a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Schedules `g` with the default LoC-MPS and returns the allocations per
/// look-ahead step, with the step count.
fn allocations_per_step(g: &TaskGraph, cluster: &Cluster) -> (f64, u64) {
    let before = allocations();
    let out = LocMps::default()
        .schedule(g, cluster)
        .expect("the input schedules");
    let made = allocations() - before;
    let c = out.counters;
    let steps = c.locbs_passes + c.probes_aborted + c.pass_memo_hits;
    assert!(steps > 0, "the search ran");
    (made as f64 / steps as f64, steps)
}

fn assert_within_budget(name: &str, g: &TaskGraph, cluster: &Cluster) {
    let (per_step, steps) = allocations_per_step(g, cluster);
    println!("{name}: {per_step:.2} allocations per step over {steps} steps");
    assert!(
        per_step <= BUDGET,
        "{name}: {per_step:.2} allocations per look-ahead step over {steps} steps \
         (budget {BUDGET})"
    );
}

#[test]
fn zoo_synthetic_search_stays_within_budget() {
    let g = synthetic_graph(&SyntheticConfig {
        n_tasks: 18,
        ccr: 0.5,
        seed: 77,
        ..Default::default()
    });
    assert_within_budget("synthetic/p7/ovl", &g, &Cluster::new(7, 50.0));
    assert_within_budget(
        "synthetic/p7/noovl",
        &g,
        &Cluster::new(7, 50.0).without_overlap(),
    );
}

#[test]
fn ccsd_t1_search_stays_within_budget() {
    let g = ccsd_t1_graph(&TceConfig {
        n_occ: 16,
        n_virt: 64,
        ..Default::default()
    });
    assert_within_budget("ccsd_t1/p16/ovl", &g, &Cluster::new(16, 50.0));
}

#[test]
fn two_word_search_stays_within_budget() {
    let g = synthetic_graph(&SyntheticConfig {
        n_tasks: 16,
        ccr: 0.5,
        seed: 7,
        ..Default::default()
    });
    assert_within_budget("synthetic-16/p96/ovl", &g, &Cluster::new(96, 50.0));
}
