//! The steady-state request path must not touch the heap when traces
//! come from the store.
//!
//! `iosim`'s `zero_alloc` test feeds `Simulation` hand-built in-memory
//! `Trace`s. This one replays the paper's venus workload the way every
//! figure, campaign and served request does, through
//! `TraceStore::feed`: two warm `experiments::simulation` points 16x apart in
//! scale run under a counting global allocator and the counts are
//! differenced. Setup and teardown allocations are the same in both runs
//! and cancel; what remains is the marginal cost of the extra simulated
//! I/Os. It must stay under [`LIMIT`] replaying resident slices with span
//! recording off and on, and replaying spilled frame files through
//! streaming cursors.

use experiments::{simulation, Scale, StoreConfig, TraceStore, VENUS_PAIR};
use iosim::SimConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const MB: u64 = 1024 * 1024;

/// The small point's scale divisor; the big point runs at 1/16 of it.
const SMALL: Scale = Scale(16);
const BIG: Scale = Scale(1);

/// Allocations per extra simulated I/O above which the test fails. The
/// slack absorbs the few logarithmic-count allocations that escape
/// cancellation, such as `RateSeries` bins doubling a couple more times
/// in the longer run, and a streaming cursor's per-block (not
/// per-event) allocations.
const LIMIT: f64 = 0.01;

/// One Figure 6-style point (2 x venus, 32 MB cache, 4 KB blocks)
/// replayed from `store`; returns the simulated I/Os it issued.
fn point(store: &TraceStore, scale: Scale) -> u64 {
    let r = simulation(store, SimConfig::buffered(32 * MB), &VENUS_PAIR, scale, 42).run();
    r.processes.iter().map(|p| p.ios_issued).sum()
}

/// Warm both scales into `store` (and lazy runtime structures) so that
/// generation stays out of the differenced window, then assert that the
/// big point allocates no more per extra I/O than [`LIMIT`].
fn assert_allocation_free(store: &TraceStore, what: &str) {
    point(store, SMALL);
    point(store, BIG);
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let small_ios = point(store, SMALL);
    let a1 = ALLOCS.load(Ordering::Relaxed);
    let big_ios = point(store, BIG);
    let a2 = ALLOCS.load(Ordering::Relaxed);

    let extra_allocs = (a2 - a1).saturating_sub(a1 - a0);
    let extra_ios = big_ios - small_ios;
    let per_io = extra_allocs as f64 / extra_ios as f64;
    assert!(
        per_io < LIMIT,
        "{what} must be allocation-free: {extra_allocs} extra allocations over {extra_ios} \
         extra I/Os ({per_io:.4}/I/O; small run {}, big run {})",
        a1 - a0,
        a2 - a1
    );
}

#[test]
fn store_fed_request_path_allocates_nothing() {
    // One test function: the allocator counter and the obs flag are
    // process-global, so a second #[test] would race with this one.
    let resident = TraceStore::new();
    assert_allocation_free(&resident, "store-fed replay");
    assert_eq!(resident.footprint().entries, 4, "both scales of both venus traces memoized");

    // Span recording on: each run registers the same process tracks
    // (those allocations cancel) and records into the fixed-slot ring,
    // which drops when full rather than growing.
    obs::init(1 << 18);
    obs::set_enabled(true);
    assert_allocation_free(&resident, "span recording on store-fed replay");
    obs::set_enabled(false);

    // A 1 MB budget spills every trace, so `feed` hands out cursors that
    // decode frame blocks on demand.
    let dir = std::env::temp_dir().join(format!("miller-zero-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let streamed = TraceStore::with_config(StoreConfig {
        mem_budget: Some(MB as usize),
        spill_dir: Some(dir.clone()),
    });
    assert_allocation_free(&streamed, "streamed replay from spilled frame files");
    let spilled = streamed.footprint().spilled;
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(spilled, 4, "every trace replayed from a frame file");
}
