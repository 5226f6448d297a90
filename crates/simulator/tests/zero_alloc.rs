//! The steady-state request path must not touch the heap.
//!
//! Methodology: run two simulations that are identical except for trace
//! length under a counting global allocator and difference the counts.
//! Setup and teardown allocations (cache slab, event-queue buckets,
//! scratch outcomes growing to their working size) are the same in both
//! runs and cancel; what remains is the marginal cost of the extra
//! simulated I/Os. With the `_into` cache API, the timing wheel's
//! recycled buckets, and the engine's owned scratch buffers that margin
//! is zero — the assertion leaves a whisker of slack only for the
//! `RateSeries` bins doubling a couple more times in the longer run.
//!
//! A second phase repeats the measurement with `obs` span recording
//! enabled: the flight recorder writes into pre-allocated ring slots and
//! drops on overflow, so profiling must not reintroduce allocations.

use iosim::{SimConfig, Simulation};
use iotrace::{Direction, IoEvent, Synchrony, Trace};
use sim_core::units::{KB, MB};
use sim_core::{SimDuration, SimTime};
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

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// A cache-straining mixed workload: a reader cycling through a working
/// set larger than the cache (misses, evictions, read-ahead) and a
/// synchronous writer (dirty blocks, write-behind flushing).
fn mixed_traces(n: u64) -> (Trace, Trace) {
    let gap = SimDuration::from_millis(1);
    let mut reader = Trace::new();
    let mut wall = SimTime::ZERO;
    for i in 0..n {
        wall += gap;
        // 16 MB working set over an 8 MB cache: constant churn.
        let offset = (i % 256) * 64 * KB;
        reader.push(IoEvent::logical(Direction::Read, 1, 1, offset, 64 * KB, wall, gap));
    }
    let mut writer = Trace::new();
    let mut wall = SimTime::ZERO;
    for i in 0..n {
        wall += gap;
        let mut e =
            IoEvent::logical(Direction::Write, 2, 1, (i % 512) * 64 * KB, 64 * KB, wall, gap);
        e.sync = Synchrony::Sync;
        writer.push(e);
    }
    (reader, writer)
}

fn run(reader: &Trace, writer: &Trace, timeline_ns: Option<u64>) {
    let mut sim = Simulation::new(SimConfig { timeline_ns, ..SimConfig::buffered(8 * MB) });
    sim.add_process(1, "reader", reader).expect("valid process");
    sim.add_process(2, "writer", writer).expect("valid process");
    let report = sim.run();
    assert!(report.wall_end > SimTime::ZERO);
}

#[test]
fn steady_state_request_path_allocates_nothing() {
    const SMALL: u64 = 2_000;
    const BIG: u64 = 10_000;
    // Build both workloads up front so trace construction stays out of
    // the differenced window.
    let (small_r, small_w) = mixed_traces(SMALL);
    let (big_r, big_w) = mixed_traces(BIG);

    // Warm-up run: fault in lazy runtime structures (thread-local
    // buffers, stdio) so they don't skew the small run.
    run(&small_r, &small_w, None);

    let a0 = allocs();
    run(&small_r, &small_w, None);
    let a1 = allocs();
    run(&big_r, &big_w, None);
    let a2 = allocs();

    let small_allocs = a1 - a0;
    let big_allocs = a2 - a1;
    let extra_events = 2 * (BIG - SMALL);
    let extra_allocs = big_allocs.saturating_sub(small_allocs);
    let per_event = extra_allocs as f64 / extra_events as f64;
    assert!(
        per_event < 0.01,
        "steady state must be allocation-free: {extra_allocs} extra allocations over \
         {extra_events} extra events ({per_event:.4}/event; small run {small_allocs}, \
         big run {big_allocs})"
    );

    // Phase 2, same fn (the allocator counter and the obs flag are
    // process-global — a second #[test] would race): span recording on.
    // Each run registers the same two process tracks (those allocations
    // cancel in the differencing) and emits spans into the fixed-slot
    // ring, which drops when full rather than growing — so recording
    // must also be allocation-free per event.
    obs::init(1 << 16);
    obs::set_enabled(true);
    run(&small_r, &small_w, None);

    let b0 = allocs();
    run(&small_r, &small_w, None);
    let b1 = allocs();
    run(&big_r, &big_w, None);
    let b2 = allocs();
    obs::set_enabled(false);

    let extra_allocs_obs = (b2 - b1).saturating_sub(b1 - b0);
    let per_event_obs = extra_allocs_obs as f64 / extra_events as f64;
    assert!(
        per_event_obs < 0.01,
        "span recording must be allocation-free: {extra_allocs_obs} extra allocations over \
         {extra_events} extra events ({per_event_obs:.4}/event; small run {}, big run {})",
        b1 - b0,
        b2 - b1
    );

    // Phase 3: timeline sampling on (1 ms grid — every run commits its
    // full 4096-sample budget and then truncates arithmetically). Series
    // storage is preallocated at start() and the gauge gather reads
    // device state without mutating, so sampling must also add no
    // per-event allocations. Setup costs (the per-run series vectors,
    // interned disk names, the published TimelineData) are identical in
    // the small and big runs and cancel in the differencing.
    let grid = Some(1_000_000);
    run(&small_r, &small_w, grid);

    let c0 = allocs();
    run(&small_r, &small_w, grid);
    let c1 = allocs();
    run(&big_r, &big_w, grid);
    let c2 = allocs();
    assert!(!obs::timeline::drain().is_empty(), "sampling actually ran");

    let extra_allocs_tl = (c2 - c1).saturating_sub(c1 - c0);
    let per_event_tl = extra_allocs_tl as f64 / extra_events as f64;
    assert!(
        per_event_tl < 0.01,
        "timeline sampling must be allocation-free: {extra_allocs_tl} extra allocations over \
         {extra_events} extra events ({per_event_tl:.4}/event; small run {}, big run {})",
        c1 - c0,
        c2 - c1
    );
}
