//! The observability layer must be invisible to results and visible to
//! Perfetto.
//!
//! One test fn on purpose: span profiling is process-global state (the
//! `obs::enabled()` flag and the flight-recorder ring), and cargo runs
//! the `#[test]` fns of one binary concurrently. Sequencing every phase
//! inside a single fn is what makes the on/off comparison sound.
//!
//! Phases:
//! 1. profiling **off**: serial and parallel sweeps of a small Figure 8
//!    grid must serialize byte-identically (the existing determinism
//!    contract);
//! 2. profiling **on**: the same sweeps must *still* serialize
//!    byte-identically to phase 1 — recording spans may not perturb one
//!    byte of any result;
//! 3. the `obs` counter section of a report is populated (counters are
//!    always collected, profiled or not);
//! 4. the exported Chrome trace-event JSON parses, and names both the
//!    simulated-process tracks and the host worker tracks.

use experiments::figures::fig8_config;
use experiments::{par_sweep, serial_sweep, simulation, Scale, TraceStore, VENUS_PAIR};
use std::path::Path;

const MB: u64 = 1024 * 1024;

/// (cache MB, block size) — three points keep the four sweeps quick.
const GRID: [(u64, u64); 3] = [(4, 4096), (16, 8192), (32, 4096)];

fn sweep_json(store: &TraceStore, parallel: bool) -> Vec<String> {
    let run = |&(mb, block): &(u64, u64)| {
        simulation(store, fig8_config(mb * MB, block), &VENUS_PAIR, Scale(32), 42).run()
    };
    let reports = if parallel { par_sweep(4, false, &GRID, run) } else { serial_sweep(&GRID, run) };
    reports
        .iter()
        .map(|r| serde_json::to_string(r).expect("report serializes"))
        .collect()
}

#[test]
fn profiling_is_invisible_and_exports_a_perfetto_trace() {
    let store = TraceStore::new();

    // Phase 1: profiling off (the default in a fresh test process).
    assert!(!obs::enabled(), "spans must start disabled");
    let off_serial = sweep_json(&store, false);
    let off_parallel = sweep_json(&store, true);
    assert_eq!(off_serial, off_parallel, "parallel must match serial with profiling off");

    // Phase 2: profiling on — results must not move by a byte.
    obs::init(1 << 16);
    obs::set_enabled(true);
    let on_parallel = sweep_json(&store, true);
    let on_serial = sweep_json(&store, false);
    assert_eq!(on_parallel, off_serial, "profiling must not change parallel results");
    assert_eq!(on_serial, off_serial, "profiling must not change serial results");

    // Phase 3: the counter section is populated either way.
    let report: iosim::SimReport =
        serde_json::from_str(&off_serial[2]).expect("report round-trips");
    assert!(report.obs.timing_wheel.inserts > 0, "wheel inserts: {:?}", report.obs.timing_wheel);
    assert!(report.obs.cache.hit_blocks > 0, "cache hits: {:?}", report.obs.cache);
    assert!(report.obs.disks.seeks > 0, "disk seeks: {:?}", report.obs.disks);
    assert!(
        report.obs.scheduler.context_switches > 0,
        "context switches: {:?}",
        report.obs.scheduler
    );

    // Phase 4: export what phase 2 recorded and check it is a loadable
    // Chrome trace with both clock domains' tracks named.
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("observability_trace.json");
    let summary = obs::export_chrome_trace(&path).expect("trace export writes");
    obs::set_enabled(false);
    assert!(summary.events > 0, "phase 2 must have recorded spans: {summary:?}");
    assert!(summary.tracks > 0, "tracks must be registered: {summary:?}");
    let text = std::fs::read_to_string(&path).expect("trace file readable");
    let parsed: serde::Value = serde_json::from_str(&text).expect("trace is valid JSON");
    drop(parsed);
    assert!(text.contains("\"traceEvents\""), "trace envelope missing");
    assert!(text.contains("\"thread_name\""), "track metadata missing");
    assert!(text.contains("venus"), "simulated-process tracks missing");
    assert!(text.contains("worker"), "host worker tracks missing");
    assert!(text.contains("\"ph\":\"X\""), "complete spans missing");
}
