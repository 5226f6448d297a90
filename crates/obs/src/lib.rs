//! Zero-overhead-when-disabled observability for the simulator stack.
//!
//! Three layers, each independently usable:
//!
//! * **Counters** ([`counters`]) — plain per-subsystem `u64` registries
//!   (cache probes, timing-wheel cascades, disk seeks, scheduler
//!   dispatches) that are *always* collected. Incrementing an owned
//!   integer costs less than the branch that would gate it, and keeping
//!   them unconditional means the `obs` section of a `SimReport` is
//!   byte-identical whether or not profiling is on — the determinism
//!   guard in `crates/experiments/tests/observability.rs` pins this.
//! * **Span recorder** ([`recorder`]) — a lock-free, fixed-capacity
//!   flight recorder for timeline events on two clock domains: the
//!   simulated clock (per-process and per-disk tracks) and the monotonic
//!   host clock (per sweep-worker tracks). Disabled by default; the
//!   [`enabled`] fast path is a single relaxed atomic load, so the
//!   simulator's zero-allocation request path and events-per-second
//!   numbers are unchanged when nobody is profiling.
//! * **Exporter** ([`perfetto`]) — serializes the recorder into Chrome
//!   trace-event JSON loadable by `ui.perfetto.dev` (and `chrome://
//!   tracing`). Wired into every `mio` run subcommand and `repro_bench`
//!   via `--profile <path>` (see [`profile::finish_profile`]).
//!
//! The crate deliberately depends only on `sim-core` (for
//! [`sim_core::Histogram`] in the disk counters); every other crate in
//! the workspace depends on *it*, so instrumentation points never create
//! a dependency cycle.

pub mod counters;
pub mod metrics;
pub mod perfetto;
pub mod profile;
pub mod recorder;
pub mod timeline;

pub use counters::{CacheCounters, DiskCounters, ObsReport, SchedCounters};
pub use perfetto::{chrome_trace_json, export_chrome_trace, ExportSummary};
pub use profile::{
    add_sim_events, finish_profile, next_sim_id, next_sweep_id, sim_events_total,
};
pub use recorder::{
    complete, counter, enabled, host_now_ns, init, instant, register_track,
    reset, set_enabled, summary, Domain, RecorderSummary, Track,
};
pub use timeline::{finish_timelines, Timeline, TimelineData};
