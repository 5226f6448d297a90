//! `repro_bench` — machine-readable timing of the simulation sweeps.
//!
//! Runs the Figure 6/7 fixed simulations, the Figure 8 cache sweep
//! (through the parallel harness), the `fig8_modern_sweep` rerun of the
//! same grid on the 2026 tiered device hierarchy (exercising the
//! queue-aware NVMe/elevator models), the trace-generation and cold/warm
//! trace-store benches (interleaved best-of-five pairs against fresh
//! stores; a warm sweep slower than cold fails the run), the
//! `shard_scale_10k` campaign — 1000 groups x 10 processes x 1 disk
//! through the sharded engine at 1 and 8 shards, gated at >= 3x speedup
//! on machines with >= 8 cores — the 64 MB LRU churn microbench, the
//! `stream_v2` frame-codec churn pair (encode + `trace_codec_churn`
//! decode, the latter gated at >= 2M events/s), and the streamed
//! 100x100 campaign replayed from spilled frame files under a 64 MB
//! trace budget (its peak residency lands in the report as
//! `peak_trace_bytes`, gated at <= the budget), and the
//! `serve_sustained_rps` serving scenario — a closed-loop mixed
//! campaign (every fig8 grid point plus two sharded campaign points,
//! each duplicated [`SERVE_DUP`] times and shuffled)
//! driven by 4 concurrent clients against a warm `serve::Engine`,
//! gated at >= 2x the cold spawn-per-request baseline and at
//! byte-identical responses vs one-shot runs at worker counts 1 and 4 —
//! then writes
//! `BENCH_sim.json` with wall seconds and an events-per-second rate for
//! each sweep. "Events" are simulated I/O requests for the simulator
//! sweeps, generated trace records for the generation bench, codec
//! events for the churn pair, and index operations for the LRU
//! microbench.
//!
//! Flags are parsed by `mio`'s `RunConfig::from_args`, but only these
//! run flags are accepted: `--threads N` sizes the sweep pool (default:
//! the `MILLER_THREADS` / `RAYON_NUM_THREADS` environment, then all
//! available cores), and `--timeline`, `--timeline-out` and `--profile*`
//! attach the observers. The shared store takes its `MILLER_TRACE_*`
//! environment defaults. Every sweep runs at the fixed scale divisor
//! [`SCALE`].
//!
//! The engine-phase microbenches (`event_queue_churn`, `cache_ops_churn`,
//! `device_model_access`) time each hot-path component in isolation at
//! workload-representative parameters; `1e9 / events_per_sec` gives the
//! ns/op share each phase contributes to a simulated I/O, making the next
//! bottleneck visible straight from `BENCH_sim.json`. The binary also
//! runs under a counting global allocator and reports `alloc_per_event` —
//! the marginal heap allocations per simulated I/O, measured by
//! differencing two warm single-point runs — which must stay at zero.
//!
//! `--baseline <path>` compares this run against a previously written
//! `BENCH_sim.json` and exits non-zero if any shared sweep's
//! `events_per_sec` regressed beyond tolerance, or if the request path
//! started allocating. The tolerance is 30 % for most sweeps but a tight
//! 3 % for the canonical `fig8_cache_sweep_14pt` — that sweep runs with
//! span profiling forcibly *disabled*, timed as the best of five
//! repetitions interleaved with the profiling-on sweep, so it guards
//! the zero-overhead claim of the observability layer against the
//! hot-path baseline. Rates are only comparable like-for-like, so a
//! baseline recorded at a different thread count or scale, or one that
//! no longer parses as the current report shape, fails the run before
//! any sweep starts; the allocation gates are absolute and always apply.
//!
//! Observability: the same grid is re-run as `fig8_sweep_obs_on` with
//! the span recorder enabled, and the report's `obs` section summarizes
//! recorder occupancy plus the enabled-vs-disabled overhead.
//! `alloc_per_event_obs` repeats the allocation differencing with spans
//! on — recording must stay allocation-free too (the ring drops, never
//! grows). `--profile PATH` additionally exports everything recorded
//! as a Chrome trace-event / Perfetto JSON timeline.

use buffer_cache::lru::LruIndex;
use buffer_cache::{BlockCache, CacheConfig, ReadOutcome, WritePolicy, WriteOutcome};
use miller_core::figures::two_venus_report;
use miller_core::{
    encode_frames, generate, par_sweep, run_campaign_in, scaled_spec, AppKind, BlockDevice,
    CampaignSpec, DiskModel, DiskParams, FrameFile, IoEvent, RunConfig, Scale, SimDuration,
    SimReport, SimTime, StoreConfig, TraceStore,
};
use serde::{Deserialize, Serialize};
use serve::engine::execute;
use serve::{CampaignPointSpec, Engine, EngineConfig, Fig8PointSpec, RequestBody};
use sim_core::EventQueue;
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use storage_model::AccessKind;

const MB: u64 = 1024 * 1024;

/// Scale divisor of every simulation sweep.
const SCALE: Scale = Scale(16);

/// Copies of each distinct request in the serving stream.
const SERVE_DUP: usize = 3;

/// Tolerated events-per-second regression vs the baseline.
const REGRESSION_TOLERANCE: f64 = 0.30;

/// The canonical hot-path sweep: spans forced off, best of five
/// repetitions interleaved with the spans-on sweep.
const HOT_SWEEP: &str = "fig8_cache_sweep_14pt";

/// The hot sweep gets a far tighter gate than the generic whisker: it is
/// the guard that the observability layer costs nothing when disabled.
const HOT_SWEEP_TOLERANCE: f64 = 0.03;

fn tolerance_for(name: &str) -> f64 {
    if name == HOT_SWEEP {
        HOT_SWEEP_TOLERANCE
    } else {
        REGRESSION_TOLERANCE
    }
}

/// Allocations per simulated I/O above which the run fails: the steady
/// state must be allocation-free (the whisker of slack absorbs the
/// `RateSeries` bins doubling a few more times in the longer run).
const ALLOC_PER_EVENT_LIMIT: f64 = 0.01;

/// In-memory trace budget for the streamed 100x100 campaign; its peak
/// resident bytes are gated absolutely at this figure.
const TRACE_BUDGET: usize = 64 * MB as usize;

/// Absolute floor on `trace_codec_churn`'s decode rate: streamed replay
/// reads every event through the frame decoder, so it must comfortably
/// outrun the simulator's own event rate for spilling to stay off the
/// critical path.
const DECODE_FLOOR: f64 = 2_000_000.0;

/// Minimum `serve_sustained_rps` over the cold spawn-per-request
/// baseline: warm-store reuse plus coalescing/caching of the duplicated
/// stream must at least double throughput, or the daemon isn't paying
/// for its existence.
const SERVE_SPEEDUP_FLOOR: f64 = 2.0;

/// Counts heap allocations so `alloc_per_event` can be measured in-process.
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

/// One timed sweep.
#[derive(Debug, Serialize, Deserialize)]
struct SweepTiming {
    /// Sweep label.
    name: String,
    /// Host wall-clock seconds for the sweep.
    wall_secs: f64,
    /// Events processed (simulated I/O requests, or LRU operations).
    events: u64,
    /// Events per host second.
    events_per_sec: f64,
}

/// What the observability layer did and cost during this run.
#[derive(Debug, Serialize, Deserialize)]
struct ObsBenchSummary {
    /// Span events sitting in the flight-recorder ring at report time.
    events_recorded: u64,
    /// Span events dropped because the ring was full.
    events_dropped: u64,
    /// Perfetto tracks registered (per-process, per-disk, per-worker).
    tracks: usize,
    /// Hot sweep rate with span recording disabled (the canonical rate).
    off_events_per_sec: f64,
    /// The same sweep with span recording enabled.
    on_events_per_sec: f64,
    /// Slowdown of the enabled sweep relative to disabled, in percent
    /// (positive = enabled is slower). Informational, not gated.
    on_overhead_pct: f64,
}

/// What `mio serve`'s engine delivered under the closed-loop mixed
/// campaign, versus the cold spawn-per-request baseline.
#[derive(Debug, Serialize, Deserialize)]
struct ServeBenchSummary {
    /// Requests per second through the warm engine (dedup + coalescing
    /// + warm store), closed-loop from 4 concurrent clients.
    warm_rps: f64,
    /// Requests per second when every request pays a fresh store — the
    /// one-shot spawn-per-request world, at the same parallelism.
    cold_rps: f64,
    /// `warm_rps / cold_rps`; gated at >= 2x.
    speedup: f64,
    /// How many times each distinct request appears in the stream
    /// ([`SERVE_DUP`]).
    duplicate_ratio: usize,
    /// Whether every served response was byte-identical to its one-shot
    /// run at worker counts 1 and 4. Gated: must be true.
    responses_identical: bool,
    /// Per-request-type latency percentiles from the warm engine's own
    /// Prometheus exposition, taken right after the sustained-RPS
    /// stream. Wall-clock seconds (log₂-bucket upper edges), purely
    /// informational — never gated, and absent in older reports.
    latency: Option<Vec<ServeTypeLatency>>,
}

/// One request type's queue-wait / service-time percentiles, parsed
/// from `serve_*_seconds_p50/p99` in the engine's exposition.
#[derive(Debug, Serialize, Deserialize)]
struct ServeTypeLatency {
    /// `type` label on the serve histograms (`fig8_point`, `campaign`).
    req_type: String,
    /// Executions the worker pool completed for this type.
    completed: u64,
    /// p50 queue wait, seconds.
    queue_wait_p50_s: f64,
    /// p99 queue wait, seconds.
    queue_wait_p99_s: f64,
    /// p50 service time, seconds.
    service_p50_s: f64,
    /// p99 service time, seconds.
    service_p99_s: f64,
}

/// Read the warm engine's RED percentiles back through the same text
/// exposition `mio stats --prom` serves, exercising the round-trip
/// parser on a live registry.
fn serve_latency(engine: &Engine) -> Vec<ServeTypeLatency> {
    let samples = obs::metrics::parse_exposition(&engine.prometheus_text()).unwrap_or_default();
    let get = |name: &str, ty: &str| {
        samples
            .iter()
            .find(|s| {
                s.name == name && s.labels.iter().any(|(k, v)| k == "type" && v == ty)
            })
            .map_or(0.0, |s| s.value)
    };
    ["fig8_point", "campaign"]
        .iter()
        .map(|&ty| ServeTypeLatency {
            req_type: ty.to_string(),
            completed: get("serve_service_time_seconds_count", ty) as u64,
            queue_wait_p50_s: get("serve_queue_wait_seconds_p50", ty),
            queue_wait_p99_s: get("serve_queue_wait_seconds_p99", ty),
            service_p50_s: get("serve_service_time_seconds_p50", ty),
            service_p99_s: get("serve_service_time_seconds_p99", ty),
        })
        .collect()
}

/// The whole `BENCH_sim.json` document.
#[derive(Debug, Serialize, Deserialize)]
struct BenchReport {
    /// Worker threads the parallel harness used.
    threads: usize,
    /// Scale divisor the simulations ran at.
    scale: u32,
    /// Marginal heap allocations per simulated I/O on the warm sweep
    /// path, measured by differencing two runs of different length.
    /// Absent (`None`) in reports written before the gate existed.
    alloc_per_event: Option<f64>,
    /// The same differencing with the span recorder enabled: recording
    /// must not allocate either. Absent in pre-observability reports.
    alloc_per_event_obs: Option<f64>,
    /// Observability-layer summary. Absent in pre-observability reports.
    obs: Option<ObsBenchSummary>,
    /// Peak resident bytes in the streamed campaign's trace store — the
    /// working set of 10k processes replaying from spilled frame files,
    /// gated absolutely at the 64 MB budget. Absent in pre-streaming
    /// reports.
    peak_trace_bytes: Option<u64>,
    /// `mio serve` sustained-throughput summary. Absent in pre-serving
    /// reports.
    serve: Option<ServeBenchSummary>,
    /// Per-sweep timings.
    sweeps: Vec<SweepTiming>,
}

fn ios_issued(r: &SimReport) -> u64 {
    r.processes.iter().map(|p| p.ios_issued).sum()
}

fn timed(name: &str, f: impl FnOnce() -> u64) -> SweepTiming {
    let start = Instant::now();
    let events = f();
    let wall_secs = start.elapsed().as_secs_f64();
    SweepTiming {
        name: name.to_string(),
        wall_secs,
        events,
        events_per_sec: if wall_secs > 0.0 { events as f64 / wall_secs } else { 0.0 },
    }
}

/// The Figure 8 parameter grid (cache MB, block size).
fn fig8_jobs() -> Vec<(u64, u64)> {
    let sizes = [4u64, 8, 16, 32, 64, 128, 256];
    let mut jobs = Vec::new();
    for &block in &[4096u64, 8192] {
        for &mb in &sizes {
            jobs.push((mb, block));
        }
    }
    jobs
}

fn run_benches(store: &TraceStore, cfg: &RunConfig, scale: Scale, seed: u64) -> Vec<SweepTiming> {
    let mut sweeps = Vec::new();

    // Raw workload generation, bypassing the store: the cost the
    // memoized sweeps no longer pay per point.
    sweeps.push(timed("trace_gen_two_venus_x5", || {
        let mut events = 0u64;
        for _ in 0..5 {
            let t1 = generate(&scaled_spec(AppKind::Venus, 1, scale), seed);
            let t2 = generate(&scaled_spec(AppKind::Venus, 2, scale), seed + 1);
            events += (t1.io_count() + t2.io_count()) as u64;
        }
        events
    }));

    // One fig6/fig7/fig8 point against `store` (the run's shared store)
    // or a private one.
    let point = |store: &TraceStore, mb: u64, block: u64| {
        let r = two_venus_report(
            store,
            cfg.timeline_ns,
            mb * MB,
            block,
            true,
            WritePolicy::WriteBehind,
            scale,
            seed,
        );
        ios_issued(&r)
    };

    sweeps.push(timed("fig6_two_venus_32mb", || point(store, 32, 4096)));
    sweeps.push(timed("fig7_two_venus_128mb", || point(store, 128, 4096)));

    // The Figure 8 grid, fanned out over the parallel harness exactly
    // like `fig8()` — reproduced here so per-point I/O counts are
    // visible for the rate. The shared store is warm by now (fig6/fig7
    // above), so this is the steady-state sweep rate.
    //
    // Run it twice: once with span recording forced off (the canonical
    // hot-path rate, gated at 3 % vs baseline) and once forced on, so
    // the report states the observability layer's overhead directly.
    let store_sweep = |store: &TraceStore| -> u64 {
        let counts = par_sweep(cfg.threads, cfg.progress, &fig8_jobs(), |&(mb, block)| {
            point(store, mb, block)
        });
        counts.iter().sum()
    };
    let fig8_once = || store_sweep(store);
    // Interleaved off/on repetitions: on a shared machine the load
    // regime drifts over the seconds a sweep block takes, so measuring
    // all-off then all-on would compare different windows and report
    // phantom overhead. Alternating pairs sample the same windows; the
    // minimum over the pairs is each mode's true capability.
    let spans_were_on = obs::enabled();
    obs::init(1 << 18);
    let mut off_best: Option<SweepTiming> = None;
    let mut on_best: Option<SweepTiming> = None;
    for _ in 0..5 {
        obs::set_enabled(false);
        let off = timed(HOT_SWEEP, fig8_once);
        if off_best.as_ref().is_none_or(|b| off.wall_secs < b.wall_secs) {
            off_best = Some(off);
        }
        obs::set_enabled(true);
        let on = timed("fig8_sweep_obs_on", fig8_once);
        if on_best.as_ref().is_none_or(|b| on.wall_secs < b.wall_secs) {
            on_best = Some(on);
        }
    }
    obs::set_enabled(spans_were_on);
    sweeps.push(off_best.expect("five off repetitions ran"));
    sweeps.push(on_best.expect("five on repetitions ran"));

    // The same grid against a private store: cold pays the one-time
    // generation of both venus traces, warm re-runs with them memoized —
    // cold − warm ≈ the total generation cost amortized over the sweep,
    // and a warm sweep can never legitimately be slower than a cold one
    // (main gates on that). Measured like the hot sweep above: five
    // interleaved cold/warm pairs, each pair against a FRESH store, best
    // rep wins. The old single cold-block-then-warm-block measurement
    // compared two different load windows on a shared machine and could
    // report warm < cold.
    let mut cold_best: Option<SweepTiming> = None;
    let mut warm_best: Option<SweepTiming> = None;
    for _ in 0..5 {
        let store = TraceStore::new();
        let cold = timed("fig8_sweep_cold_store", || store_sweep(&store));
        if cold_best.as_ref().is_none_or(|b| cold.wall_secs < b.wall_secs) {
            cold_best = Some(cold);
        }
        let warm = timed("fig8_sweep_warm_store", || store_sweep(&store));
        if warm_best.as_ref().is_none_or(|b| warm.wall_secs < b.wall_secs) {
            warm_best = Some(warm);
        }
    }
    sweeps.push(cold_best.expect("five cold repetitions ran"));
    sweeps.push(warm_best.expect("five warm repetitions ran"));

    // The 2026-device rerun (`mio sim --devices modern`): the same
    // cache sweep against the tiered NVMe/elevator/tape hierarchy, so
    // the queue-aware device models sit on a gated hot path too.
    sweeps.push(timed("fig8_modern_sweep", || {
        miller_core::modern::modern_sweep_ios(store, cfg, scale, seed)
    }));

    // Cluster scale-out: the 10k-process / 1k-disk datacenter campaign
    // through the sharded engine at 1 shard and at 8. Both runs produce
    // the byte-identical report (pinned by the determinism tests); what
    // this times is pure execution scaling. Campaign traces shrink with
    // the bench divisor so the default run stays within minutes.
    let mut spec = CampaignSpec::datacenter(1000, 10);
    spec.scale = Scale(scale.0.saturating_mul(32).max(1));
    spec.shared_file_every = 10; // one shared-file reader per group
    spec.timeline_ns = cfg.timeline_ns;
    for shards in [1usize, 8] {
        sweeps.push(timed(&format!("shard_scale_10k_s{shards}"), || {
            run_campaign_in(store, &spec, shards).ios_issued
        }));
    }

    // Engine-phase microbenches: each hot-path component in isolation,
    // at workload-representative parameters. 1e9 / events_per_sec is the
    // ns/op that phase contributes to one simulated I/O.

    // Queue phase: schedule/pop churn through the timing wheel with the
    // simulator's mix of deltas — mostly near-future (slice and I/O
    // completions within milliseconds of now), a few far-future (the
    // 30-second flush aging timer), at ~1k events in flight.
    sweeps.push(timed("event_queue_churn", || {
        const OPS: u64 = 4_000_000;
        const IN_FLIGHT: u64 = 1024;
        let deltas = [
            100u64, 250, 1_000, 1_500, 4_000, 10_000, 100_000, 500_000, 3_000_000,
        ];
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..OPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let delta = if x.is_multiple_of(997) {
                3_000_000_000 // the flush aging timer, ~30 s out
            } else {
                deltas[(x % deltas.len() as u64) as usize]
            };
            q.schedule(q.now() + SimDuration::from_ticks(delta), i as u32);
            if q.len() as u64 > IN_FLIGHT {
                std::hint::black_box(q.pop());
            }
        }
        while q.pop().is_some() {}
        OPS
    }));

    // Cache phase: read/write bookkeeping through the reusable-outcome
    // API over a working set twice the cache, no engine or device model.
    sweeps.push(timed("cache_ops_churn", || {
        const OPS: u64 = 1_000_000;
        let mut cache = BlockCache::new(CacheConfig::buffered(32 * MB));
        let mut read_out = ReadOutcome::default();
        let mut write_out = WriteOutcome::default();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in 0..OPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let now = SimTime::from_ticks(i * 100);
            let offset = (x % (2 * 32 * MB / 4096)) * 4096;
            if x.is_multiple_of(4) {
                cache.write_into(now, 1, 1, offset, 4096, &mut write_out);
                std::hint::black_box(write_out.dirtied_blocks);
            } else {
                cache.read_into(now, 1, 1, offset, 4096, &mut read_out);
                std::hint::black_box(read_out.miss_blocks);
            }
        }
        OPS
    }));

    // Device phase: the seek/rotate/transfer model alone, alternating
    // short seeks within a file and long cross-file strides.
    sweeps.push(timed("device_model_access", || {
        const OPS: u64 = 2_000_000;
        let mut disk = DiskModel::new("bench", DiskParams::default());
        let mut x = 0x853c_49e6_748f_ea9bu64;
        let mut total = SimDuration::ZERO;
        for i in 0..OPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let now = SimTime::from_ticks(i * 1_000);
            // Strides stay within the ~1.2 GB Y-MP platter: the device
            // model clamps (and under debug asserts on) out-of-range
            // extents, so the bench must issue well-formed ones.
            let offset = (x % (4 * 1024)) * 4096 + (x % 4) * 256 * MB;
            let kind = if x.is_multiple_of(4) { AccessKind::Write } else { AccessKind::Read };
            total += disk.access(now, kind, offset, 4096);
        }
        std::hint::black_box(total);
        OPS
    }));

    sweeps.push(timed("lru_churn_64mb_4k_blocks", || {
        const RESIDENT: usize = 64 * 1024 * 1024 / 4096;
        const OPS: u64 = 2_000_000;
        let mut lru: LruIndex<(u32, u64)> = LruIndex::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..OPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            lru.touch((1, x % (2 * RESIDENT as u64)));
            if lru.len() > RESIDENT {
                std::hint::black_box(lru.pop_lru());
            }
        }
        OPS
    }));

    codec_benches(scale, seed, &mut sweeps);

    sweeps
}

/// Frame-codec churn: the `stream_v2` hot loops in isolation. One venus
/// trace is encoded into an in-memory frame (4096-event blocks, the
/// codec default) and decoded back through a block cursor, enough
/// repetitions of each to push ~2M events through either direction.
/// `trace_codec_churn` is the decode side, gated absolutely in `main`
/// at [`DECODE_FLOOR`]; encode is timed alongside and the wire rates in
/// MB/s go to stderr.
fn codec_benches(scale: Scale, seed: u64, sweeps: &mut Vec<SweepTiming>) {
    const TARGET_EVENTS: u64 = 2_000_000;
    let trace = generate(&scaled_spec(AppKind::Venus, 1, scale), seed);
    let events: Vec<IoEvent> = trace.events().cloned().collect();
    let per_rep = (events.len() as u64).max(1);
    let reps = TARGET_EVENTS.div_ceil(per_rep);
    let mut frame = Vec::new();
    let enc = timed("trace_codec_encode", || {
        for _ in 0..reps {
            frame = encode_frames(&events, 4096);
        }
        reps * per_rep
    });
    let frame_bytes = frame.len() as u64;
    let file = FrameFile::from_bytes(frame).expect("freshly encoded frame parses");
    let dec = timed("trace_codec_churn", || {
        let mut n = 0u64;
        for _ in 0..reps {
            let mut cur = file.cursor();
            while let Some(e) = cur.next().expect("freshly encoded frame decodes") {
                std::hint::black_box(e.length);
                n += 1;
            }
        }
        n
    });
    let wire_mb_per_sec = |t: &SweepTiming| {
        if t.wall_secs > 0.0 {
            (frame_bytes * reps) as f64 / MB as f64 / t.wall_secs
        } else {
            0.0
        }
    };
    eprintln!(
        "trace codec: {:.1} wire bytes/event; encode {:.0} MB/s, decode {:.0} MB/s",
        frame_bytes as f64 / per_rep as f64,
        wire_mb_per_sec(&enc),
        wire_mb_per_sec(&dec),
    );
    sweeps.push(enc);
    sweeps.push(dec);
}

/// The streaming-store memory gate: the 100x100 datacenter campaign
/// (10k processes) replayed entirely from spilled `stream_v2` frame
/// files under the [`TRACE_BUDGET`] in-memory budget — the flag-level
/// equivalent is `mio sim --campaign 100x100 --trace-mem-budget 64`.
/// Returns the sweep timing plus the store's peak resident bytes, which
/// `main` gates at <= the budget: the trace working set must stay
/// bounded by the live cursors' decoded blocks no matter how many
/// processes replay. Campaign traces shrink with the bench divisor,
/// like `shard_scale_10k`.
fn measure_streamed_campaign(cfg: &RunConfig, scale: Scale) -> (SweepTiming, u64) {
    let dir = std::env::temp_dir().join(format!("miller-bench-traces-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TraceStore::with_config(StoreConfig {
        mem_budget: Some(TRACE_BUDGET),
        spill_dir: Some(dir.clone()),
    });
    let mut spec = CampaignSpec::datacenter(100, 100);
    spec.scale = Scale(scale.0.saturating_mul(32).max(1));
    spec.timeline_ns = cfg.timeline_ns;
    let timing =
        timed("campaign_streamed_100x100", || run_campaign_in(&store, &spec, 8).ios_issued);
    let peak = store.footprint().peak_bytes as u64;
    let _ = std::fs::remove_dir_all(&dir);
    (timing, peak)
}

/// The mixed request campaign the serving benches drive: every Figure 8
/// grid point (which subsumes the fig6/fig7 32 MB and 128 MB points)
/// plus two sharded campaign points, at the bench scale.
fn serve_request_pool(scale: Scale, seed: u64) -> Vec<RequestBody> {
    let mut pool: Vec<RequestBody> = fig8_jobs()
        .iter()
        .map(|&(mb, block)| {
            RequestBody::Fig8Point(Fig8PointSpec { cache_mb: mb, block, scale: scale.0, seed })
        })
        .collect();
    // Campaign traces shrink with the bench divisor, like shard_scale_10k.
    let campaign_scale = scale.0.saturating_mul(32).max(1);
    for (groups, procs) in [(8usize, 8usize), (8, 16)] {
        let mut c = CampaignPointSpec::datacenter(groups, procs, 4);
        c.scale = campaign_scale;
        c.seed = seed;
        pool.push(RequestBody::Campaign(c));
    }
    pool
}

/// `dup` copies of every pool index, deterministically shuffled
/// (xorshift Fisher-Yates) so duplicates arrive interleaved across the
/// stream rather than back-to-back.
fn shuffled_stream(pool_len: usize, dup: usize) -> Vec<usize> {
    let mut stream: Vec<usize> =
        (0..pool_len).flat_map(|i| std::iter::repeat_n(i, dup)).collect();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in (1..stream.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        stream.swap(i, (x % (i as u64 + 1)) as usize);
    }
    stream
}

/// Closed-loop drive: 4 concurrent clients deal the stream round-robin,
/// each submitting its next request only after the previous one
/// resolved. Returns every response with its pool index.
fn drive_engine(
    engine: &Engine,
    pool: &[RequestBody],
    stream: &[usize],
) -> Vec<(usize, std::sync::Arc<serde::Value>)> {
    const CLIENTS: usize = 4;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let client = format!("client{c}");
                    stream
                        .iter()
                        .copied()
                        .skip(c)
                        .step_by(CLIENTS)
                        .map(|i| {
                            let ticket =
                                engine.submit(&client, &pool[i]).expect("within max_inflight");
                            (i, ticket.wait().expect("engine running"))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    })
}

/// The `serve_sustained_rps` scenario: the closed-loop mixed campaign
/// against a warm serving engine versus the cold spawn-per-request
/// baseline (fresh trace store per request, same parallelism, no
/// dedup/cache), plus the response-identity check at worker counts
/// {1, 4}. Events are *requests*, so `events_per_sec` is RPS and the
/// warm/cold rate ratio is the amortization speedup `main` gates at 2x.
fn measure_serve(
    cfg: &RunConfig,
    scale: Scale,
    seed: u64,
) -> (SweepTiming, SweepTiming, ServeBenchSummary) {
    let pool = serve_request_pool(scale, seed);
    let stream = shuffled_stream(pool.len(), SERVE_DUP);
    let engine_config = |workers: usize| EngineConfig {
        workers,
        max_inflight: 256,
        result_cache: 512,
        store: StoreConfig::default(),
    };

    // Determinism first: every served response — computed, coalesced,
    // or cached — must match its sequential one-shot bytes, at 1 worker
    // and at 4.
    let one_shot: Vec<String> = pool
        .iter()
        .map(|body| {
            let store = TraceStore::new();
            serde_json::to_string_pretty(&execute(&store, body)).expect("report serializes")
        })
        .collect();
    let mut responses_identical = true;
    for workers in [1usize, 4] {
        let engine = Engine::new(engine_config(workers));
        for (i, value) in drive_engine(&engine, &pool, &stream) {
            let text = serde_json::to_string_pretty(value.as_ref()).expect("report serializes");
            if text != one_shot[i] {
                responses_identical = false;
                eprintln!(
                    "serve: response diverged from its one-shot run at {workers} worker(s): {:?}",
                    pool[i]
                );
            }
        }
    }

    // Warm sustained throughput: a fresh engine at the harness thread
    // count, timed end to end — the first requests pay trace generation
    // exactly once, duplicates coalesce or hit the result cache.
    let engine = Engine::new(engine_config(cfg.threads));
    let warm = timed("serve_sustained_rps", || {
        drive_engine(&engine, &pool, &stream);
        stream.len() as u64
    });
    let latency = serve_latency(&engine);
    drop(engine);

    // Cold baseline: the same stream at the same parallelism, but every
    // request spawns its own store and recomputes — the one-shot world
    // the daemon replaces.
    let cold = timed("serve_cold_spawn_per_request", || {
        let ones = par_sweep(cfg.threads, false, &stream, |&i| {
            let store = TraceStore::new();
            std::hint::black_box(execute(&store, &pool[i]));
            1u64
        });
        ones.iter().sum()
    });

    let summary = ServeBenchSummary {
        warm_rps: warm.events_per_sec,
        cold_rps: cold.events_per_sec,
        speedup: if cold.events_per_sec > 0.0 {
            warm.events_per_sec / cold.events_per_sec
        } else {
            0.0
        },
        duplicate_ratio: SERVE_DUP,
        responses_identical,
        latency: Some(latency),
    };
    (warm, cold, summary)
}

/// Marginal heap allocations per simulated I/O, by differencing: two
/// single-point fig8 runs, identical except trace length (a 4× scale
/// gap), against a pre-warmed private store. Setup allocations are the
/// same in both and cancel; what remains is the steady-state cost of the
/// extra events — zero once the request path reuses its buffers.
///
/// With `with_obs` the span recorder runs enabled throughout: per-run
/// track registrations are identical in both runs and cancel, and the
/// ring's fixed slots never grow (a full ring drops), so this measures
/// that *recording itself* is allocation-free per event.
fn measure_alloc_per_event(cfg: &RunConfig, scale: Scale, seed: u64, with_obs: bool) -> f64 {
    let spans_were_on = obs::enabled();
    if with_obs {
        obs::init(1 << 18);
    }
    obs::set_enabled(with_obs);
    let store = TraceStore::new();
    // The big run is ~16x the small one: a wide gap dilutes the few
    // logarithmic-count allocations that escape cancellation (per-run
    // structures such as `RateSeries` bins doubling a couple more times
    // in the longer run) across many extra events, so the measurement
    // reads ~0 rather than hovering near the gate.
    let big_scale = Scale(scale.0.div_ceil(16));
    let point = |s: Scale| {
        let r = two_venus_report(
            &store,
            cfg.timeline_ns,
            32 * MB,
            4096,
            true,
            WritePolicy::WriteBehind,
            s,
            seed,
        );
        ios_issued(&r)
    };
    // Warm both traces into the store (and lazy runtime structures) so
    // generation stays out of the differenced window.
    point(scale);
    point(big_scale);

    let a0 = ALLOCS.load(Ordering::Relaxed);
    let small_events = point(scale);
    let a1 = ALLOCS.load(Ordering::Relaxed);
    let big_events = point(big_scale);
    let a2 = ALLOCS.load(Ordering::Relaxed);

    let extra_allocs = (a2 - a1).saturating_sub(a1 - a0);
    let extra_events = big_events.saturating_sub(small_events).max(1);
    obs::set_enabled(spans_were_on);
    extra_allocs as f64 / extra_events as f64
}

/// Compare `report` against the already-parsed `base`line. Returns the
/// list of sweeps that regressed beyond tolerance (empty = pass).
fn compare_baseline(report: &BenchReport, base: &BenchReport) -> Vec<String> {
    let mut regressed = Vec::new();
    for s in &report.sweeps {
        let Some(b) = base.sweeps.iter().find(|b| b.name == s.name) else {
            eprintln!("{}: not in baseline, skipping", s.name);
            continue;
        };
        if b.events_per_sec <= 0.0 {
            continue;
        }
        let tolerance = tolerance_for(&s.name);
        let ratio = s.events_per_sec / b.events_per_sec;
        eprintln!(
            "{}: {:.0} events/s vs baseline {:.0} ({:+.1}%, limit -{:.0}%)",
            s.name,
            s.events_per_sec,
            b.events_per_sec,
            (ratio - 1.0) * 100.0,
            tolerance * 100.0
        );
        if ratio < 1.0 - tolerance {
            regressed.push(format!(
                "{} regressed {:.1}% (limit {:.0}%)",
                s.name,
                (1.0 - ratio) * 100.0,
                tolerance * 100.0
            ));
        }
    }
    regressed
}

/// Read a `--baseline` file that this run's rates can be compared with.
fn load_baseline(path: &str, threads: usize, scale: u32) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let base = serde_json::from_str::<BenchReport>(&text).map_err(|e| {
        format!(
            "baseline {path} does not parse as the current report shape ({e}); \
             regenerate BENCH_sim.json"
        )
    })?;
    if base.threads != threads || base.scale != scale {
        return Err(format!(
            "baseline {path} was recorded at threads={}/scale={}, this run is \
             threads={threads}/scale={scale}; regenerate BENCH_sim.json",
            base.threads, base.scale
        ));
    }
    Ok(base)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().collect();
    // The benches fix their own shard counts and devices, and the store
    // keeps its environment defaults: of the run flags only the thread
    // count and the observers apply here.
    const UNUSED: [&str; 5] =
        ["--shards", "--devices", "--trace-dir", "--trace-mem-budget", "--progress"];
    if let Some(flag) = argv.iter().find(|a| UNUSED.contains(&a.as_str())) {
        eprintln!("repro_bench: {flag} is not supported");
        return ExitCode::FAILURE;
    }
    let cfg = match RunConfig::from_args(&mut argv) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("repro_bench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    cfg.start_profile();
    let mut baseline = None;
    let mut args = argv.into_iter().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--baseline" => match args.next() {
                Some(p) => baseline = Some(p),
                None => {
                    eprintln!("repro_bench: --baseline needs a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("repro_bench: unknown argument `{other}`");
                eprintln!(
                    "usage: repro_bench [--baseline BENCH_sim.json] [--threads N] \
                     [--timeline NS] [--timeline-out PATH] [--profile trace.json] \
                     [--profile-capacity N]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let (scale, seed) = (SCALE, 42);
    // Check the baseline before any sweep runs: the baseline path is
    // usually the same BENCH_sim.json this run is about to overwrite.
    // A missing file, a file that no longer parses as the current report
    // shape, and one recorded at another thread count or scale are all
    // errors: none of them may silently disable the regression gate.
    let base = match &baseline {
        Some(path) => match load_baseline(path, cfg.threads, scale.0) {
            Ok(b) => Some(b),
            Err(msg) => {
                eprintln!("repro_bench: {msg}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let store = TraceStore::with_config(cfg.store.clone());

    let mut sweeps = run_benches(&store, &cfg, scale, seed);
    let (streamed_campaign, peak_trace_bytes) = measure_streamed_campaign(&cfg, scale);
    sweeps.push(streamed_campaign);
    let (serve_warm, serve_cold, serve_summary) = measure_serve(&cfg, scale, seed);
    let serve_speedup = serve_summary.speedup;
    let serve_identical = serve_summary.responses_identical;
    sweeps.push(serve_warm);
    sweeps.push(serve_cold);
    let alloc_per_event = measure_alloc_per_event(&cfg, scale, seed, false);
    let alloc_per_event_obs = measure_alloc_per_event(&cfg, scale, seed, true);

    let rate_of = |name: &str| {
        sweeps.iter().find(|s| s.name == name).map(|s| s.events_per_sec).unwrap_or(0.0)
    };
    let off_rate = rate_of(HOT_SWEEP);
    let on_rate = rate_of("fig8_sweep_obs_on");
    let cold_rate = rate_of("fig8_sweep_cold_store");
    let warm_rate = rate_of("fig8_sweep_warm_store");
    let shard1_rate = rate_of("shard_scale_10k_s1");
    let shard8_rate = rate_of("shard_scale_10k_s8");
    let decode_rate = rate_of("trace_codec_churn");
    let rec = obs::summary();
    let obs_summary = ObsBenchSummary {
        events_recorded: rec.recorded,
        events_dropped: rec.dropped,
        tracks: rec.tracks,
        off_events_per_sec: off_rate,
        on_events_per_sec: on_rate,
        on_overhead_pct: if on_rate > 0.0 { (off_rate / on_rate - 1.0) * 100.0 } else { 0.0 },
    };
    let report = BenchReport {
        threads: cfg.threads,
        scale: scale.0,
        alloc_per_event: Some(alloc_per_event),
        alloc_per_event_obs: Some(alloc_per_event_obs),
        obs: Some(obs_summary),
        peak_trace_bytes: Some(peak_trace_bytes),
        serve: Some(serve_summary),
        sweeps,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    println!("{json}");
    let mut failed = false;
    if let Err(e) = std::fs::write("BENCH_sim.json", &json) {
        eprintln!("FAIL: BENCH_sim.json: {e}");
        failed = true;
    }

    // The allocation gates are absolute: the request path must stay
    // allocation-free regardless of what any baseline recorded, with
    // span recording off *and* on.
    for (label, value) in
        [("alloc_per_event", alloc_per_event), ("alloc_per_event_obs", alloc_per_event_obs)]
    {
        if value > ALLOC_PER_EVENT_LIMIT {
            eprintln!(
                "FAIL: {label} {value:.4} exceeds {ALLOC_PER_EVENT_LIMIT} — \
                 the request path is allocating in steady state"
            );
            failed = true;
        } else {
            eprintln!("{label} {value:.4} (limit {ALLOC_PER_EVENT_LIMIT})");
        }
    }

    // A warm store replays memoized traces the cold sweep had to
    // generate, so warm can only legitimately be slower by noise:
    // generation is ~1% of the sweep wall at the default scale. With
    // interleaved best-of-five pairs the residual jitter is a point or
    // two; 3% of slack clears that while still catching the 4.4%
    // inversion the old cold-block-then-warm-block measurement recorded.
    if warm_rate < cold_rate * 0.97 {
        eprintln!(
            "FAIL: warm store {warm_rate:.0} events/s is slower than cold {cold_rate:.0} — \
             trace memoization is not paying for itself"
        );
        failed = true;
    } else {
        eprintln!("warm store {warm_rate:.0} events/s >= cold {cold_rate:.0} (3% slack)");
    }

    // The sharded-engine scaling gate. Both campaign runs process the
    // same event count, so the rate ratio is the wall-clock speedup.
    // Only gate where 8 shards can actually run in parallel; on smaller
    // machines the number is still recorded, just informational.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let speedup = if shard1_rate > 0.0 { shard8_rate / shard1_rate } else { 0.0 };
    if cores >= 8 && speedup < 3.0 {
        eprintln!(
            "FAIL: shard_scale_10k speedup {speedup:.2}x at 8 shards on {cores} cores \
             (gate: >= 3x)"
        );
        failed = true;
    } else {
        eprintln!(
            "shard_scale_10k: {speedup:.2}x speedup at 8 shards on {cores} cores{}",
            if cores >= 8 { " (gate: >= 3x)" } else { " (informational, gate needs >= 8 cores)" }
        );
    }

    // The streaming-store memory gate: replaying the 10k-process
    // campaign from spilled frame files must keep trace residency under
    // the budget — that bound is the whole point of spilling.
    if peak_trace_bytes > TRACE_BUDGET as u64 {
        eprintln!(
            "FAIL: peak_trace_bytes {:.1} MB exceeds the {} MB trace budget — \
             streamed replay is not bounding memory",
            peak_trace_bytes as f64 / MB as f64,
            TRACE_BUDGET as u64 / MB
        );
        failed = true;
    } else {
        eprintln!(
            "peak_trace_bytes {:.1} MB within the {} MB budget",
            peak_trace_bytes as f64 / MB as f64,
            TRACE_BUDGET as u64 / MB
        );
    }

    // The frame-decode floor: a streaming cursor must never become the
    // simulator's bottleneck, so decode throughput is gated absolutely
    // rather than against a baseline.
    if decode_rate < DECODE_FLOOR {
        eprintln!(
            "FAIL: trace_codec_churn decoded {decode_rate:.0} events/s \
             (floor {DECODE_FLOOR:.0})"
        );
        failed = true;
    } else {
        eprintln!("trace_codec_churn {decode_rate:.0} events/s (floor {DECODE_FLOOR:.0})");
    }

    // The serving gates. Identity is absolute — a daemon that answers
    // different bytes than the one-shot run is wrong, full stop.
    // Throughput: with a warm trace store plus coalescing/caching of a
    // 3x-duplicated stream, the daemon must clear 2x the cold
    // spawn-per-request baseline, which regenerates traces per request
    // at the same parallelism.
    if !serve_identical {
        eprintln!(
            "FAIL: serve responses diverged from one-shot runs — see messages above"
        );
        failed = true;
    }
    if serve_speedup < SERVE_SPEEDUP_FLOOR {
        eprintln!(
            "FAIL: serve_sustained_rps {serve_speedup:.2}x over cold spawn-per-request \
             (gate: >= {SERVE_SPEEDUP_FLOOR}x)"
        );
        failed = true;
    } else {
        eprintln!(
            "serve_sustained_rps: {serve_speedup:.2}x over cold spawn-per-request \
             (gate: >= {SERVE_SPEEDUP_FLOOR}x), responses identical: {serve_identical}"
        );
    }

    if let Some(base) = base {
        let regressed = compare_baseline(&report, &base);
        if regressed.is_empty() {
            eprintln!("baseline check passed");
        } else {
            for r in &regressed {
                eprintln!("FAIL: {r}");
            }
            failed = true;
        }
    }
    cfg.finish_observers();
    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
