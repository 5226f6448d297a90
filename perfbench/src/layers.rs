//! Per-layer measurements for a traced run, taken from outside each
//! layer: by timing the benchmark's own calls into the layer's public
//! functions, and by reading the counters the program already reports.
//!
//! For single-node points the host time of `Simulation::run` per I/O is
//! split four ways. The timing wheel, the buffer cache and the storage
//! model are each timed in isolation — the wheel by a schedule/pop
//! churn, the cache and the devices by replaying the point's own
//! logical stream through them — and each isolated cost per operation is
//! multiplied by the operations per I/O the point's report counts. What
//! remains of the run time is reported as unattributed (dispatch,
//! scheduling, read-ahead bookkeeping, placement, series), so the four
//! terms sum to `iosim.run_ns_per_io` by construction.

use crate::metrics::Values;
use crate::spans::{SpanId, SpanLog};
use crate::stats::median;
use crate::workloads::{Point, PointRun};
use buffer_cache::{BlockCache, ReadOutcome, WriteOutcome};
use experiments::{Scale, StoreConfig, TraceStore};
use iosim::SimConfig;
use iotrace::{Direction, FrameFile, IoEvent};
use sim_core::{EventQueue, SimDuration, SimTime};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use storage_model::{AccessKind, AnyDevice, BlockDevice};
use workload::AppKind;

/// Repetitions of each isolated measurement; the median is kept.
const REPS: usize = 3;

/// Events in flight during the wheel churn: about what a single-node
/// point holds (a slice per running process, an I/O completion per
/// blocked one, a flush per busy disk, the flush timer).
const WHEEL_IN_FLIGHT: u64 = 16;

/// Schedules (each followed by a pop once the wheel is full) per churn.
const WHEEL_SCHEDULES: u64 = 2_000_000;

/// Per-I/O quantities of one point.
#[derive(Debug, Default, Clone)]
struct PointLayers {
    build_us: f64,
    run_ns_per_io: f64,
    serialize_us: f64,
    context_switches_per_io: f64,
    sync_blocks_per_io: f64,
    wheel_ops_per_io: f64,
    cascades_per_io: f64,
    overflow_per_io: f64,
    blocks_per_io: f64,
    hit_ratio: f64,
    dirty_evictions_per_io: f64,
    flush_batches_per_io: f64,
    unhinted_probe_ratio: f64,
    cache_calls_per_io: f64,
    cache_ns_per_call: f64,
    replay_hit_ratio: f64,
    accesses_per_io: f64,
    seek_ratio: f64,
    queue_wait_share: f64,
    tier_promotions_per_io: f64,
    storage_ns_per_access: f64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn median_duration(d: &[Duration]) -> Duration {
    let mut d = d.to_vec();
    d.sort();
    d[d.len() / 2]
}

/// The iosim, sim_core, buffer_cache and storage layers of `points`,
/// each reported as the median over points. The points run against
/// `store`, the workload's own; the replays read resident copies of the
/// same traces.
pub fn single_node(points: &[Point], store: &TraceStore, spans: &SpanLog) -> Values {
    let resident = TraceStore::new();
    let per_point: Vec<PointLayers> = points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            spans.scope("layers.point", SpanId::NONE, i as u64, |span| {
                point_layers(p, store, &resident, spans, span, i as u64)
            })
        })
        .collect();
    let wheel_ns_per_op = spans.scope("layers.wheel_churn", SpanId::NONE, 0, |_| wheel_ns_per_op());

    let p50 =
        |f: &dyn Fn(&PointLayers) -> f64| median(&per_point.iter().map(f).collect::<Vec<_>>());
    let run = p50(&|p| p.run_ns_per_io);
    let wheel = p50(&|p| p.wheel_ops_per_io * wheel_ns_per_op);
    let cache = p50(&|p| p.cache_calls_per_io * p.cache_ns_per_call);
    let storage = p50(&|p| p.accesses_per_io * p.storage_ns_per_access);

    let mut v = Values::default();
    v.set("iosim.build_us", p50(&|p| p.build_us));
    v.set("iosim.run_ns_per_io", run);
    v.set(
        "iosim.unattributed_ns_per_io",
        run - wheel - cache - storage,
    );
    v.set("iosim.report_serialize_us", p50(&|p| p.serialize_us));
    v.set(
        "iosim.context_switches_per_io",
        p50(&|p| p.context_switches_per_io),
    );
    v.set("iosim.sync_blocks_per_io", p50(&|p| p.sync_blocks_per_io));
    v.set("sim_core.wheel_ops_per_io", p50(&|p| p.wheel_ops_per_io));
    v.set("sim_core.cascades_per_io", p50(&|p| p.cascades_per_io));
    v.set("sim_core.overflow_per_io", p50(&|p| p.overflow_per_io));
    v.set("sim_core.wheel_ns_per_op", wheel_ns_per_op);
    v.set("sim_core.wheel_ns_per_io", wheel);
    v.set("buffer_cache.blocks_per_io", p50(&|p| p.blocks_per_io));
    v.set("buffer_cache.hit_ratio", p50(&|p| p.hit_ratio));
    v.set(
        "buffer_cache.dirty_evictions_per_io",
        p50(&|p| p.dirty_evictions_per_io),
    );
    v.set(
        "buffer_cache.flush_batches_per_io",
        p50(&|p| p.flush_batches_per_io),
    );
    v.set(
        "buffer_cache.unhinted_probe_ratio",
        p50(&|p| p.unhinted_probe_ratio),
    );
    v.set("buffer_cache.ns_per_call", p50(&|p| p.cache_ns_per_call));
    v.set(
        "buffer_cache.replay_hit_ratio",
        p50(&|p| p.replay_hit_ratio),
    );
    v.set("buffer_cache.ns_per_io", cache);
    v.set("storage.accesses_per_io", p50(&|p| p.accesses_per_io));
    v.set("storage.seek_ratio", p50(&|p| p.seek_ratio));
    v.set("storage.queue_wait_share", p50(&|p| p.queue_wait_share));
    v.set(
        "storage.tier_promotions_per_io",
        p50(&|p| p.tier_promotions_per_io),
    );
    v.set("storage.ns_per_access", p50(&|p| p.storage_ns_per_access));
    v.set("storage.ns_per_io", storage);
    v
}

fn point_layers(
    p: &Point,
    store: &TraceStore,
    resident: &TraceStore,
    spans: &SpanLog,
    span: SpanId,
    id: u64,
) -> PointLayers {
    let runs: Vec<PointRun> = (0..REPS).map(|_| p.run(store, spans, span, id)).collect();
    let r = &runs[0].report;
    let ios = runs[0].ios().max(1);
    let per_io = |n: u64| n as f64 / ios as f64;
    let step = |f: &dyn Fn(&PointRun) -> Duration| {
        median_duration(&runs.iter().map(f).collect::<Vec<_>>())
    };

    let events = logical_stream(p, resident);
    let mut replays: Vec<CacheReplay> = (0..REPS)
        .map(|_| {
            spans.scope("layers.cache_replay", span, id, |_| {
                cache_replay(&p.config, &events)
            })
        })
        .collect();
    let cache_time = median_duration(&replays.iter().map(|c| c.elapsed).collect::<Vec<_>>());
    let replay = replays.swap_remove(0);
    let storage_time = median_duration(
        &(0..REPS)
            .map(|_| {
                spans.scope("layers.storage_replay", span, id, |_| {
                    storage_replay(&p.config, &replay.ops)
                })
            })
            .collect::<Vec<_>>(),
    );

    let (o, c, d) = (&r.obs, &r.cache, &r.disk_totals);
    let q = &o.timing_wheel;
    PointLayers {
        build_us: step(&|r| r.build).as_secs_f64() * 1e6,
        run_ns_per_io: step(&|r| r.run).as_secs_f64() * 1e9 / ios as f64,
        serialize_us: step(&|r| r.serialize).as_secs_f64() * 1e6,
        context_switches_per_io: per_io(o.scheduler.context_switches),
        sync_blocks_per_io: per_io(o.scheduler.sync_blocks),
        wheel_ops_per_io: per_io(q.inserts + q.pops),
        cascades_per_io: per_io(q.cascades),
        overflow_per_io: per_io(q.overflow_spills),
        blocks_per_io: per_io(c.accessed_blocks),
        hit_ratio: ratio(c.hit_blocks, c.accessed_blocks),
        dirty_evictions_per_io: per_io(c.dirty_evictions),
        flush_batches_per_io: per_io(o.cache.flush_batches),
        unhinted_probe_ratio: ratio(
            o.cache.unhinted_index_probes,
            o.cache.hinted_index_probes + o.cache.unhinted_index_probes,
        ),
        cache_calls_per_io: per_io(c.read_calls + c.write_calls + o.cache.flush_batches),
        cache_ns_per_call: cache_time.as_secs_f64() * 1e9 / replay.calls.max(1) as f64,
        replay_hit_ratio: ratio(replay.hits, replay.accessed),
        accesses_per_io: per_io(d.total_requests()),
        seek_ratio: ratio(o.disks.seeks, o.disks.seeks + o.disks.sequential_accesses),
        queue_wait_share: ratio(d.queue_wait.ticks(), d.busy.ticks() + d.queue_wait.ticks()),
        tier_promotions_per_io: per_io(o.disks.tier_promotions),
        storage_ns_per_access: storage_time.as_secs_f64() * 1e9 / replay.ops.len().max(1) as f64,
    }
}

/// Every process's events as the engine replays them (file ids
/// namespaced `pid << 16`), merged by issue time.
fn logical_stream(p: &Point, store: &TraceStore) -> Vec<IoEvent> {
    let mut events: Vec<IoEvent> = p
        .procs
        .iter()
        .flat_map(|q| {
            store
                .events(q.kind, q.pid, q.seed, p.scale)
                .iter()
                .map(move |e| IoEvent {
                    file_id: e.file_id | q.pid << 16,
                    process_id: q.pid,
                    ..*e
                })
                .collect::<Vec<_>>()
        })
        .collect();
    events.sort_by_key(|e| e.start);
    events
}

/// One device request the cache replay implied.
#[derive(Debug, Clone, Copy)]
struct DevOp {
    now: SimTime,
    kind: AccessKind,
    file: u32,
    offset: u64,
    length: u64,
}

struct CacheReplay {
    elapsed: Duration,
    calls: u64,
    hits: u64,
    accessed: u64,
    ops: Vec<DevOp>,
}

/// Replay a logical stream through a fresh cache of the point's
/// configuration, draining flushable dirty data after every write as
/// the engine's flushers do, and collect the device requests implied.
fn cache_replay(config: &SimConfig, events: &[IoEvent]) -> CacheReplay {
    let mut cache = BlockCache::new(config.cache.clone().expect("benchmark points are cached"));
    let mut read = ReadOutcome::default();
    let mut write = WriteOutcome::default();
    let mut batch = Vec::new();
    let mut ops = Vec::with_capacity(events.len() * 4);
    let mut calls = 0u64;
    let op = |now, kind, r: &buffer_cache::ByteRange| DevOp {
        now,
        kind,
        file: r.file_id,
        offset: r.offset,
        length: r.length,
    };
    let t = Instant::now();
    for e in events {
        let now = e.start;
        calls += 1;
        match e.dir {
            Direction::Read => {
                cache.read_into(now, e.process_id, e.file_id, e.offset, e.length, &mut read);
                ops.extend(
                    read.writebacks
                        .iter()
                        .map(|r| op(now, AccessKind::Write, r)),
                );
                ops.extend(
                    read.fetches
                        .iter()
                        .chain(&read.prefetch)
                        .map(|r| op(now, AccessKind::Read, r)),
                );
            }
            Direction::Write => {
                cache.write_into(now, e.process_id, e.file_id, e.offset, e.length, &mut write);
                ops.extend(
                    write
                        .writebacks
                        .iter()
                        .chain(&write.write_through)
                        .map(|r| op(now, AccessKind::Write, r)),
                );
                while cache.has_flushable(now) {
                    batch.clear();
                    cache.take_flush_batch_into(now, config.flush_batch, &mut batch);
                    calls += 1;
                    if batch.is_empty() {
                        break;
                    }
                    ops.extend(batch.iter().map(|r| op(now, AccessKind::Write, r)));
                }
            }
        }
    }
    let elapsed = t.elapsed();
    let s = cache.stats();
    CacheReplay {
        elapsed,
        calls,
        hits: s.hit_blocks,
        accessed: s.accessed_blocks,
        ops,
    }
}

/// Replay device requests through a fresh farm of the point's devices,
/// placed as the engine places files (round-robin disks, 256 MB slots
/// wrapping at the device capacity). Only the `access` calls are timed.
fn storage_replay(config: &SimConfig, ops: &[DevOp]) -> Duration {
    const SLOT: u64 = 256 * 1024 * 1024;
    let n = config.n_disks;
    let cap = config.device_capacity();
    let slots_per_disk = (cap / SLOT).max(1);
    let mut next_slot = vec![0u64; n];
    let mut placement: HashMap<u32, (usize, u64)> = HashMap::new();
    let requests: Vec<(usize, SimTime, AccessKind, u64, u64)> = ops
        .iter()
        .map(|o| {
            let (disk, base) = *placement.entry(o.file).or_insert_with(|| {
                let disk = o.file as usize % n;
                let base = (next_slot[disk] % slots_per_disk) * SLOT;
                next_slot[disk] += 1;
                (disk, base)
            });
            let addr = base + o.offset;
            let addr = if addr.saturating_add(o.length) > cap {
                addr % cap.saturating_sub(o.length).max(1)
            } else {
                addr
            };
            (disk, o.now, o.kind, addr, o.length)
        })
        .collect();
    let mut devices: Vec<AnyDevice> = (0..n).map(|i| config.build_device(i)).collect();
    let t = Instant::now();
    for &(disk, now, kind, addr, length) in &requests {
        black_box(devices[disk].access(now, kind, addr, length));
    }
    t.elapsed()
}

/// Host ns per timing-wheel operation (a schedule or a pop) under the
/// simulator's delta mix — mostly slice and I/O completions within
/// milliseconds, one in ~1000 the 30-second flush timer — holding
/// [`WHEEL_IN_FLIGHT`] events.
fn wheel_ns_per_op() -> f64 {
    let deltas = [
        100u64, 250, 1_000, 1_500, 4_000, 10_000, 100_000, 500_000, 3_000_000,
    ];
    let once = || {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut ops = 0u64;
        let t = Instant::now();
        for i in 0..WHEEL_SCHEDULES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let delta = if x.is_multiple_of(997) {
                3_000_000_000
            } else {
                deltas[(x % deltas.len() as u64) as usize]
            };
            q.schedule(q.now() + SimDuration::from_ticks(delta), i as u32);
            ops += 1;
            if q.len() as u64 > WHEEL_IN_FLIGHT {
                black_box(q.pop());
                ops += 1;
            }
        }
        while black_box(q.pop()).is_some() {
            ops += 1;
        }
        t.elapsed().as_secs_f64() * 1e9 / ops as f64
    };
    median(&(0..REPS).map(|_| once()).collect::<Vec<_>>())
}

/// The trace_store and iotrace layers over the workload's traces:
/// generation per event (a plain store's `events`), the extra cost per
/// event of generating into a spilling store (`feed` with a memory
/// budget and spill directory under `dir`), and the frame files' decode
/// cost and size per event.
pub fn traces(keys: &[(AppKind, u32, u64, Scale)], dir: &Path, spans: &SpanLog) -> Values {
    let mut gen = Vec::new();
    let mut spill = Vec::new();
    let mut decode = Vec::new();
    let mut events = 0u64;
    let mut wire_bytes = 0u64;
    for rep in 0..REPS {
        let plain = TraceStore::new();
        let t = Instant::now();
        events = spans.scope("layers.trace_gen", SpanId::NONE, rep as u64, |_| {
            keys.iter()
                .map(|&(k, pid, seed, scale)| plain.events(k, pid, seed, scale).len() as u64)
                .sum()
        });
        gen.push(t.elapsed().as_secs_f64());

        let spill_dir = dir.join(format!("layers-spill{rep}"));
        let _ = std::fs::remove_dir_all(&spill_dir);
        let spilling = TraceStore::with_config(StoreConfig {
            mem_budget: Some(1),
            spill_dir: Some(spill_dir.clone()),
        });
        let t = Instant::now();
        spans.scope("layers.trace_spill", SpanId::NONE, rep as u64, |_| {
            for &(k, pid, seed, scale) in keys {
                drop(spilling.feed(k, pid, seed, scale));
            }
        });
        spill.push(t.elapsed().as_secs_f64());

        let paths: Vec<_> = keys
            .iter()
            .map(|&(k, pid, seed, scale)| {
                spilling
                    .export_frame(k, pid, seed, scale)
                    .expect("spilled trace has a frame file")
            })
            .collect();
        wire_bytes = paths
            .iter()
            .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
            .sum();
        let files: Vec<FrameFile> = paths
            .iter()
            .map(|p| FrameFile::open(p).expect("spilled frame file opens"))
            .collect();
        let t = Instant::now();
        spans.scope("layers.frame_decode", SpanId::NONE, rep as u64, |_| {
            for f in &files {
                let mut cursor = f.cursor();
                while let Some(e) = cursor.next().expect("spilled frame file decodes") {
                    black_box(e.length);
                }
            }
        });
        decode.push(t.elapsed().as_secs_f64());
        drop(files);
        drop(spilling);
        let _ = std::fs::remove_dir_all(&spill_dir);
    }
    let per_event = |s: f64| s * 1e9 / events.max(1) as f64;
    let gen_ns = per_event(median(&gen));
    let mut v = Values::default();
    v.set("trace_store.gen_ns_per_event", gen_ns);
    v.set(
        "trace_store.spill_ns_per_event",
        per_event(median(&spill)) - gen_ns,
    );
    v.set("iotrace.decode_ns_per_event", per_event(median(&decode)));
    v.set(
        "iotrace.wire_bytes_per_event",
        wire_bytes as f64 / events.max(1) as f64,
    );
    v
}

/// The obs layer: `pairs` sweeps over `points` with span recording off,
/// interleaved with as many with it on, and the share of span events
/// the flight recorder dropped.
pub fn obs_overhead(points: &[Point], store: &TraceStore, spans: &SpanLog, pairs: usize) -> Values {
    let quiet = SpanLog::new(false);
    let sweep = |on: bool| {
        obs::set_enabled(on);
        let t = Instant::now();
        for (i, p) in points.iter().enumerate() {
            black_box(p.run(store, &quiet, SpanId::NONE, i as u64));
        }
        t.elapsed().as_secs_f64()
    };
    obs::init(1 << 18);
    let mut off = Vec::new();
    let mut on = Vec::new();
    for i in 0..pairs {
        off.push(spans.scope("layers.obs_off", SpanId::NONE, i as u64, |_| sweep(false)));
        on.push(spans.scope("layers.obs_on", SpanId::NONE, i as u64, |_| sweep(true)));
    }
    obs::set_enabled(false);
    let s = obs::summary();
    let mut v = Values::default();
    v.set(
        "obs.spans_on_overhead_pct",
        (median(&on) / median(&off) - 1.0) * 100.0,
    );
    v.set(
        "obs.dropped_ratio",
        ratio(s.dropped, s.recorded + s.dropped),
    );
    v
}

/// Zeros for the counts and ratios of layers a workload bypasses.
pub fn bypassed(names: &[&'static str]) -> Values {
    let mut v = Values::default();
    for &name in names {
        v.set(name, 0.0);
    }
    v
}

/// The sharded engine's counts.
pub const SHARDED: [&str; 2] = ["sharded.epochs_per_mio", "sharded.remote_ops_per_kio"];

/// The serving layer's ratios.
pub const SERVE: [&str; 4] = [
    "serve.cache_hit_ratio",
    "serve.executions_per_req",
    "serve.queue_wait_share",
    "serve.protocol_share",
];
