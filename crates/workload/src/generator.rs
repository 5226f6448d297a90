//! Turns an [`AppSpec`] into a logical I/O trace.
//!
//! The generator maintains two clocks: the **wall clock** (trace `start`
//! times; advances through compute *and* I/O completions for synchronous
//! apps) and the **process CPU clock** (trace `processTime` deltas;
//! advances only through compute) — mirroring §4.1's three-timestamp
//! scheme. Offsets advance sequentially per file with wraparound, which
//! is how forma re-reads its array multiple times per cycle and how every
//! app reproduces "essentially identical" per-cycle reference patterns
//! (§5.3).
//!
//! One walk over the spec emits the records into a [`Sink`]. Which
//! requests a spec makes never depends on the clocks, so a counting pass
//! that skips them, and counts whole runs of chunks at a time, sizes the
//! event slice [`generate_parts`] fills in a second, timed pass: each
//! trace is allocated once, at its exact size.

use crate::spec::{AppSpec, SweepOrder};
use iotrace::{Direction, IoEvent, Synchrony, Trace};
use sim_core::{SimDuration, SimRng, SimTime};
use std::mem::MaybeUninit;
use std::sync::Arc;

/// Wall-clock cost of *issuing* an asynchronous request (the process does
/// not wait for the data; les's pattern).
const ASYNC_ISSUE: SimDuration = SimDuration::from_micros(200);

/// Comment records as `(index of the event each precedes, text)`.
pub type Comments = Vec<(usize, String)>;

/// Where one generation pass puts the records it emits.
trait Sink {
    /// Whether the pass wants times and comments. A counting pass does
    /// not, and skips the clocks and their random draws.
    const TIMED: bool;
    fn event(&mut self, ev: IoEvent);
    fn comment(&mut self, text: String);
}

/// The counting pass: it keeps nothing.
struct Count;

impl Sink for Count {
    const TIMED: bool = false;

    fn event(&mut self, _: IoEvent) {}

    fn comment(&mut self, _: String) {}
}

impl Sink for Trace {
    const TIMED: bool = true;

    fn event(&mut self, ev: IoEvent) {
        self.push(ev);
    }

    fn comment(&mut self, text: String) {
        self.push_comment(text);
    }
}

/// Fills a slice sized by a [`Count`] pass, in order.
struct Fill<'a> {
    slots: std::slice::IterMut<'a, MaybeUninit<IoEvent>>,
    written: usize,
    comments: Comments,
}

impl Sink for Fill<'_> {
    const TIMED: bool = true;

    fn event(&mut self, ev: IoEvent) {
        self.slots.next().expect("the counting pass sized the slice").write(ev);
        self.written += 1;
    }

    fn comment(&mut self, text: String) {
        self.comments.push((self.written, text));
    }
}

struct Cursors {
    /// (file index, intra-file offset) for the concatenated sequential
    /// walk used by reads.
    read: (usize, u64),
    /// Ditto for writes.
    write: (usize, u64),
    /// Per-file cursors for the interleaved order.
    per_file_read: Vec<u64>,
    per_file_write: Vec<u64>,
    /// Rotation indices for interleaved order.
    rot_read: usize,
    rot_write: usize,
}

/// One generation pass: the spec, its clocks and cursors, and the sink.
struct Gen<'a, S> {
    spec: &'a AppSpec,
    rng: SimRng,
    wall: SimTime,
    cpu_since_io: SimDuration,
    cpu_total: SimDuration,
    /// Events emitted so far.
    events: usize,
    /// The last request length and its completion time: requests within
    /// a stream share one size (§5.2), so this spares most conversions.
    completion: (u64, SimDuration),
    sink: S,
}

/// Generate the complete logical trace for `spec`, deterministically from
/// `seed`.
pub fn generate(spec: &AppSpec, seed: u64) -> Trace {
    walk(spec, seed, Trace::new()).0
}

/// [`generate`] as its parts: the events, in one slice allocated once at
/// its exact size, and the comments. The trace store keeps these.
pub fn generate_parts(spec: &AppSpec, seed: u64) -> (Arc<[IoEvent]>, Comments) {
    let n = walk(spec, seed, Count).1;
    let mut events = Arc::<[IoEvent]>::new_uninit_slice(n);
    let comments = {
        let slots = Arc::get_mut(&mut events).expect("a new slice is unshared");
        let fill = Fill { slots: slots.iter_mut(), written: 0, comments: Vec::new() };
        let (fill, _) = walk(spec, seed, fill);
        assert_eq!(fill.written, n, "both passes emit the same events");
        fill.comments
    };
    // SAFETY: the fill pass wrote each of the `n` slots, in order, once.
    (unsafe { events.assume_init() }, comments)
}

/// Walk `spec` once, emitting its records into `sink`; returns the sink
/// and how many events went into it.
fn walk<S: Sink>(spec: &AppSpec, seed: u64, sink: S) -> (S, usize) {
    spec.validate();
    let mut g = Gen {
        spec,
        rng: SimRng::new(seed ^ spec.pid as u64),
        wall: SimTime::ZERO,
        cpu_since_io: SimDuration::ZERO,
        cpu_total: SimDuration::ZERO,
        events: 0,
        completion: (0, spec.latency.completion(0)),
        sink,
    };
    if S::TIMED {
        g.sink.comment(format!("app {} pid {} seed {seed}", spec.name, spec.pid));
        for f in &spec.files {
            g.sink.comment(format!("fileId {} = {} ({} bytes)", f.id, f.name, f.size));
        }
    }
    let mut cursors = Cursors {
        read: (0, 0),
        write: (0, 0),
        per_file_read: vec![0; spec.files.len()],
        per_file_write: vec![0; spec.files.len()],
        rot_read: 0,
        rot_write: 0,
    };

    // --- CPU budget ---------------------------------------------------
    let total = spec.cpu_time;
    let has_init = spec.init_read.0 > 0;
    let has_final = spec.final_write.0 > 0;
    let init_cpu = if has_init { total / 100 } else { SimDuration::ZERO };
    let final_cpu = if has_final { total / 100 } else { SimDuration::ZERO };
    let body_cpu = total - init_cpu - final_cpu;

    // --- compulsory startup read (§5.1 "required" I/O) ------------------
    if has_init {
        let (bytes, io, file) = spec.init_read;
        let n = chunk_count(bytes, io);
        let per_io = init_cpu / n.max(1);
        g.emit_stream(Direction::Read, file, bytes, io, per_io, &mut 0);
    }

    // --- iterative body --------------------------------------------------
    if spec.cycles > 0 {
        let per_cycle = body_cpu / spec.cycles as u64;
        let sweep_cpu =
            SimDuration::from_ticks((per_cycle.ticks() as f64 * spec.cycle.sweep_cpu_frac) as u64);
        let gap_cpu = per_cycle - sweep_cpu;
        let n_r = chunk_count(spec.cycle.read_bytes, spec.cycle.read_io);
        let n_w = chunk_count(spec.cycle.write_bytes, spec.cycle.write_io);
        let per_io_cpu = sweep_cpu / (n_r + n_w).max(1);

        for cycle in 0..spec.cycles {
            g.compute(gap_cpu / 2);
            match spec.cycle.order {
                SweepOrder::Sequential => {
                    let c = &spec.cycle;
                    g.sweep_sequential(Direction::Read, c.read_bytes, c.read_io, per_io_cpu, &mut cursors);
                    g.compute(gap_cpu / 2);
                    g.sweep_sequential(Direction::Write, c.write_bytes, c.write_io, per_io_cpu, &mut cursors);
                }
                SweepOrder::Interleaved => {
                    g.sweep_interleaved(per_io_cpu, &mut cursors);
                    g.compute(gap_cpu / 2);
                }
            }
            // --- checkpoint (§5.1, second I/O type) ----------------------
            if let Some(ck) = &spec.checkpoint {
                if ck.every_cycles > 0 && (cycle + 1) % ck.every_cycles == 0 {
                    let cpu = SimDuration::from_micros(100);
                    g.emit_stream(Direction::Write, ck.file_id, ck.bytes, ck.io_size, cpu, &mut 0);
                }
            }
        }
    } else {
        // Compulsory-only programs: one long compute (gcm, upw).
        g.compute(body_cpu);
    }

    // --- compulsory final write -----------------------------------------
    if has_final {
        let (bytes, io, file) = spec.final_write;
        let n = chunk_count(bytes, io);
        let per_io = final_cpu / n.max(1);
        g.emit_stream(Direction::Write, file, bytes, io, per_io, &mut 0);
    }

    if S::TIMED {
        g.sink.comment(format!(
            "end of {}: cpu {:.2}s wall {:.2}s ios {}",
            spec.name,
            g.cpu_total.as_secs_f64(),
            g.wall.as_secs_f64(),
            g.events
        ));
    }
    (g.sink, g.events)
}

/// `x.round() as u64` for `x >= 0`, without the libm call `round` is on
/// targets whose baseline has no rounding instruction: the fractional
/// part of a double is exact, so half-way cases round up, as `round`
/// rounds them away from zero.
fn round_ticks(x: f64) -> u64 {
    let whole = x as u64;
    whole + u64::from(x - whole as f64 >= 0.5)
}

fn chunk_count(bytes: u64, io: u64) -> u64 {
    if bytes == 0 || io == 0 {
        0
    } else {
        bytes.div_ceil(io)
    }
}

impl<S: Sink> Gen<'_, S> {
    fn compute(&mut self, d: SimDuration) {
        if !S::TIMED || d.is_zero() {
            return;
        }
        let jitter = self.rng.jitter(d.ticks() as f64, self.spec.compute_jitter);
        let jittered = SimDuration::from_ticks(round_ticks(jitter));
        self.wall += jittered;
        self.cpu_since_io += jittered;
        self.cpu_total += jittered;
    }

    fn emit(&mut self, dir: Direction, file_id: u32, offset: u64, length: u64) {
        self.events += 1;
        let spec = self.spec;
        if self.completion.0 != length {
            self.completion = (length, spec.latency.completion(length));
        }
        let completion = self.completion.1;
        let mut ev =
            IoEvent::logical(dir, spec.pid, file_id, offset, length, self.wall, self.cpu_since_io);
        ev.sync = spec.sync;
        ev.completion = completion;
        self.sink.event(ev);
        self.cpu_since_io = SimDuration::ZERO;
        // Synchronous apps stall on the wall clock for the completion;
        // asynchronous ones (les) pay only the issue cost.
        self.wall += match spec.sync {
            Synchrony::Sync => completion,
            Synchrony::Async => ASYNC_ISSUE,
        };
    }

    /// Emit a sequential run of `bytes` in `io`-sized chunks against a
    /// single file, wrapping at its size; used for compulsory and
    /// checkpoint phases.
    fn emit_stream(
        &mut self,
        dir: Direction,
        file_id: u32,
        bytes: u64,
        io: u64,
        per_io_cpu: SimDuration,
        cursor: &mut u64,
    ) {
        if !S::TIMED {
            self.events += chunk_count(bytes, io) as usize;
            return;
        }
        let size = self
            .spec
            .files
            .iter()
            .find(|f| f.id == file_id)
            .map(|f| f.size)
            .unwrap_or(u64::MAX);
        let mut remaining = bytes;
        while remaining > 0 {
            let len = remaining.min(io);
            if *cursor + len > size {
                *cursor = 0;
            }
            self.compute(per_io_cpu);
            self.emit(dir, file_id, *cursor, len);
            *cursor += len;
            remaining -= len;
        }
    }

    /// Walk the concatenation of all data files sequentially (file 0,
    /// then file 1, …, wrapping to file 0), emitting `bytes` in `io`
    /// chunks.
    fn sweep_sequential(
        &mut self,
        dir: Direction,
        bytes: u64,
        io: u64,
        per_io_cpu: SimDuration,
        cursors: &mut Cursors,
    ) {
        let files = &self.spec.files[..];
        let cur = if dir == Direction::Read { &mut cursors.read } else { &mut cursors.write };
        let mut remaining = bytes;
        while remaining > 0 {
            let file = &files[cur.0 % files.len()];
            let room = file.size.saturating_sub(cur.1);
            if room == 0 {
                cur.0 = (cur.0 + 1) % files.len();
                cur.1 = 0;
                continue;
            }
            if !S::TIMED {
                // The chunks up to the end of the file or of the sweep.
                let take = remaining.min(room);
                self.events += take.div_ceil(io) as usize;
                cur.1 += take;
                remaining -= take;
                continue;
            }
            let len = remaining.min(io).min(room);
            self.compute(per_io_cpu);
            self.emit(dir, file.id, cur.1, len);
            cur.1 += len;
            remaining -= len;
        }
    }

    /// venus's pattern: reads and writes interleaved across files in
    /// short *runs* of consecutive chunks. Runs keep each file's stream
    /// sequential (the property §4.2 relies on for compression) while the
    /// request mix rotates across all six staging files within every
    /// cycle.
    fn sweep_interleaved(&mut self, per_io_cpu: SimDuration, cursors: &mut Cursors) {
        let spec = self.spec;
        let run = spec.cycle.interleave_run.max(1) as u64;
        let n_r = chunk_count(spec.cycle.read_bytes, spec.cycle.read_io);
        let n_w = chunk_count(spec.cycle.write_bytes, spec.cycle.write_io);
        let runs_r = n_r.div_ceil(run);
        let runs_w = n_w.div_ceil(run);
        let total_runs = runs_r + runs_w;
        let mut acc_r: i64 = 0;
        let mut remaining_r = spec.cycle.read_bytes;
        let mut remaining_w = spec.cycle.write_bytes;
        for _ in 0..total_runs {
            acc_r += runs_r as i64;
            let do_read = (acc_r >= total_runs as i64 && remaining_r > 0) || remaining_w == 0;
            if acc_r >= total_runs as i64 {
                acc_r -= total_runs as i64;
            }
            let (dir, remaining, io, rot, pf) = if do_read {
                (
                    Direction::Read,
                    &mut remaining_r,
                    spec.cycle.read_io,
                    &mut cursors.rot_read,
                    &mut cursors.per_file_read,
                )
            } else {
                (
                    Direction::Write,
                    &mut remaining_w,
                    spec.cycle.write_io,
                    &mut cursors.rot_write,
                    &mut cursors.per_file_write,
                )
            };
            if *remaining == 0 {
                continue;
            }
            let fi = *rot % spec.files.len();
            *rot += 1;
            let file = &spec.files[fi];
            if !S::TIMED {
                // Every chunk of the run but a last short one is full.
                let full = io.min(file.size);
                let k = if full == 0 { run } else { run.min(remaining.div_ceil(full)) };
                self.events += k as usize;
                *remaining -= (*remaining).min(k * full);
                continue;
            }
            for _ in 0..run {
                if *remaining == 0 {
                    break;
                }
                let mut off = pf[fi];
                let mut len = (*remaining).min(io);
                if off + len > file.size {
                    off = 0;
                }
                len = len.min(file.size);
                self.compute(per_io_cpu);
                self.emit(dir, file.id, off, len);
                pf[fi] = off + len;
                *remaining -= len;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CheckpointDef, CycleDef, FileDef, LatencyModel};
    use sim_core::units::{KB, MB};

    fn toy_spec(order: SweepOrder) -> AppSpec {
        AppSpec {
            name: "toy".into(),
            pid: 7,
            files: vec![
                FileDef::new(1, 4 * MB, "a"),
                FileDef::new(2, 4 * MB, "b"),
            ],
            cpu_time: SimDuration::from_secs(20),
            init_read: (MB, 128 * KB, 1),
            final_write: (MB, 128 * KB, 2),
            cycles: 10,
            cycle: CycleDef {
                read_bytes: 2 * MB,
                write_bytes: MB,
                read_io: 128 * KB,
                write_io: 128 * KB,
                order,
                interleave_run: 2,
                sweep_cpu_frac: 0.5,
            },
            checkpoint: None,
            sync: Synchrony::Sync,
            latency: LatencyModel::ymp_disk(),
            compute_jitter: 0.05,
        }
    }

    #[test]
    fn totals_match_plan() {
        let spec = toy_spec(SweepOrder::Sequential);
        let trace = generate(&spec, 1);
        let read: u64 = trace.events().filter(|e| e.dir == Direction::Read).map(|e| e.length).sum();
        let written: u64 =
            trace.events().filter(|e| e.dir == Direction::Write).map(|e| e.length).sum();
        assert_eq!(read, spec.planned_read_bytes());
        assert_eq!(written, spec.planned_write_bytes());
    }

    #[test]
    fn cpu_time_is_calibrated() {
        let spec = toy_spec(SweepOrder::Sequential);
        let trace = generate(&spec, 1);
        let cpu: u64 = trace.events().map(|e| e.process_time.ticks()).sum();
        let target = spec.cpu_time.ticks() as f64;
        assert!(
            (cpu as f64 - target).abs() / target < 0.05,
            "cpu {} vs target {}",
            cpu,
            target
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = toy_spec(SweepOrder::Interleaved);
        assert_eq!(generate(&spec, 42), generate(&spec, 42));
        assert_ne!(generate(&spec, 42), generate(&spec, 43));
    }

    #[test]
    fn start_times_are_monotonic() {
        for order in [SweepOrder::Sequential, SweepOrder::Interleaved] {
            let trace = generate(&toy_spec(order), 5);
            assert!(trace.is_time_ordered());
        }
    }

    #[test]
    fn sequential_sweeps_are_mostly_sequential() {
        let spec = toy_spec(SweepOrder::Sequential);
        let trace = generate(&spec, 2);
        let events: Vec<_> = trace.events().cloned().collect();
        let mut seq = 0;
        let mut total = 0;
        for w in events.windows(2) {
            if w[0].dir == w[1].dir {
                total += 1;
                if w[0].is_sequential_with(&w[1]) {
                    seq += 1;
                }
            }
        }
        assert!(
            seq as f64 / total as f64 > 0.8,
            "sequentiality {seq}/{total} too low"
        );
    }

    #[test]
    fn interleaved_rotates_files() {
        let spec = toy_spec(SweepOrder::Interleaved);
        let trace = generate(&spec, 3);
        // Within a window of consecutive reads, both files should appear.
        let reads: Vec<u32> = trace
            .events()
            .filter(|e| e.dir == Direction::Read)
            .map(|e| e.file_id)
            .collect();
        let flips = reads.windows(2).filter(|w| w[0] != w[1]).count();
        // With a run length of 2, roughly every other read pair switches
        // files.
        assert!(
            flips * 3 > reads.len(),
            "interleaved order should rotate files often: {flips}/{}",
            reads.len()
        );
        let distinct: std::collections::HashSet<u32> = reads.iter().copied().collect();
        assert_eq!(distinct.len(), 2, "both files must participate");
    }

    #[test]
    fn request_sizes_are_constant_within_direction() {
        let spec = toy_spec(SweepOrder::Sequential);
        let trace = generate(&spec, 4);
        let mut sizes: Vec<u64> = trace
            .events()
            .filter(|e| e.dir == Direction::Read && e.length == 128 * KB)
            .map(|e| e.length)
            .collect();
        sizes.dedup();
        // §5.2: "each program had a typical I/O request size which stayed
        // constant": the dominant size is the configured one.
        let dominant = trace.events().filter(|e| e.length == 128 * KB).count();
        assert!(dominant as f64 / trace.io_count() as f64 > 0.9);
    }

    #[test]
    fn checkpoints_appear_at_configured_cadence() {
        // The checkpoint file is *not* part of the data-file list: data
        // sweeps must never walk it.
        let mut spec = toy_spec(SweepOrder::Sequential);
        spec.checkpoint = Some(CheckpointDef {
            bytes: MB,
            io_size: 512 * KB,
            every_cycles: 5,
            file_id: 50,
        });
        let trace = generate(&spec, 6);
        let ckpt_bytes: u64 =
            trace.events().filter(|e| e.file_id == 50).map(|e| e.length).sum();
        assert_eq!(ckpt_bytes, 2 * MB, "10 cycles / every 5 = 2 checkpoints");
    }

    #[test]
    fn compulsory_only_app_has_two_bursts() {
        let mut spec = toy_spec(SweepOrder::Sequential);
        spec.cycles = 0;
        let trace = generate(&spec, 7);
        let reads = trace.events().filter(|e| e.dir == Direction::Read).count();
        let writes = trace.events().filter(|e| e.dir == Direction::Write).count();
        assert_eq!(reads, 8); // 1 MB / 128 KB
        assert_eq!(writes, 8);
        // All reads come before all writes.
        let first_write = trace
            .events()
            .position(|_| false)
            .unwrap_or_else(|| {
                trace
                    .events()
                    .enumerate()
                    .find(|(_, e)| e.dir == Direction::Write)
                    .map(|(i, _)| i)
                    .unwrap()
            });
        let last_read = trace
            .events()
            .enumerate()
            .filter(|(_, e)| e.dir == Direction::Read)
            .map(|(i, _)| i)
            .max()
            .unwrap();
        assert!(last_read < first_write);
    }

    #[test]
    fn async_app_does_not_stall_wall_clock() {
        let mut sync_spec = toy_spec(SweepOrder::Sequential);
        let mut async_spec = toy_spec(SweepOrder::Sequential);
        sync_spec.sync = Synchrony::Sync;
        async_spec.sync = Synchrony::Async;
        let sync_trace = generate(&sync_spec, 8);
        let async_trace = generate(&async_spec, 8);
        let sync_wall = sync_trace.last_end().unwrap();
        let async_wall = async_trace.last_end().unwrap();
        assert!(
            async_wall < sync_wall,
            "async app should finish sooner: {async_wall} vs {sync_wall}"
        );
    }

    #[test]
    fn offsets_stay_within_file_bounds() {
        for order in [SweepOrder::Sequential, SweepOrder::Interleaved] {
            let spec = toy_spec(order);
            let trace = generate(&spec, 9);
            for e in trace.events() {
                let f = spec.files.iter().find(|f| f.id == e.file_id).unwrap();
                assert!(
                    e.end_offset() <= f.size,
                    "event at {}+{} overruns file {} of size {}",
                    e.offset,
                    e.length,
                    e.file_id,
                    f.size
                );
            }
        }
    }

    #[test]
    fn parts_reassemble_the_trace() {
        let mut specs: Vec<AppSpec> = crate::ALL_APPS.iter().map(|k| k.spec(3)).collect();
        let mut ckpt = toy_spec(SweepOrder::Sequential);
        ckpt.checkpoint =
            Some(CheckpointDef { bytes: MB, io_size: 384 * KB, every_cycles: 3, file_id: 50 });
        // Chunks larger than a file and sweeps ending mid-file.
        ckpt.files[1].size = 200 * KB;
        ckpt.cycle.read_bytes = 3 * MB + 5 * KB;
        specs.push(ckpt);
        let mut inter = toy_spec(SweepOrder::Interleaved);
        inter.cycle.interleave_run = 3;
        inter.files[0].size = 100 * KB;
        specs.push(inter);
        for spec in &specs {
            let trace = generate(spec, 11);
            let (events, comments) = generate_parts(spec, 11);
            let mut rebuilt = Trace::new();
            let mut comments = comments.into_iter().peekable();
            for (i, e) in events.iter().enumerate() {
                while let Some((_, text)) = comments.next_if(|(at, _)| *at <= i) {
                    rebuilt.push_comment(text);
                }
                rebuilt.push(*e);
            }
            comments.for_each(|(_, text)| rebuilt.push_comment(text));
            assert_eq!(rebuilt, trace, "{}", spec.name);
        }
    }

    #[test]
    fn round_ticks_matches_round() {
        for x in [0.0, 0.49999999999999994, 0.5, 1.5, 2.5, 7.499999, 1e15 + 0.5, 9.1e15] {
            assert_eq!(round_ticks(x), x.round() as u64, "{x}");
        }
    }

    #[test]
    fn comments_identify_files() {
        let spec = toy_spec(SweepOrder::Sequential);
        let trace = generate(&spec, 10);
        let comments: Vec<&str> = trace
            .items()
            .iter()
            .filter_map(|i| match i {
                iotrace::TraceItem::Comment(c) => Some(c.as_str()),
                _ => None,
            })
            .collect();
        assert!(comments.iter().any(|c| c.contains("fileId 1")));
        assert!(comments.iter().any(|c| c.contains("end of toy")));
    }
}
