//! The discrete-event engine tying scheduler, cache, and disks together.
//!
//! Timing semantics, matching §6.1's description of the original:
//!
//! * One CPU. A dispatched process runs for `min(quantum, remaining
//!   compute)`; a context switch is charged per dispatch. When its
//!   compute gap drains, the process issues its next traced request,
//!   paying the file-system-code and interrupt-service CPU overheads.
//! * A **synchronous** request blocks the process until every implied
//!   demand device operation completes (misses, dirty-eviction
//!   writebacks, write-throughs, plus waits for still-in-flight
//!   read-ahead covering the requested blocks). **Asynchronous** requests
//!   (les) never block; their device work proceeds in the background.
//! * Read-ahead fetches and write-behind flushes run in the background.
//!   Flushing is serialized per disk — one flusher stream per spindle —
//!   which is what makes an undersized cache fill with dirty blocks and
//!   stall its writers (§6.2).
//! * Disks default to the paper's no-queueing model; per-disk FIFO
//!   queueing is available as an ablation.
//!
//! File ids are namespaced per process (`pid << 16 | file`), so two
//! copies of venus never share cached data — the paper's Figure 6–8 runs
//! use "two identical venus programs … not sharing data sets" (§6.3).

use crate::config::SimConfig;
use crate::inflight::InFlight;
use crate::metrics::{ProcessMetrics, SimReport};
use crate::process::{ProcState, ProcessFeed, ProcessState};
use buffer_cache::{BlockCache, ByteRange, ReadOutcome, WriteOutcome};
use iotrace::{Direction, IoEvent, Synchrony, Trace};
use rustc_hash::FxHashMap;
use sim_core::{EventQueue, RateSeries, SimDuration, SimTime};
use storage_model::{AccessKind, AnyDevice, BlockDevice};
use std::collections::VecDeque;

/// Why a process could not be added to a [`Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddProcessError {
    /// The pid does not fit the 16-bit namespacing width.
    PidTooWide(u32),
    /// A process with this pid is already registered.
    DuplicatePid(u32),
    /// A trace event's file id does not fit below the pid namespace bits.
    FileIdTooWide {
        /// The offending process.
        pid: u32,
        /// The out-of-range file id.
        file_id: u32,
    },
    /// The target partition does not exist (sharded runs only; see
    /// [`crate::sharded::ShardedSimulation::add_process`]).
    UnknownGroup(usize),
}

impl std::fmt::Display for AddProcessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            AddProcessError::PidTooWide(pid) => {
                write!(f, "pid {pid} exceeds the 16-bit namespacing width")
            }
            AddProcessError::DuplicatePid(pid) => write!(f, "duplicate pid {pid}"),
            AddProcessError::FileIdTooWide { pid, file_id } => {
                write!(f, "pid {pid}: file id {file_id} exceeds the 16-bit namespacing width")
            }
            AddProcessError::UnknownGroup(group) => {
                write!(f, "group {group} does not exist in this sharded simulation")
            }
        }
    }
}

impl std::error::Error for AddProcessError {}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// The running process's CPU slice ends.
    SliceDone { slot: usize },
    /// A blocked process's I/O completes.
    IoDone { slot: usize },
    /// A flusher stream finishes its current device write.
    FlushDone { disk: usize },
    /// Delayed-write aging timer.
    FlushTimer,
}

/// Raw (pre-namespacing) file ids with this bit set belong to the
/// cluster-wide **shared** namespace: in a sharded run the request is
/// routed to the owning partition instead of the local cache/disks. The
/// bit sits below the pid tag, so it survives the `pid << 16` remap.
pub const SHARED_FILE_BIT: u32 = 0x8000;

/// A cross-partition message emitted by one group's engine, serviced by
/// the sharded coordinator at the next epoch barrier.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OutMsg {
    /// A process finished; the global admission scheduler may start a
    /// parked one.
    Done,
    /// A request against a shared file, to be serviced by the owning
    /// group's disks.
    RemoteIo {
        /// Requester's process slot (for the completion callback).
        slot: usize,
        /// Shared-namespace file id (pid tag stripped).
        file_id: u32,
        offset: u64,
        length: u64,
        kind: AccessKind,
        /// Synchronous requests parked the process; it needs a
        /// [`Simulation::complete_remote`] reply.
        sync: bool,
    },
}

/// An [`OutMsg`] stamped for the deterministic cross-group merge: the
/// coordinator sorts by `(time, seq, group)`, where `seq` is this
/// engine's per-run monotonic message counter.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stamped {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) msg: OutMsg,
}

/// Per-file placement on the disk farm.
#[derive(Debug, Clone, Copy)]
struct Placement {
    disk: usize,
    base: u64,
}

/// The simulator. Construct, [`Simulation::add_process`], then
/// [`Simulation::run`].
pub struct Simulation {
    config: SimConfig,
    procs: Vec<ProcessState>,
    ready: VecDeque<usize>,
    /// CPUs currently free (the paper models 1; §2.2's n+1 experiments
    /// use more).
    free_cpus: usize,
    /// Per process slot: compute consumed by its pending SliceDone, plus
    /// whether the slice ends in an I/O issue. Indexed by slot (dense:
    /// one entry per process), set at dispatch and taken at SliceDone.
    slice_info: Vec<Option<(SimDuration, bool)>>,
    queue: EventQueue<Ev>,
    cache: Option<BlockCache>,
    disks: Vec<AnyDevice>,
    placements: FxHashMap<u32, Placement>,
    next_file_slot: Vec<u64>,
    /// How many 256 MB file slots fit on one device; placement wraps so
    /// file bases never exceed the device capacity.
    slots_per_disk: u64,
    /// Blocks fetched by read-ahead or async demand whose data is still
    /// in flight, per file.
    in_flight: InFlight,
    flush_busy: Vec<bool>,
    flush_queues: Vec<VecDeque<ByteRange>>,
    /// Running total of ranges across all `flush_queues`, maintained on
    /// push/pop so the refill loop does not re-sum every queue per
    /// iteration.
    flush_queued: usize,
    flush_timer_armed: bool,
    /// Processes in [`ProcState::Done`], maintained so the run loop's
    /// completion check is O(1) instead of a per-event scan.
    done: usize,
    /// Cache block size (or 4096 when uncached), copied out of the
    /// config so the per-request block-span math skips the Option probe.
    block_size: u64,
    /// Scratch outcomes and flush batch reused across requests; after
    /// warm-up the request path performs no heap allocation.
    read_scratch: ReadOutcome,
    write_scratch: WriteOutcome,
    flush_batch_buf: Vec<ByteRange>,
    // metrics
    busy: SimDuration,
    overhead: SimDuration,
    logical_series: RateSeries,
    disk_read_series: RateSeries,
    disk_write_series: RateSeries,
    wall_end: SimTime,
    // observability: counters are collected unconditionally (cheap,
    // deterministic); span tracks are registered only when profiling is
    // enabled and the vectors stay empty otherwise.
    sched_obs: obs::SchedCounters,
    was_idle: bool,
    proc_tracks: Vec<obs::Track>,
    disk_tracks: Vec<obs::Track>,
    // Sharded-run state. `cluster` routes shared-file requests to the
    // outbox; `halted` latches the run-loop stop condition so a chunked
    // advance stops exactly where `run` would (admissions and remote
    // completions un-latch it).
    started: bool,
    halted: bool,
    cluster: bool,
    outbox: Vec<Stamped>,
    msg_seq: u64,
    // Temporal telemetry: a deterministic periodic gauge sampler, enabled
    // by `SimConfig::timeline_ns`. Samples are taken between event
    // pops (state is constant there), never through the event queue —
    // wheel stats are part of the report, so a timer event would perturb
    // results. Boxed: ~all runs leave it `None`.
    timeline: Option<Box<obs::timeline::Timeline>>,
    /// Previous cumulative busy ticks per disk, differenced into a
    /// windowed busy fraction at each gather.
    timeline_prev_busy: Vec<u64>,
    /// Tick of the previous gather (the busy-fraction window start).
    timeline_last_gather: u64,
}

impl Simulation {
    /// Build an empty simulation for `config`.
    pub fn new(config: SimConfig) -> Simulation {
        config.validate();
        let cache = config.cache.clone().map(BlockCache::new);
        let block_size = cache.as_ref().map(|c| c.config().block_size).unwrap_or(4096);
        let disks = (0..config.n_disks).map(|i| config.build_device(i)).collect();
        let slots_per_disk = (config.device_capacity() / (256 * sim_core::units::MB)).max(1);
        Simulation {
            cache,
            disks,
            slots_per_disk,
            procs: Vec::new(),
            ready: VecDeque::new(),
            free_cpus: config.n_cpus,
            slice_info: Vec::new(),
            queue: EventQueue::new(),
            placements: FxHashMap::default(),
            next_file_slot: vec![0; config.n_disks],
            in_flight: InFlight::default(),
            flush_busy: vec![false; config.n_disks],
            flush_queues: (0..config.n_disks).map(|_| VecDeque::new()).collect(),
            flush_queued: 0,
            flush_timer_armed: false,
            done: 0,
            block_size,
            read_scratch: ReadOutcome::default(),
            write_scratch: WriteOutcome::default(),
            flush_batch_buf: Vec::new(),
            busy: SimDuration::ZERO,
            overhead: SimDuration::ZERO,
            logical_series: RateSeries::new(config.series_bin),
            disk_read_series: RateSeries::new(config.series_bin),
            disk_write_series: RateSeries::new(config.series_bin),
            wall_end: SimTime::ZERO,
            sched_obs: obs::SchedCounters::default(),
            was_idle: false,
            proc_tracks: Vec::new(),
            disk_tracks: Vec::new(),
            started: false,
            halted: false,
            cluster: false,
            outbox: Vec::new(),
            msg_seq: 0,
            timeline: None,
            timeline_prev_busy: Vec::new(),
            timeline_last_gather: 0,
            config,
        }
    }

    /// Add a process replaying `trace`. Copies the trace's events once;
    /// for replay shared across sweep points, or streamed from disk,
    /// use [`Simulation::add_process_feed`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Simulation::add_process_feed`].
    pub fn add_process(
        &mut self,
        pid: u32,
        name: impl Into<String>,
        trace: &Trace,
    ) -> Result<(), AddProcessError> {
        let events = trace.events().copied().collect();
        self.add_process_feed(pid, name, ProcessFeed::Shared(events))
    }

    /// Add a process replaying `feed`. File ids are namespaced by the
    /// given `pid`, which must be unique and < 65536 (as must the feed's
    /// file ids). Neither feed kind is copied or remapped up front: the
    /// pid/file-id namespacing (`file_id |= pid << 16`) is applied per
    /// event during replay, so one [`ProcessFeed::Shared`] slice can back
    /// any number of processes and concurrent simulations, and a
    /// [`ProcessFeed::Streamed`] source keeps only its current decode
    /// block resident. Replay order, and so every report byte, is the
    /// same for both kinds of one trace.
    ///
    /// # Errors
    ///
    /// * [`AddProcessError::PidTooWide`] — `pid` does not fit the 16-bit
    ///   namespace (`pid >= 65536`).
    /// * [`AddProcessError::DuplicatePid`] — a process with this pid was
    ///   already added; admitting it would collide after the
    ///   `file_id |= pid << 16` namespacing and silently share cache
    ///   blocks.
    /// * [`AddProcessError::FileIdTooWide`] — some event's `file_id`
    ///   overlaps the pid tag bits (`file_id >= 65536`); a streamed
    ///   source is checked by its index-backed
    ///   [`crate::EventSource::max_file_id`] bound rather than decoded.
    ///
    /// On error the simulation is unchanged; no partial process is
    /// registered.
    pub fn add_process_feed(
        &mut self,
        pid: u32,
        name: impl Into<String>,
        feed: ProcessFeed,
    ) -> Result<(), AddProcessError> {
        if pid >= 1 << 16 {
            return Err(AddProcessError::PidTooWide(pid));
        }
        if self.procs.iter().any(|p| p.pid == pid) {
            return Err(AddProcessError::DuplicatePid(pid));
        }
        if let Some(file_id) = feed.oversized_file_id() {
            return Err(AddProcessError::FileIdTooWide { pid, file_id });
        }
        self.procs.push(ProcessState::from_feed(pid, name, feed));
        Ok(())
    }

    fn placement(&mut self, file: u32) -> Placement {
        if let Some(p) = self.placements.get(&file) {
            return *p;
        }
        let disk = (file as usize) % self.config.n_disks;
        // 256 MB slots: generous for every traced file; seek distances
        // between files on a shared disk stay meaningful. Slots wrap at
        // the device capacity so a farm hosting more files than slots
        // overlays them instead of addressing past the end.
        let base =
            (self.next_file_slot[disk] % self.slots_per_disk) * 256 * sim_core::units::MB;
        self.next_file_slot[disk] += 1;
        let p = Placement { disk, base };
        self.placements.insert(file, p);
        p
    }

    /// Issue one device request at an absolute address, wrapping an
    /// address that would overrun the device (large files overflowing
    /// their 256 MB slot) back into range.
    fn device_access(
        &mut self,
        now: SimTime,
        disk: usize,
        kind: AccessKind,
        addr: u64,
        length: u64,
    ) -> SimDuration {
        let cap = self.disks[disk].capacity();
        let addr = if addr.saturating_add(length) > cap {
            addr % cap.saturating_sub(length).max(1)
        } else {
            addr
        };
        self.disks[disk].access(now, kind, addr, length)
    }

    fn device_op(
        &mut self,
        now: SimTime,
        kind: AccessKind,
        file: u32,
        offset: u64,
        length: u64,
    ) -> SimDuration {
        let p = self.placement(file);
        let d = self.device_access(now, p.disk, kind, p.base + offset, length);
        match kind {
            AccessKind::Read => self.disk_read_series.add(now, length as f64),
            AccessKind::Write => self.disk_write_series.add(now, length as f64),
        }
        if let Some(&t) = self.disk_tracks.get(p.disk) {
            let name = match kind {
                AccessKind::Read => "disk_read",
                AccessKind::Write => "disk_write",
            };
            obs::complete(t, name, now.ticks(), d.ticks(), Some(length));
        }
        d
    }

    fn block_span(&self, offset: u64, length: u64) -> (u64, u64) {
        let bs = self.block_size;
        if length == 0 {
            return (offset / bs, offset / bs);
        }
        (offset / bs, (offset + length - 1) / bs)
    }

    /// Wait required for still-in-flight read-ahead data covering the
    /// range.
    fn pending_wait(&mut self, now: SimTime, file: u32, offset: u64, length: u64) -> SimDuration {
        let (first, last) = self.block_span(offset, length);
        self.in_flight.wait(now, file, first, last)
    }

    fn mark_pending(&mut self, file: u32, offset: u64, length: u64, ready: SimTime) {
        let (first, last) = self.block_span(offset, length);
        self.in_flight.mark(file, first, last, ready);
    }

    /// Divide a trace compute gap by the configured CPU-speed factor
    /// (identity in the paper-faithful `cpu_speedup == 1` mode).
    #[inline]
    fn scale_compute(&mut self, slot: usize) {
        let s = self.config.cpu_speedup;
        if s > 1 {
            let p = &mut self.procs[slot];
            p.compute_remaining = SimDuration::from_ticks(p.compute_remaining.ticks() / s);
        }
    }

    /// Dispatch ready processes onto free CPUs.
    fn dispatch(&mut self, now: SimTime) {
        while self.free_cpus > 0 {
            if !self.dispatch_one(now) {
                break;
            }
        }
    }

    /// Start one ready process; false when the ready queue is empty.
    fn dispatch_one(&mut self, now: SimTime) -> bool {
        let Some(slot) = self.ready.pop_front() else { return false };
        let quantum = self.config.sched.quantum;
        let (compute, completing) = {
            let p = &mut self.procs[slot];
            debug_assert_eq!(p.state, ProcState::Ready);
            p.state = ProcState::Running;
            if p.compute_remaining > quantum {
                (quantum, false)
            } else {
                (p.compute_remaining, true)
            }
        };
        // Per-request CPU cost: FS code + interrupt service, plus the SSD
        // tier's copy penalty. SSD transfers do NOT suspend the process
        // (§3: "I/Os to and from the SSD are done without suspending the
        // process"), so the 1 µs/KB cost is charged as busy CPU here, not
        // as blocking time.
        let tier_penalty = if completing && self.cache.is_some() {
            self.procs[slot]
                .next_event()
                .map(|e| self.config.tier.access_penalty(e.length))
                .unwrap_or(SimDuration::ZERO)
        } else {
            SimDuration::ZERO
        };
        let per_io =
            self.config.sched.fs_overhead + self.config.sched.interrupt_service + tier_penalty;
        let mut slice = self.config.sched.ctx_switch + compute;
        if completing {
            slice += per_io;
        }
        self.procs[slot].cpu_used += compute + if completing { per_io } else { SimDuration::ZERO };
        self.busy += slice;
        self.overhead += self.config.sched.ctx_switch
            + if completing { per_io } else { SimDuration::ZERO };
        self.free_cpus -= 1;
        self.slice_info[slot] = Some((compute, completing));
        self.sched_obs.context_switches += 1;
        if let Some(&t) = self.proc_tracks.get(slot) {
            let name = if completing { "run+io" } else { "run" };
            obs::complete(t, name, now.ticks(), slice.ticks(), None);
        }
        self.queue.schedule(now + slice, Ev::SliceDone { slot });
        true
    }

    fn finish_process(&mut self, slot: usize, now: SimTime) {
        let p = &mut self.procs[slot];
        debug_assert_ne!(p.state, ProcState::Done);
        p.state = ProcState::Done;
        p.finished_at = now;
        self.done += 1;
        self.wall_end = self.wall_end.max(now);
        if self.cluster {
            // Tell the global admission scheduler a seat opened up.
            let seq = self.msg_seq;
            self.msg_seq += 1;
            self.outbox.push(Stamped { time: now, seq, msg: OutMsg::Done });
        }
    }

    /// Handle the request the process has just reached. Returns the
    /// blocking latency for a synchronous request.
    fn service_request(&mut self, now: SimTime, ev: &IoEvent) -> SimDuration {
        self.logical_series.add(now, ev.length as f64);
        // Wait for any in-flight read-ahead covering this range. (The SSD
        // tier's copy penalty is charged as CPU at dispatch, not here.)
        let mut block = self.pending_wait(now, ev.file_id, ev.offset, ev.length);

        if self.cache.is_none() {
            let kind = if ev.dir == Direction::Read { AccessKind::Read } else { AccessKind::Write };
            return block + self.device_op(now, kind, ev.file_id, ev.offset, ev.length);
        }

        // The outcome scratch is moved out of `self` for the duration of
        // the borrow-heavy device loops, then put back with its (possibly
        // grown) capacity — the steady state allocates nothing.
        match ev.dir {
            Direction::Read => {
                let mut out = std::mem::take(&mut self.read_scratch);
                self.cache
                    .as_mut()
                    .expect("checked above")
                    .read_into(now, ev.process_id, ev.file_id, ev.offset, ev.length, &mut out);
                for wb in &out.writebacks {
                    block += self.device_op(now, AccessKind::Write, wb.file_id, wb.offset, wb.length);
                }
                for f in &out.fetches {
                    block += self.device_op(now, AccessKind::Read, f.file_id, f.offset, f.length);
                }
                // Read-ahead proceeds in the background after the demand
                // fetch; the process does not wait for it.
                let pf_start = now + block;
                for pf in &out.prefetch {
                    let d = self.device_op(now, AccessKind::Read, pf.file_id, pf.offset, pf.length);
                    self.mark_pending(pf.file_id, pf.offset, pf.length, pf_start + d);
                }
                self.read_scratch = out;
            }
            Direction::Write => {
                let mut out = std::mem::take(&mut self.write_scratch);
                self.cache
                    .as_mut()
                    .expect("checked above")
                    .write_into(now, ev.process_id, ev.file_id, ev.offset, ev.length, &mut out);
                for wb in &out.writebacks {
                    block += self.device_op(now, AccessKind::Write, wb.file_id, wb.offset, wb.length);
                }
                for wt in &out.write_through {
                    block += self.device_op(now, AccessKind::Write, wt.file_id, wt.offset, wt.length);
                }
                self.write_scratch = out;
                self.kick_flushers(now);
            }
        }
        block
    }

    /// Pull flushable dirty data and keep every disk's flusher stream
    /// busy.
    fn kick_flushers(&mut self, now: SimTime) {
        let Some(cache) = self.cache.as_mut() else { return };
        // Refill per-disk queues while ready dirty data exists and some
        // queue is short. The batch buffer is owned by the simulation and
        // reused across calls.
        let mut batch = std::mem::take(&mut self.flush_batch_buf);
        while cache.has_flushable(now) && self.flush_queued < 4 * self.config.n_disks {
            batch.clear();
            cache.take_flush_batch_into(now, self.config.flush_batch, &mut batch);
            if batch.is_empty() {
                break;
            }
            for r in batch.drain(..) {
                let disk = (r.file_id as usize) % self.config.n_disks;
                self.flush_queues[disk].push_back(r);
                self.flush_queued += 1;
            }
        }
        batch.clear();
        self.flush_batch_buf = batch;
        // Arm the aging timer for delayed writes.
        if let Some(cache) = self.cache.as_ref() {
            if !self.flush_timer_armed {
                if let Some(t) = cache.next_flush_ready() {
                    if t > now {
                        self.flush_timer_armed = true;
                        self.queue.schedule(t, Ev::FlushTimer);
                    }
                }
            }
        }
        for disk in 0..self.config.n_disks {
            self.start_flush(disk, now);
        }
    }

    fn start_flush(&mut self, disk: usize, now: SimTime) {
        if self.flush_busy[disk] {
            return;
        }
        let Some(r) = self.flush_queues[disk].pop_front() else { return };
        self.flush_queued -= 1;
        let d = self.device_op(now, AccessKind::Write, r.file_id, r.offset, r.length);
        self.flush_busy[disk] = true;
        self.queue.schedule(now + d, Ev::FlushDone { disk });
    }

    fn all_done(&self) -> bool {
        self.done == self.procs.len()
    }

    /// Run to completion and report.
    pub fn run(mut self) -> SimReport {
        self.start();
        // The hot loop stays on the plain `pop` path; chunked sharded
        // advancement uses [`Simulation::advance_until`] instead.
        while let Some((now, ev)) = self.queue.pop() {
            if self.timeline_due(now) {
                self.sample_timeline(now);
            }
            if self.handle_event(now, ev) {
                // Processes finished; any remaining flush traffic is
                // accounted in `finalize` without extending the run.
                break;
            }
        }
        if let Some(tl) = self.take_timeline() {
            obs::timeline::publish(tl);
        }
        self.finalize()
    }

    /// Whether a gauge sample is owed at or before `now`. Kept trivially
    /// inlinable so the run loop pays one branch when timelines are off.
    #[inline(always)]
    fn timeline_due(&self, now: SimTime) -> bool {
        match &self.timeline {
            Some(tl) => tl.due(now.ticks()),
            None => false,
        }
    }

    /// Gather every gauge into the timeline scratch row and commit all
    /// grid points up to `now`. Called between event pops, where no state
    /// changes — repeating the row across a gap is exact, not an
    /// approximation. Read-only and allocation-free by construction.
    #[cold]
    fn sample_timeline(&mut self, now: SimTime) {
        let Some(mut tl) = self.timeline.take() else { return };
        let now_tick = now.ticks();
        let (resident, dirty) = self
            .cache
            .as_ref()
            .map(|c| (c.resident_blocks(), c.dirty_bytes()))
            .unwrap_or((0, 0));
        tl.scratch[0] = resident;
        tl.scratch[1] = dirty;
        tl.scratch[2] = self.queue.len() as u64;
        let running = (self.config.n_cpus - self.free_cpus) as u64;
        tl.scratch[3] = self.ready.len() as u64 + running;
        tl.scratch[4] =
            self.procs.iter().filter(|p| p.state == ProcState::Blocked).count() as u64;
        let window = now_tick.saturating_sub(self.timeline_last_gather).max(1);
        let mut promotions = 0;
        for (i, d) in self.disks.iter().enumerate() {
            let g = d.gauges(now);
            promotions += g.tier_promotions;
            tl.scratch[6 + 2 * i] = g.queue_depth;
            let busy = g.busy.ticks();
            let delta = busy.saturating_sub(self.timeline_prev_busy[i]);
            self.timeline_prev_busy[i] = busy;
            tl.scratch[7 + 2 * i] = (delta * 1000 / window).min(1000);
        }
        tl.scratch[5] = promotions;
        self.timeline_last_gather = now_tick;
        tl.commit_until(now_tick);
        self.timeline = Some(tl);
    }

    /// Take the finished timeline (if sampling was enabled), committing
    /// any grid points left between the last event and the wall-clock
    /// end. Called just before [`Simulation::finalize`] — single-node
    /// runs publish the result directly, the sharded coordinator merges
    /// per-group timelines first.
    pub(crate) fn take_timeline(&mut self) -> Option<obs::timeline::TimelineData> {
        if self.timeline.is_some() {
            let end = self.wall_end;
            self.sample_timeline(end);
        }
        let end_tick = self.wall_end.ticks();
        self.timeline.take().map(|tl| tl.finish(end_tick))
    }

    /// Register observability tracks, seed the ready queue, and dispatch
    /// the first slices at time zero. Called once, by [`Simulation::run`]
    /// or by the sharded coordinator before its first epoch.
    pub(crate) fn start(&mut self) {
        debug_assert!(!self.started, "start() called twice");
        self.started = true;
        let mut gauge_track = None;
        if obs::enabled() {
            // One Perfetto row per simulated process and per disk. A
            // monotonic id keeps the rows of concurrent simulations (e.g.
            // sweep points) distinguishable.
            let sim_id = obs::next_sim_id();
            self.proc_tracks = self
                .procs
                .iter()
                .map(|p| obs::register_track(obs::Domain::Sim, format!("sim{sim_id}:{}", p.name)))
                .collect();
            self.disk_tracks = (0..self.config.n_disks)
                .map(|i| obs::register_track(obs::Domain::Sim, format!("sim{sim_id}:disk{i}")))
                .collect();
            gauge_track =
                Some(obs::register_track(obs::Domain::Sim, format!("sim{sim_id}:gauges")));
        }
        if let Some(ns) = self.config.timeline_ns {
            // Rounded down to ticks, with a 1-tick floor.
            let mut tl = Box::new(obs::timeline::Timeline::new(ns / sim_core::TICK_NANOS));
            // Fixed series order; `sample_timeline` fills `scratch` by
            // the same indices.
            tl.add_series("cache_resident_blocks");
            tl.add_series("cache_dirty_bytes");
            tl.add_series("wheel_len");
            tl.add_series("procs_runnable");
            tl.add_series("procs_blocked");
            tl.add_series("tier_promotions");
            for i in 0..self.config.n_disks {
                tl.add_series(obs::timeline::intern_name(&format!("disk{i}_depth")));
                tl.add_series(obs::timeline::intern_name(&format!("disk{i}_busy_permille")));
            }
            if let Some(track) = gauge_track {
                tl.set_track(track);
            }
            self.timeline = Some(tl);
            self.timeline_prev_busy = vec![0; self.config.n_disks];
        }
        self.slice_info.resize(self.procs.len(), None);
        for slot in 0..self.procs.len() {
            self.scale_compute(slot);
            if self.procs[slot].state == ProcState::Ready {
                self.ready.push_back(slot);
            } else {
                // Born-done (empty trace).
                self.procs[slot].state = ProcState::Done;
                self.done += 1;
            }
        }
        self.dispatch(SimTime::ZERO);
    }

    /// Process one popped event. Returns `true` when the run-loop stop
    /// condition holds: every process done, every CPU free, nothing
    /// runnable (remaining flush traffic is accounted at finalize).
    #[inline]
    fn handle_event(&mut self, now: SimTime, ev: Ev) -> bool {
        match ev {
            Ev::SliceDone { slot } => {
                self.free_cpus += 1;
                let (compute, completing) = self.slice_info[slot]
                    .take()
                    .expect("slice info set at dispatch");
                let p = &mut self.procs[slot];
                p.compute_remaining -= compute;
                if !completing {
                    p.state = ProcState::Ready;
                    self.ready.push_back(slot);
                } else {
                    let ev = self.procs[slot].advance();
                    self.scale_compute(slot);
                    if self.cluster && ev.file_id & SHARED_FILE_BIT != 0 {
                        self.remote_issue(now, slot, &ev);
                    } else {
                        let block = self.service_request(now, &ev);
                        let p = &mut self.procs[slot];
                        if ev.sync == Synchrony::Sync && !block.is_zero() {
                            p.state = ProcState::Blocked;
                            p.blocked_since = now;
                            self.sched_obs.sync_blocks += 1;
                            if let Some(&t) = self.proc_tracks.get(slot) {
                                obs::complete(
                                    t,
                                    "io_wait",
                                    now.ticks(),
                                    block.ticks(),
                                    Some(ev.length),
                                );
                            }
                            self.queue.schedule(now + block, Ev::IoDone { slot });
                        } else {
                            // Async request or a full cache hit: mark any
                            // fetched data pending and continue.
                            if ev.sync == Synchrony::Async && !block.is_zero() {
                                self.mark_pending(ev.file_id, ev.offset, ev.length, now + block);
                            }
                            if self.procs[slot].exhausted() {
                                self.finish_process(slot, now);
                            } else {
                                let p = &mut self.procs[slot];
                                p.state = ProcState::Ready;
                                self.ready.push_back(slot);
                            }
                        }
                    }
                }
                self.dispatch(now);
            }
            Ev::IoDone { slot } => {
                let p = &mut self.procs[slot];
                debug_assert_eq!(p.state, ProcState::Blocked);
                p.blocked_time += now.saturating_since(p.blocked_since);
                if p.exhausted() {
                    self.finish_process(slot, now);
                } else {
                    p.state = ProcState::Ready;
                    self.ready.push_back(slot);
                }
                self.dispatch(now);
            }
            Ev::FlushDone { disk } => {
                self.flush_busy[disk] = false;
                if !self.all_done() {
                    self.kick_flushers(now);
                } else {
                    self.start_flush(disk, now);
                }
            }
            Ev::FlushTimer => {
                self.flush_timer_armed = false;
                self.kick_flushers(now);
            }
        }
        // §6.2 stall signature: every CPU idle with nothing runnable
        // while work remains (processes blocked on the disks).
        let idle = self.free_cpus == self.config.n_cpus
            && self.ready.is_empty()
            && !self.all_done();
        if idle && !self.was_idle {
            self.sched_obs.idle_transitions += 1;
        }
        self.was_idle = idle;
        self.all_done() && self.free_cpus == self.config.n_cpus && self.ready.is_empty()
    }

    /// A shared-file request in a sharded run: stamp it into the outbox
    /// for the owning group instead of touching the local cache/disks. A
    /// synchronous requester parks until the coordinator's barrier-time
    /// [`Simulation::complete_remote`] reply; an asynchronous one carries
    /// on immediately (the owner's disks still see the traffic).
    fn remote_issue(&mut self, now: SimTime, slot: usize, ev: &IoEvent) {
        self.logical_series.add(now, ev.length as f64);
        let kind =
            if ev.dir == Direction::Read { AccessKind::Read } else { AccessKind::Write };
        let sync = ev.sync == Synchrony::Sync;
        let seq = self.msg_seq;
        self.msg_seq += 1;
        self.outbox.push(Stamped {
            time: now,
            seq,
            msg: OutMsg::RemoteIo {
                slot,
                // Strip the pid tag: shared files live in one
                // cluster-wide namespace, so every reader of file
                // `0x8000 | k` hits the same disk extent.
                file_id: ev.file_id & 0xFFFF,
                offset: ev.offset,
                length: ev.length,
                kind,
                sync,
            },
        });
        if sync {
            let p = &mut self.procs[slot];
            p.state = ProcState::Blocked;
            p.blocked_since = now;
            self.sched_obs.sync_blocks += 1;
        } else if self.procs[slot].exhausted() {
            self.finish_process(slot, now);
        } else {
            let p = &mut self.procs[slot];
            p.state = ProcState::Ready;
            self.ready.push_back(slot);
        }
    }

    /// Route shared-file requests through the coordinator outbox. Must be
    /// set before [`Simulation::start`].
    pub(crate) fn enable_cluster(&mut self) {
        self.cluster = true;
    }

    /// Pop-and-handle every event with `time <= limit`, stopping early if
    /// the run-loop stop condition latches (`halted`). Behaves exactly
    /// like the corresponding stretch of [`Simulation::run`]'s loop: once
    /// halted no further events pop until an admission or remote
    /// completion un-latches it.
    pub(crate) fn advance_until(&mut self, limit: SimTime) {
        while !self.halted {
            let Some((now, ev)) = self.queue.pop_before(limit) else { break };
            if self.timeline_due(now) {
                self.sample_timeline(now);
            }
            if self.handle_event(now, ev) {
                self.halted = true;
            }
        }
        // Catch the grid up to the epoch barrier so every group commits
        // the same barrier-aligned grid regardless of its own event
        // times (a halted group's no-op rows are deterministic too).
        if self.timeline_due(limit) {
            self.sample_timeline(limit);
        }
    }

    /// Earliest pending event time, or `None` when this group has nothing
    /// left to do (empty queue, or halted with only residual flush
    /// events the quiesce path will account).
    pub(crate) fn peek_next_time(&self) -> Option<SimTime> {
        if self.halted {
            return None;
        }
        self.queue.peek_time()
    }

    /// Move accumulated cross-group messages into `batch`, tagged with
    /// this group's index for the deterministic `(time, seq, group)`
    /// merge.
    pub(crate) fn drain_outbox(&mut self, group: usize, batch: &mut Vec<(SimTime, u64, usize, OutMsg)>) {
        for s in self.outbox.drain(..) {
            batch.push((s.time, s.seq, group, s.msg));
        }
    }

    /// Service a remote (shared-file) request against this group's disks,
    /// bypassing the cache — shared traffic models uncached cross-machine
    /// I/O. Returns the device latency.
    pub(crate) fn service_remote(
        &mut self,
        now: SimTime,
        kind: AccessKind,
        file_id: u32,
        offset: u64,
        length: u64,
    ) -> SimDuration {
        self.device_op(now, kind, file_id, offset, length)
    }

    /// Deliver the completion for a parked synchronous remote request:
    /// the process's `IoDone` fires at `at` (barrier + owner's device
    /// latency).
    pub(crate) fn complete_remote(&mut self, slot: usize, at: SimTime) {
        debug_assert_eq!(self.procs[slot].state, ProcState::Blocked);
        self.halted = false;
        self.queue.schedule(at, Ev::IoDone { slot });
    }

    /// Admit a process mid-run at time `now` (the sharded admission
    /// scheduler's entry point). Validation matches
    /// [`Simulation::add_process_feed`]; on success the process is
    /// dispatched immediately if a CPU is free.
    ///
    /// # Errors
    ///
    /// `PidTooWide`, `DuplicatePid`, or `FileIdTooWide` exactly as
    /// [`Simulation::add_process`]; the running simulation is unchanged
    /// on error.
    pub(crate) fn admit_process_at(
        &mut self,
        now: SimTime,
        pid: u32,
        name: impl Into<String>,
        feed: ProcessFeed,
    ) -> Result<(), AddProcessError> {
        debug_assert!(self.started, "admit_process_at before start()");
        if pid >= 1 << 16 {
            return Err(AddProcessError::PidTooWide(pid));
        }
        if self.procs.iter().any(|p| p.pid == pid) {
            return Err(AddProcessError::DuplicatePid(pid));
        }
        if let Some(file_id) = feed.oversized_file_id() {
            return Err(AddProcessError::FileIdTooWide { pid, file_id });
        }
        self.procs.push(ProcessState::from_feed(pid, name, feed));
        self.slice_info.push(None);
        let slot = self.procs.len() - 1;
        self.scale_compute(slot);
        if self.procs[slot].state == ProcState::Done {
            // Born-done (empty trace): route through finish_process so
            // the admission scheduler gets its Done message back.
            self.procs[slot].state = ProcState::Ready;
            self.finish_process(slot, now);
        } else {
            self.ready.push_back(slot);
            self.halted = false;
            self.dispatch(now);
        }
        Ok(())
    }

    /// Build the report: quiesce remaining dirty data and fold up the
    /// metrics. Consumes the simulation; [`Simulation::run`] calls this
    /// after its event loop, the sharded coordinator after the last
    /// barrier.
    pub(crate) fn finalize(mut self) -> SimReport {
        // Quiesce: drain the remaining dirty data to the disks for
        // accounting (does not extend the measured wall clock). This
        // covers both ranges already pulled into flusher queues and
        // blocks still dirty in the cache.
        let end = self.wall_end;
        let queued: Vec<ByteRange> =
            self.flush_queues.iter_mut().flat_map(|q| q.drain(..)).collect();
        self.flush_queued = 0;
        for r in queued {
            let disk = (r.file_id as usize) % self.config.n_disks;
            let p = self.placements.get(&r.file_id).copied();
            if let Some(p) = p {
                self.device_access(end, p.disk, AccessKind::Write, p.base + r.offset, r.length);
            } else {
                self.device_access(end, disk, AccessKind::Write, r.offset, r.length);
            }
            self.disk_write_series.add(end, r.length as f64);
        }
        if let Some(mut cache) = self.cache.take() {
            let leftovers = cache.flush_all();
            for r in leftovers {
                let disk = (r.file_id as usize) % self.config.n_disks;
                let p = self.placements.get(&r.file_id).copied();
                if let Some(p) = p {
                    self.device_access(end, p.disk, AccessKind::Write, p.base + r.offset, r.length);
                } else {
                    self.device_access(end, disk, AccessKind::Write, r.offset, r.length);
                }
                self.disk_write_series.add(end, r.length as f64);
            }
            self.cache = Some(cache);
        }

        let capacity = SimDuration::from_ticks(end.ticks() * self.config.n_cpus as u64);
        let idle = capacity.saturating_sub(self.busy);
        let mut disk_totals = storage_model::DeviceStats::default();
        for d in &self.disks {
            disk_totals.merge(d.stats());
        }
        // Feed the process-wide event counter (sweep heartbeat ev/s).
        obs::add_sim_events(self.procs.iter().map(|p| p.ios_issued).sum());
        let mut disks_obs = obs::DiskCounters::default();
        for d in &self.disks {
            disks_obs.merge(&d.obs_counters());
        }
        let obs = obs::ObsReport {
            scheduler: self.sched_obs.clone(),
            cache: self
                .cache
                .as_ref()
                .map(|c| c.obs_counters())
                .unwrap_or_default(),
            timing_wheel: self.queue.stats().clone(),
            disks: disks_obs,
        };
        SimReport {
            wall_end: end,
            n_cpus: self.config.n_cpus,
            cpu_busy: self.busy.min(capacity),
            cpu_idle: idle,
            overhead: self.overhead,
            processes: self
                .procs
                .iter()
                .map(|p| ProcessMetrics {
                    pid: p.pid,
                    name: p.name.clone(),
                    cpu_used: p.cpu_used,
                    blocked_time: p.blocked_time,
                    finished_at: p.finished_at,
                    ios_issued: p.ios_issued,
                })
                .collect(),
            cache: self
                .cache
                .as_ref()
                .map(|c| c.stats().clone())
                .unwrap_or_default(),
            disk_totals,
            logical_series: self.logical_series,
            disk_read_series: self.disk_read_series,
            disk_write_series: self.disk_write_series,
            obs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffer_cache::WritePolicy;
    use sim_core::units::{KB, MB};

    /// A simple synthetic app: `n` sequential reads of `io` bytes with
    /// `gap` compute between them.
    fn reader_trace(pid: u32, n: u64, io: u64, gap: SimDuration) -> Trace {
        let mut t = Trace::new();
        let mut wall = SimTime::ZERO;
        for i in 0..n {
            wall += gap;
            t.push(IoEvent::logical(Direction::Read, pid, 1, i * io, io, wall, gap));
        }
        t
    }

    fn writer_trace(pid: u32, n: u64, io: u64, gap: SimDuration) -> Trace {
        let mut t = Trace::new();
        let mut wall = SimTime::ZERO;
        for i in 0..n {
            wall += gap;
            let mut e = IoEvent::logical(Direction::Write, pid, 1, i * io, io, wall, gap);
            e.sync = Synchrony::Sync;
            t.push(e);
        }
        t
    }

    #[test]
    fn single_reader_conserves_time() {
        let mut sim = Simulation::new(SimConfig::buffered(8 * MB));
        sim.add_process(1, "reader", &reader_trace(1, 100, 64 * KB, SimDuration::from_millis(5))).expect("valid process");
        let r = sim.run();
        r.check_time_conservation();
        assert_eq!(r.processes.len(), 1);
        assert_eq!(r.processes[0].ios_issued, 100);
        assert!(r.wall_end > SimTime::ZERO);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = Simulation::new(SimConfig::buffered(8 * MB));
            sim.add_process(1, "a", &reader_trace(1, 200, 64 * KB, SimDuration::from_millis(2))).expect("valid process");
            sim.add_process(2, "b", &writer_trace(2, 200, 64 * KB, SimDuration::from_millis(2))).expect("valid process");
            let r = sim.run();
            (r.wall_end, r.cpu_busy, r.cpu_idle, r.disk_totals.total_bytes())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cache_reduces_wall_time_for_rereads() {
        // Read the same 4 MB five times over: with a cache most passes
        // hit; without, every read goes to disk.
        let make_trace = || {
            let mut t = Trace::new();
            let mut wall = SimTime::ZERO;
            for pass in 0..5u64 {
                for i in 0..64u64 {
                    wall += SimDuration::from_millis(1);
                    t.push(IoEvent::logical(
                        Direction::Read,
                        1,
                        1,
                        i * 64 * KB,
                        64 * KB,
                        wall,
                        SimDuration::from_millis(1),
                    ));
                    let _ = pass;
                }
            }
            t
        };
        let mut cached = Simulation::new(SimConfig::buffered(16 * MB));
        cached.add_process(1, "r", &make_trace()).expect("valid process");
        let with_cache = cached.run();

        let mut uncached = Simulation::new(SimConfig::uncached());
        uncached.add_process(1, "r", &make_trace()).expect("valid process");
        let without = uncached.run();

        assert!(
            with_cache.wall_end < without.wall_end,
            "cache {} should beat no cache {}",
            with_cache.wall_end,
            without.wall_end
        );
        assert!(with_cache.cache.hit_blocks > 0);
    }

    #[test]
    fn write_behind_beats_write_through() {
        let trace = writer_trace(1, 300, 64 * KB, SimDuration::from_millis(1));
        let mut wb_cfg = SimConfig::buffered(64 * MB);
        wb_cfg.cache.as_mut().unwrap().write_policy = WritePolicy::WriteBehind;
        let mut wb = Simulation::new(wb_cfg);
        wb.add_process(1, "w", &trace).expect("valid process");
        let wb_r = wb.run();

        let mut wt_cfg = SimConfig::buffered(64 * MB);
        wt_cfg.cache.as_mut().unwrap().write_policy = WritePolicy::WriteThrough;
        let mut wt = Simulation::new(wt_cfg);
        wt.add_process(1, "w", &trace).expect("valid process");
        let wt_r = wt.run();

        assert!(
            wb_r.cpu_idle < wt_r.cpu_idle,
            "write-behind idle {} should beat write-through {}",
            wb_r.cpu_idle,
            wt_r.cpu_idle
        );
    }

    #[test]
    fn read_ahead_hides_latency_for_sequential_reads() {
        let trace = reader_trace(1, 500, 64 * KB, SimDuration::from_millis(20));
        let mut ra_cfg = SimConfig::buffered(64 * MB);
        ra_cfg.cache.as_mut().unwrap().read_ahead = true;
        let mut ra = Simulation::new(ra_cfg);
        ra.add_process(1, "r", &trace).expect("valid process");
        let ra_r = ra.run();

        let mut nra_cfg = SimConfig::buffered(64 * MB);
        nra_cfg.cache.as_mut().unwrap().read_ahead = false;
        let mut nra = Simulation::new(nra_cfg);
        nra.add_process(1, "r", &trace).expect("valid process");
        let nra_r = nra.run();

        assert!(
            ra_r.cpu_idle < nra_r.cpu_idle / 2,
            "read-ahead idle {} should slash no-read-ahead idle {}",
            ra_r.cpu_idle,
            nra_r.cpu_idle
        );
        assert!(ra_r.cache.readahead_hit_blocks > 0);
    }

    #[test]
    fn async_process_never_blocks() {
        let mut t = Trace::new();
        let mut wall = SimTime::ZERO;
        for i in 0..200u64 {
            wall += SimDuration::from_millis(2);
            let mut e =
                IoEvent::logical(Direction::Read, 1, 1, i * 64 * KB, 64 * KB, wall, SimDuration::from_millis(2));
            e.sync = Synchrony::Async;
            t.push(e);
        }
        let mut sim = Simulation::new(SimConfig::buffered(4 * MB)); // tiny cache
        sim.add_process(1, "les-like", &t).expect("valid process");
        let r = sim.run();
        assert_eq!(r.processes[0].blocked_time, SimDuration::ZERO);
        assert!(r.utilization() > 0.95, "async app should keep CPU busy: {}", r.utilization());
    }

    #[test]
    fn two_processes_overlap_compute_and_io() {
        // One process alone idles while waiting on disk; a second fills
        // the gap — the n+1 rule of §2.2.
        let t1 = reader_trace(1, 300, 256 * KB, SimDuration::from_millis(5));
        let t2 = reader_trace(2, 300, 256 * KB, SimDuration::from_millis(5));
        let solo = {
            let mut sim = Simulation::new(SimConfig::buffered(4 * MB));
            sim.add_process(1, "solo", &t1).expect("valid process");
            sim.run()
        };
        let duo = {
            let mut sim = Simulation::new(SimConfig::buffered(4 * MB));
            sim.add_process(1, "a", &t1).expect("valid process");
            sim.add_process(2, "b", &t2).expect("valid process");
            sim.run()
        };
        assert!(
            duo.utilization() > solo.utilization(),
            "duo {} should beat solo {}",
            duo.utilization(),
            solo.utilization()
        );
        // And the duo finishes in far less than twice the solo time.
        assert!(duo.wall_secs() < 1.9 * solo.wall_secs());
    }

    #[test]
    fn disk_traffic_is_accounted() {
        let mut sim = Simulation::new(SimConfig::buffered(8 * MB));
        sim.add_process(1, "w", &writer_trace(1, 100, 64 * KB, SimDuration::from_millis(1))).expect("valid process");
        let r = sim.run();
        // Everything written must reach the disks (flush or quiesce).
        assert_eq!(r.disk_totals.bytes_written, 100 * 64 * KB);
        let series_total: f64 = r.disk_write_series.bins().iter().sum();
        assert_eq!(series_total as u64, 100 * 64 * KB);
    }

    #[test]
    fn uncached_reads_hit_disk_every_time() {
        let mut sim = Simulation::new(SimConfig::uncached());
        sim.add_process(1, "r", &reader_trace(1, 50, 64 * KB, SimDuration::from_millis(1))).expect("valid process");
        let r = sim.run();
        assert_eq!(r.disk_totals.reads, 50);
        assert_eq!(r.disk_totals.bytes_read, 50 * 64 * KB);
    }

    #[test]
    fn ssd_tier_adds_penalty_but_stays_fast() {
        let trace = reader_trace(1, 200, 256 * KB, SimDuration::from_millis(1));
        let mut mm = Simulation::new(SimConfig::buffered(64 * MB));
        mm.add_process(1, "r", &trace).expect("valid process");
        let mm_r = mm.run();
        let mut ssd_cfg = SimConfig::ssd();
        ssd_cfg.cache.as_mut().unwrap().capacity = 64 * MB;
        let mut ssd = Simulation::new(ssd_cfg);
        ssd.add_process(1, "r", &trace).expect("valid process");
        let ssd_r = ssd.run();
        // SSD adds per-access microseconds: slightly slower than main
        // memory, far faster than no cache.
        assert!(ssd_r.wall_end >= mm_r.wall_end);
        assert!(ssd_r.wall_end.ticks() < mm_r.wall_end.ticks() * 2);
    }

    #[test]
    fn per_process_cap_hurts_utilization() {
        // The §6.2 finding: an ownership cap worsens things.
        let t1 = reader_trace(1, 400, 256 * KB, SimDuration::from_millis(3));
        let t2 = reader_trace(2, 400, 256 * KB, SimDuration::from_millis(3));
        let run = |cap: Option<u64>| {
            let mut cfg = SimConfig::buffered(8 * MB);
            cfg.cache.as_mut().unwrap().per_process_cap_blocks = cap;
            let mut sim = Simulation::new(cfg);
            sim.add_process(1, "a", &t1).expect("valid process");
            sim.add_process(2, "b", &t2).expect("valid process");
            sim.run()
        };
        let uncapped = run(None);
        let capped = run(Some(4));
        assert!(
            capped.cpu_idle >= uncapped.cpu_idle,
            "capped idle {} should not beat uncapped {}",
            capped.cpu_idle,
            uncapped.cpu_idle
        );
    }

    #[test]
    fn empty_simulation_reports_zeroes() {
        let sim = Simulation::new(SimConfig::default());
        let r = sim.run();
        assert_eq!(r.wall_end, SimTime::ZERO);
        assert_eq!(r.utilization(), 0.0);
        r.check_time_conservation();
    }

    #[test]
    fn sprite_delayed_writes_flush_via_the_aging_timer() {
        // Write a burst, then compute quietly for a minute: the 30 s
        // delayed-write timer must wake the flusher without any further
        // I/O activity, so the data reaches the disks long before the
        // quiesce path.
        let mut t = Trace::new();
        let mut wall = SimTime::ZERO;
        for i in 0..16u64 {
            wall += SimDuration::from_millis(1);
            t.push(IoEvent::logical(
                Direction::Write, 1, 1, i * 64 * KB, 64 * KB, wall, SimDuration::from_millis(1),
            ));
        }
        // One final read 60 CPU-seconds later keeps the process alive
        // past the aging deadline.
        wall += SimDuration::from_secs(60);
        t.push(IoEvent::logical(
            Direction::Read, 1, 2, 0, 4 * KB, wall, SimDuration::from_secs(60),
        ));
        let mut cfg = SimConfig::buffered(64 * MB);
        cfg.cache.as_mut().unwrap().write_policy = buffer_cache::WritePolicy::sprite();
        let mut sim = Simulation::new(cfg);
        sim.add_process(1, "w", &t).expect("valid process");
        let r = sim.run();
        // All 1 MB of writes reached disk, and the flush traffic lands in
        // the ~30 s bin, not at the end-of-run quiesce (~60 s).
        assert_eq!(r.disk_totals.bytes_written, 16 * 64 * KB);
        let writes = r.disk_write_series.bins();
        let flushed_by_35s: f64 = writes.iter().take(36).sum();
        assert!(
            flushed_by_35s as u64 >= 16 * 64 * KB,
            "delayed writes should flush at ~30s: {writes:?}"
        );
    }

    #[test]
    fn two_cpus_run_compute_bound_jobs_in_parallel() {
        // Two processes with long compute gaps and one tiny I/O each: on
        // one CPU the wall time doubles; on two CPUs they overlap.
        let make = |pid| reader_trace(pid, 20, 4 * KB, SimDuration::from_millis(50));
        let run = |cpus: usize| {
            let mut cfg = SimConfig::buffered(8 * MB);
            cfg.n_cpus = cpus;
            let mut sim = Simulation::new(cfg);
            sim.add_process(1, "a", &make(1)).expect("valid process");
            sim.add_process(2, "b", &make(2)).expect("valid process");
            let r = sim.run();
            r.check_time_conservation();
            r
        };
        let uni = run(1);
        let dual = run(2);
        assert_eq!(dual.n_cpus, 2);
        assert!(
            dual.wall_secs() < 0.7 * uni.wall_secs(),
            "2 CPUs {:.2}s should beat 1 CPU {:.2}s",
            dual.wall_secs(),
            uni.wall_secs()
        );
    }

    #[test]
    fn multi_cpu_utilization_accounts_all_cpus() {
        // One process on four CPUs: at most a quarter of capacity is busy.
        let mut cfg = SimConfig::buffered(8 * MB);
        cfg.n_cpus = 4;
        let mut sim = Simulation::new(cfg);
        sim.add_process(1, "solo", &reader_trace(1, 50, 4 * KB, SimDuration::from_millis(10))).expect("valid process");
        let r = sim.run();
        r.check_time_conservation();
        assert!(r.utilization() <= 0.26, "solo on 4 CPUs: {:.3}", r.utilization());
    }

    #[test]
    fn duplicate_pids_rejected() {
        let mut sim = Simulation::new(SimConfig::default());
        let t = reader_trace(1, 1, KB, SimDuration::from_millis(1));
        sim.add_process(1, "a", &t).expect("first pid is fine");
        assert_eq!(sim.add_process(1, "b", &t), Err(AddProcessError::DuplicatePid(1)));
        // The failed add must not have registered a process.
        let r = sim.run();
        assert_eq!(r.processes.len(), 1);
    }

    #[test]
    fn wide_pids_and_file_ids_rejected() {
        let mut sim = Simulation::new(SimConfig::default());
        let t = reader_trace(1, 1, KB, SimDuration::from_millis(1));
        assert_eq!(
            sim.add_process(1 << 16, "wide-pid", &t),
            Err(AddProcessError::PidTooWide(1 << 16))
        );
        let mut wide = Trace::new();
        let mut e = IoEvent::logical(
            Direction::Read, 2, 1 << 16, 0, KB, SimTime::ZERO, SimDuration::from_millis(1),
        );
        e.file_id = 1 << 16;
        wide.push(e);
        assert_eq!(
            sim.add_process(2, "wide-file", &wide),
            Err(AddProcessError::FileIdTooWide { pid: 2, file_id: 1 << 16 })
        );
        assert!(format!("{}", AddProcessError::DuplicatePid(3)).contains("duplicate pid 3"));
    }

    #[test]
    fn shared_slice_replay_matches_per_process_traces() {
        // Two processes replaying ONE shared slice must behave exactly
        // like two processes given separate (identical) traces: the
        // on-the-fly remap keeps their file namespaces disjoint.
        let trace = reader_trace(1, 150, 128 * KB, SimDuration::from_millis(2));
        let shared: std::sync::Arc<[IoEvent]> = trace.events().copied().collect();
        let via_shared = {
            let mut sim = Simulation::new(SimConfig::buffered(8 * MB));
            sim.add_process_feed(1, "a", ProcessFeed::Shared(shared.clone())).expect("valid");
            sim.add_process_feed(2, "b", ProcessFeed::Shared(shared.clone())).expect("valid");
            sim.run()
        };
        let via_traces = {
            let mut sim = Simulation::new(SimConfig::buffered(8 * MB));
            sim.add_process(1, "a", &trace).expect("valid");
            sim.add_process(2, "b", &trace).expect("valid");
            sim.run()
        };
        assert_eq!(via_shared.wall_end, via_traces.wall_end);
        assert_eq!(via_shared.cpu_idle, via_traces.cpu_idle);
        assert_eq!(
            via_shared.disk_totals.total_bytes(),
            via_traces.disk_totals.total_bytes()
        );
        // No cross-process cache sharing: both processes miss on their
        // own namespaced blocks.
        assert_eq!(via_shared.cache.hit_blocks, via_traces.cache.hit_blocks);
    }

    #[test]
    fn queueing_disk_reports_depth_distribution() {
        use crate::config::DeviceSpec;
        let mut cfg = SimConfig::uncached();
        cfg.device = DeviceSpec::Disk(storage_model::DiskParams::ymp_with_elevator());
        let mut sim = Simulation::new(cfg);
        sim.add_process(1, "r", &reader_trace(1, 50, 64 * KB, SimDuration::from_millis(1)))
            .expect("valid process");
        let r = sim.run();
        assert_eq!(r.disk_totals.reads, 50);
        let h = r.obs.disks.queue_depth.as_ref().expect("queueing farm reports depth");
        assert_eq!(h.total(), 50);
    }

    #[test]
    fn nvme_farm_is_faster_than_ymp_disks() {
        use crate::config::DeviceSpec;
        let trace = reader_trace(1, 200, 256 * KB, SimDuration::from_millis(1));
        let run = |device| {
            let mut cfg = SimConfig::uncached();
            cfg.device = device;
            let mut sim = Simulation::new(cfg);
            sim.add_process(1, "r", &trace).expect("valid process");
            sim.run()
        };
        let ymp = run(DeviceSpec::Disk(storage_model::DiskParams::ymp()));
        let nvme = run(DeviceSpec::Nvme(storage_model::NvmeParams::modern_2026()));
        assert!(
            nvme.wall_end < ymp.wall_end,
            "nvme {} should beat 1991 disks {}",
            nvme.wall_end,
            ymp.wall_end
        );
        assert_eq!(nvme.disk_totals.bytes_read, ymp.disk_totals.bytes_read);
    }

    #[test]
    fn tiered_farm_runs_and_counts_tier_traffic() {
        use crate::config::DeviceSpec;
        let mut cfg = SimConfig::uncached();
        cfg.device = DeviceSpec::Tiered(storage_model::TieredParams::modern_2026());
        cfg.n_disks = 2;
        let mut sim = Simulation::new(cfg);
        sim.add_process(1, "w", &writer_trace(1, 50, 64 * KB, SimDuration::from_millis(1)))
            .expect("valid process");
        let r = sim.run();
        assert_eq!(r.disk_totals.bytes_written, 50 * 64 * KB);
        let hits: u64 = r.obs.disks.tier_hits.iter().sum();
        assert_eq!(hits, 50, "every write lands in a tier: {:?}", r.obs.disks.tier_hits);
    }

    #[test]
    fn cpu_speedup_shrinks_compute_not_io() {
        let trace = reader_trace(1, 100, 256 * KB, SimDuration::from_millis(20));
        let run = |speedup| {
            let mut cfg = SimConfig::uncached();
            cfg.cpu_speedup = speedup;
            let mut sim = Simulation::new(cfg);
            sim.add_process(1, "r", &trace).expect("valid process");
            sim.run()
        };
        let paper = run(1);
        let modern = run(500);
        assert!(
            modern.wall_end < paper.wall_end,
            "faster CPU {} should finish before {}",
            modern.wall_end,
            paper.wall_end
        );
        // Same I/O volume either way — only the compute gaps shrank.
        assert_eq!(modern.disk_totals.bytes_read, paper.disk_totals.bytes_read);
        assert!(modern.cpu_busy < paper.cpu_busy);
    }

    #[test]
    fn placement_wraps_instead_of_overrunning_small_devices() {
        // 40 files on ONE Y-MP disk (4 × 256 MB slots): without the wrap
        // the 5th file's base would already exceed the 1200 MB capacity.
        let mut cfg = SimConfig::uncached();
        cfg.n_disks = 1;
        let mut sim = Simulation::new(cfg);
        let mut t = Trace::new();
        let mut wall = SimTime::ZERO;
        for f in 0..40u32 {
            wall += SimDuration::from_millis(1);
            t.push(IoEvent::logical(
                Direction::Read, 1, f, 0, 64 * KB, wall, SimDuration::from_millis(1),
            ));
        }
        sim.add_process(1, "many-files", &t).expect("valid process");
        let r = sim.run();
        assert_eq!(r.disk_totals.reads, 40);
    }
}
