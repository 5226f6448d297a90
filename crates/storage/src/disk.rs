//! The paper's disk model: positional seek + rotation + streaming
//! transfer, with optional request queueing.
//!
//! §6.1: "The disk model, like the scheduler, is a simple one. … seek
//! times could only be approximated. There was no queueing at the disks,
//! so the completion time of a specific I/O was dependent only on the
//! location of the I/O and how 'close' the I/O was to the previous I/O."
//!
//! §6.2 adds the two numbers the model must reproduce: a sustained
//! transfer rate of 9.6 MB/s and large-transfer seeks of "as long as
//! 15 ms (the Cray Y-MP disks seek relatively slowly)".
//!
//! The reproduction keeps the paper-faithful *no-queueing* mode as the
//! default and offers two queueing modes as the ablation the paper says
//! it lacked (its explanation for why read-ahead failed to smooth disk
//! traffic in Figure 6): plain FIFO, and an elevator (SCAN) scheduler
//! that amortizes the positioning stroke across the requests sharing a
//! sweep.

use crate::device::{clamp_extent, AccessKind, BlockDevice, DeviceGauges, DeviceStats};
use serde::{Deserialize, Serialize};
use sim_core::units::MB;
use sim_core::{Histogram, SimDuration, SimTime};

/// Whether a disk queues its requests, and in which order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DiskSched {
    /// The paper's mode: no queueing, so every request is serviced as if
    /// the device were idle.
    Unqueued,
    /// First-come first-served: each request waits behind everything
    /// issued before it and pays its full positioning cost.
    Fifo,
    /// Elevator (SCAN): the arm sweeps the platter and services queued
    /// requests in position order. Completion times are promised at
    /// issue in this simulator, so the model keeps FIFO *completion*
    /// order but amortizes the positioning stroke across the requests
    /// sharing the sweep — the deeper the queue, the cheaper each seek.
    Elevator,
}

/// Tunable disk parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiskParams {
    /// Capacity in bytes; also normalizes seek distance.
    pub capacity: u64,
    /// Sustained transfer rate in MB/s.
    pub transfer_mb_per_sec: f64,
    /// Positioning cost for an access adjacent to the previous one
    /// (track-to-track / settle).
    pub min_seek: SimDuration,
    /// Positioning cost for a full-stroke seek.
    pub max_seek: SimDuration,
    /// Average rotational latency added to every seek-requiring access
    /// (half a revolution of a 3600 RPM era drive ≈ 8.3 ms).
    pub avg_rotation: SimDuration,
    /// Fixed controller/command overhead per request.
    pub overhead: SimDuration,
    /// Queueing mode; [`DiskSched::Unqueued`] is the paper's.
    pub scheduler: DiskSched,
}

impl Default for DiskParams {
    /// The Cray Y-MP DD-40-class disk of §2.2/§6.2.
    fn default() -> Self {
        DiskParams {
            capacity: 1200 * MB,
            transfer_mb_per_sec: sim_core::units::YMP_DISK_MB_PER_SEC,
            min_seek: SimDuration::from_millis(4),
            max_seek: SimDuration::from_millis(15),
            avg_rotation: SimDuration::from_micros(8_300),
            overhead: SimDuration::from_micros(500),
            scheduler: DiskSched::Unqueued,
        }
    }
}

impl DiskParams {
    /// The paper-faithful configuration (no queueing).
    pub fn ymp() -> Self {
        Self::default()
    }

    /// Same drive with FIFO queueing enabled — the ablation for the
    /// paper's admitted simplification.
    pub fn ymp_with_queueing() -> Self {
        DiskParams { scheduler: DiskSched::Fifo, ..Self::default() }
    }

    /// Same drive with an elevator (SCAN) scheduler on the queue.
    pub fn ymp_with_elevator() -> Self {
        DiskParams { scheduler: DiskSched::Elevator, ..Self::default() }
    }

    /// A 2026 nearline hard drive (capacity tier): ~20 TB, ~280 MB/s
    /// sustained, 7200 RPM, fast settle — with an elevator scheduler,
    /// the way any modern drive is actually driven.
    pub fn modern_2026() -> Self {
        DiskParams {
            capacity: 20 * 1024 * sim_core::units::GB,
            transfer_mb_per_sec: 280.0,
            min_seek: SimDuration::from_micros(500),
            max_seek: SimDuration::from_millis(8),
            // Half a revolution at 7200 RPM ≈ 4.17 ms.
            avg_rotation: SimDuration::from_micros(4_170),
            overhead: SimDuration::from_micros(100),
            scheduler: DiskSched::Elevator,
        }
    }
}

/// A single disk. Tracks head position (as a byte address) and, when
/// queueing, the time the device becomes free.
#[derive(Debug, Clone)]
pub struct DiskModel {
    params: DiskParams,
    name: String,
    /// Byte address the head is parked at after the previous request.
    head: u64,
    /// When the device finishes its current queue (queueing mode only).
    free_at: SimTime,
    stats: DeviceStats,
    /// Accesses that moved the head.
    seeks: u64,
    /// Accesses exactly sequential with the previous one.
    seq_accesses: u64,
    /// Head travel per seek, pre-bucketed by `ilog2(bytes)`: one array
    /// increment on the access path instead of a `Histogram` edge
    /// search; [`DiskModel::obs_counters`] folds the buckets into the
    /// reported power-of-two histogram.
    seek_buckets: [u64; 64],
    /// Completion times of requests still outstanding (queueing modes
    /// only; stays empty in the paper's no-queueing mode). Purged lazily
    /// at each arrival; the surviving count is the queue depth that
    /// arrival observed.
    inflight: Vec<SimTime>,
    /// Queue depth seen by each arriving request (queueing modes only).
    queue_depths: Histogram,
}

/// Power-of-two queue-depth histogram edges shared by every queueing
/// device model, so per-device histograms merge across a farm.
pub(crate) fn queue_depth_histogram() -> Histogram {
    Histogram::pow2(1, 256)
}

impl DiskModel {
    /// A disk with the given parameters.
    pub fn new(name: impl Into<String>, params: DiskParams) -> Self {
        DiskModel {
            params,
            name: name.into(),
            head: 0,
            free_at: SimTime::ZERO,
            stats: DeviceStats::default(),
            seeks: 0,
            seq_accesses: 0,
            seek_buckets: [0; 64],
            inflight: Vec::new(),
            queue_depths: queue_depth_histogram(),
        }
    }

    /// The Y-MP disk, paper-faithful mode.
    pub fn ymp() -> Self {
        DiskModel::new("ymp-disk", DiskParams::ymp())
    }

    /// Parameters in use.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// Positioning (seek + rotation) cost for a request at `offset` given
    /// the current head position. Zero when the request is exactly
    /// sequential with the previous one (the head is already there and the
    /// platter keeps streaming).
    #[inline]
    pub fn position_cost(&self, offset: u64) -> SimDuration {
        if offset == self.head {
            return SimDuration::ZERO;
        }
        let distance = self.head.abs_diff(offset) as f64 / self.params.capacity.max(1) as f64;
        // Square-root seek curve: short seeks dominated by settle time,
        // long seeks approach the full stroke linearly-in-sqrt — the usual
        // first-order fit for drives of this era.
        let frac = distance.min(1.0).sqrt();
        let min = self.params.min_seek.ticks() as f64;
        let max = self.params.max_seek.ticks() as f64;
        let seek = SimDuration::from_ticks((min + (max - min) * frac).round() as u64);
        seek + self.params.avg_rotation
    }

    /// Positioning cost under the elevator: with `depth` requests already
    /// queued, the arm serves the sweep in position order, so the stroke
    /// above the settle-plus-rotation floor is shared `depth + 1` ways.
    /// At depth 0 this equals [`DiskModel::position_cost`].
    fn elevator_position_cost(&self, offset: u64, depth: u64) -> SimDuration {
        if offset == self.head {
            return SimDuration::ZERO;
        }
        let full = self.position_cost(offset);
        let floor = self.params.min_seek + self.params.avg_rotation;
        let excess = full.saturating_sub(floor);
        floor + SimDuration::from_ticks(excess.ticks() / (depth + 1))
    }

    /// Pure transfer time for `length` bytes at the sustained rate.
    pub fn transfer_time(&self, length: u64) -> SimDuration {
        let secs = length as f64 / (self.params.transfer_mb_per_sec * MB as f64);
        SimDuration::from_secs_f64(secs)
    }

    /// Observability counters for the `obs` report section: seek vs.
    /// sequential-access split, the seek-distance distribution, and (in
    /// queueing modes) the queue-depth distribution.
    pub fn obs_counters(&self) -> obs::DiskCounters {
        // Power-of-two edges make the bucket representative `2^i` land
        // in exactly the bucket every distance in `[2^i, 2^(i+1))`
        // would, so the folded histogram is identical to recording each
        // seek directly. The low edge is 1 byte so sub-4 KB head travel
        // (e.g. a 512-byte short seek) keeps its own bucket instead of
        // collapsing into a 4 KB floor.
        let mut seek_hist = Histogram::pow2(1, self.params.capacity.max(8 * 1024));
        for (i, &n) in self.seek_buckets.iter().enumerate() {
            if n > 0 {
                seek_hist.record_n((1u64 << i) as f64, n);
            }
        }
        obs::DiskCounters {
            seeks: self.seeks,
            sequential_accesses: self.seq_accesses,
            seek_distance_bytes: Some(seek_hist),
            queue_depth: (self.params.scheduler != DiskSched::Unqueued)
                .then(|| self.queue_depths.clone()),
            ..Default::default()
        }
    }

    /// The queueing service computation, kept out of line so the
    /// paper-faithful no-queueing path — the canonical hot path every
    /// figure runs — inlines as the same tight body it had before the
    /// queue-aware modes existed.
    #[inline(never)]
    fn queued_service(
        &mut self,
        now: SimTime,
        offset: u64,
        length: u64,
    ) -> (SimDuration, SimDuration) {
        // Purge completed requests; what survives is the queue this
        // arrival waits behind.
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i] <= now {
                self.inflight.swap_remove(i);
            } else {
                i += 1;
            }
        }
        let depth = self.inflight.len() as u64;
        self.queue_depths.record(depth as f64);
        let pos = match self.params.scheduler {
            DiskSched::Elevator => self.elevator_position_cost(offset, depth),
            DiskSched::Unqueued | DiskSched::Fifo => self.position_cost(offset),
        };
        let service = self.params.overhead + pos + self.transfer_time(length);
        let begin = self.free_at.max(now);
        let done = begin + service;
        self.free_at = done;
        self.inflight.push(done);
        (service, done.saturating_since(now))
    }
}

impl BlockDevice for DiskModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn capacity(&self) -> u64 {
        self.params.capacity
    }

    #[inline]
    fn access(
        &mut self,
        now: SimTime,
        kind: AccessKind,
        offset: u64,
        length: u64,
    ) -> SimDuration {
        let (offset, length) = clamp_extent(&self.name, offset, length, self.params.capacity);
        if offset == self.head {
            self.seq_accesses += 1;
        } else {
            self.seeks += 1;
            // abs_diff is nonzero here, so ilog2 is defined.
            self.seek_buckets[self.head.abs_diff(offset).ilog2() as usize] += 1;
        }
        let (service, latency) = if self.params.scheduler != DiskSched::Unqueued {
            self.queued_service(now, offset, length)
        } else {
            let service =
                self.params.overhead + self.position_cost(offset) + self.transfer_time(length);
            (service, service)
        };
        self.head = offset + length;
        self.stats.note(kind, length, service);
        self.stats.note_queue_wait(latency.saturating_sub(service));
        latency
    }

    fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    fn gauges(&self, now: SimTime) -> DeviceGauges {
        DeviceGauges {
            // `inflight` is purged lazily by `queued_service`; counting
            // the entries still completing after `now` without mutating
            // keeps the sampler invisible to results.
            queue_depth: self.inflight.iter().filter(|&&t| t > now).count() as u64,
            busy: self.stats.busy,
            tier_promotions: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> DiskModel {
        DiskModel::ymp()
    }

    #[test]
    fn sequential_access_pays_no_seek() {
        let mut d = disk();
        d.access(SimTime::ZERO, AccessKind::Read, 0, 4096);
        // Head is now at 4096; the next sequential request skips seek and
        // rotation entirely.
        assert_eq!(d.position_cost(4096), SimDuration::ZERO);
        let seq = d.access(SimTime::ZERO, AccessKind::Read, 4096, 4096);
        let expected = d.params().overhead + d.transfer_time(4096);
        assert_eq!(seq, expected);
    }

    #[test]
    fn long_seek_costs_more_than_short() {
        let d = disk();
        let near = d.position_cost(MB);
        let far = d.position_cost(1000 * MB);
        assert!(far > near, "far {far} should exceed near {near}");
        // And the far seek is bounded by max_seek + rotation.
        assert!(far <= d.params().max_seek + d.params().avg_rotation);
        assert!(near >= d.params().min_seek);
    }

    #[test]
    fn transfer_rate_matches_spec() {
        let d = disk();
        // 9.6 MB at 9.6 MB/s = 1 second.
        let t = d.transfer_time((9.6 * MB as f64) as u64);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-3, "got {t}");
    }

    #[test]
    fn fifteen_ms_seek_claim_holds_for_full_stroke() {
        // §6.2: "Such a transfer might take as long as 15 ms".
        let d = disk();
        let full = d.position_cost(d.capacity());
        assert!(full >= SimDuration::from_millis(15));
    }

    #[test]
    fn no_queueing_ignores_device_business() {
        let mut d = disk();
        let t1 = d.access(SimTime::ZERO, AccessKind::Read, 500 * MB, 4096);
        // Issue another far request at the same instant: in the paper's
        // model it is serviced as if the disk were idle.
        let t2 = d.access(SimTime::ZERO, AccessKind::Read, 0, 4096);
        assert!(t2 <= d.params().overhead + d.params().max_seek + d.params().avg_rotation
            + d.transfer_time(4096));
        let _ = t1;
    }

    #[test]
    fn queueing_serializes_simultaneous_requests() {
        let mut d = DiskModel::new("q", DiskParams::ymp_with_queueing());
        let t1 = d.access(SimTime::ZERO, AccessKind::Read, 100 * MB, 65536);
        let t2 = d.access(SimTime::ZERO, AccessKind::Read, 200 * MB, 65536);
        assert!(t2 > t1, "second queued request must finish later");
    }

    #[test]
    fn queueing_drains_when_idle() {
        let mut d = DiskModel::new("q", DiskParams::ymp_with_queueing());
        let t1 = d.access(SimTime::ZERO, AccessKind::Read, 0, 4096);
        // Far in the future the queue is empty again.
        let later = SimTime::from_secs(100);
        let t2 = d.access(later, AccessKind::Read, 4096, 4096);
        assert!(t2 <= t1 + d.params().max_seek, "idle disk should not queue");
    }

    #[test]
    fn queued_busy_excludes_queue_wait() {
        // Two simultaneous queued requests: the second waits for the
        // first, so wall time for the pair is the later completion. Busy
        // is pure service and must not exceed it (the old accounting
        // summed full latencies, double-counting the wait).
        let mut d = DiskModel::new("q", DiskParams::ymp_with_queueing());
        let t1 = d.access(SimTime::ZERO, AccessKind::Read, 100 * MB, 65536);
        let t2 = d.access(SimTime::ZERO, AccessKind::Read, 200 * MB, 65536);
        let wall = t1.max(t2);
        assert!(
            d.stats().busy <= wall,
            "busy {} exceeds wall {wall}",
            d.stats().busy
        );
        // Conservation: service + wait adds back up to the two latencies.
        assert_eq!(d.stats().busy + d.stats().queue_wait, t1 + t2);
        assert!(d.stats().queue_wait > SimDuration::ZERO);
    }

    #[test]
    fn paper_mode_records_no_queue_wait() {
        let mut d = disk();
        d.access(SimTime::ZERO, AccessKind::Read, 0, 4096);
        d.access(SimTime::ZERO, AccessKind::Read, 500 * MB, 4096);
        assert_eq!(d.stats().queue_wait, SimDuration::ZERO);
        assert!(d.obs_counters().queue_depth.is_none());
    }

    #[test]
    fn elevator_amortizes_positioning_under_load() {
        // Eight far-flung requests issued at the same instant: the
        // elevator shares the stroke across the sweep, so the batch
        // drains sooner than FIFO ordering.
        let drain = |params: DiskParams| {
            let mut d = DiskModel::new("d", params);
            let mut last = SimDuration::ZERO;
            for i in 0..8u64 {
                let offset = (i * 131) % 1000 * MB;
                last = last.max(d.access(SimTime::ZERO, AccessKind::Read, offset, 65536));
            }
            last
        };
        let fifo = drain(DiskParams::ymp_with_queueing());
        let scan = drain(DiskParams::ymp_with_elevator());
        assert!(scan < fifo, "elevator {scan} should beat FIFO {fifo}");
    }

    #[test]
    fn idle_elevator_matches_fifo() {
        // With nothing queued there is no sweep to share: both schedulers
        // charge the identical positioning cost.
        let mut fifo = DiskModel::new("f", DiskParams::ymp_with_queueing());
        let mut scan = DiskModel::new("e", DiskParams::ymp_with_elevator());
        let a = fifo.access(SimTime::ZERO, AccessKind::Read, 300 * MB, 4096);
        let b = scan.access(SimTime::ZERO, AccessKind::Read, 300 * MB, 4096);
        assert_eq!(a, b);
    }

    #[test]
    fn queueing_modes_record_queue_depths() {
        let mut d = DiskModel::new("e", DiskParams::ymp_with_elevator());
        for i in 0..5u64 {
            d.access(SimTime::ZERO, AccessKind::Read, i * 100 * MB, 4096);
        }
        let h = d.obs_counters().queue_depth.expect("queueing disks report depth");
        assert_eq!(h.total(), 5);
        // Depths seen: 0,1,2,3,4 — at least one arrival saw a deep queue.
        assert!(h.quantile(1.0).unwrap() >= 4.0);
    }

    #[test]
    fn stats_track_requests() {
        let mut d = disk();
        d.access(SimTime::ZERO, AccessKind::Read, 0, 4096);
        d.access(SimTime::ZERO, AccessKind::Write, 4096, 8192);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().total_bytes(), 12288);
        assert!(d.stats().busy > SimDuration::ZERO);
    }

    #[test]
    fn obs_counters_split_seeks_from_sequential() {
        let mut d = disk();
        // First access from head 0 to offset 0 is "sequential" (no head
        // movement); the follow-on at 4096 streams; the jump seeks.
        d.access(SimTime::ZERO, AccessKind::Read, 0, 4096);
        d.access(SimTime::ZERO, AccessKind::Read, 4096, 4096);
        d.access(SimTime::ZERO, AccessKind::Read, 500 * MB, 4096);
        let o = d.obs_counters();
        assert_eq!(o.sequential_accesses, 2);
        assert_eq!(o.seeks, 1);
        let h = o.seek_distance_bytes.expect("disks always carry a histogram");
        assert_eq!(h.total(), 1);
        // The recorded distance is the actual head travel (~500 MB − 8 KB).
        assert!(h.quantile(0.5).unwrap() >= (256 * MB) as f64);
    }

    #[test]
    fn sub_4k_seeks_keep_their_own_bucket() {
        // A 512-byte head move: with the old 4 KB low edge this collapsed
        // into the underflow bucket whose upper edge is 4096, losing the
        // sub-4K short-seek shape. With the edge widened to 1 the
        // distance lands in its own power-of-two bucket.
        let mut d = disk();
        d.access(SimTime::ZERO, AccessKind::Read, 0, 4096); // head -> 4096
        d.access(SimTime::ZERO, AccessKind::Read, 4608, 4096); // 512-byte seek
        let h = d.obs_counters().seek_distance_bytes.expect("histogram");
        assert_eq!(h.total(), 1);
        let p50 = h.quantile(0.5).unwrap();
        assert!(
            (512.0..=1024.0).contains(&p50),
            "512-byte seek should bucket near 512, got {p50}"
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "exceeds device capacity"))]
    fn out_of_range_access_is_clamped() {
        let mut d = disk();
        let cap = d.capacity();
        d.access(SimTime::ZERO, AccessKind::Read, cap - 1024, 8192);
        // Debug builds assert above; release builds truncate the access
        // to the 1024 bytes that exist.
        assert_eq!(d.stats().bytes_read, 1024);
    }

    #[test]
    fn zero_length_transfer_is_free_but_not_negative() {
        let d = disk();
        assert_eq!(d.transfer_time(0), SimDuration::ZERO);
    }
}
