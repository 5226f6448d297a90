//! The device interface the buffering simulator drives, plus shared
//! per-device accounting.

use serde::{Deserialize, Serialize};
use sim_core::{SimDuration, SimTime};

/// Read or write, from the device's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// Data moves device → memory.
    Read,
    /// Data moves memory → device.
    Write,
}

/// Per-device accounting, accumulated by every [`BlockDevice`]
/// implementation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DeviceStats {
    /// Number of read requests serviced.
    pub reads: u64,
    /// Number of write requests serviced.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Total time the device spent actively servicing requests
    /// (positioning + transfer + per-request overhead). Time a request
    /// spent waiting behind earlier requests accumulates in
    /// [`DeviceStats::queue_wait`] instead, so `busy / wall` is a true
    /// per-device utilization and cannot exceed 1.
    pub busy: SimDuration,
    /// Total time requests spent queued behind earlier requests before
    /// the device began servicing them. Zero for non-queueing models.
    pub queue_wait: SimDuration,
}

impl DeviceStats {
    /// Total requests serviced.
    pub fn total_requests(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Accumulate another device's counters into this one (disk-farm and
    /// cross-shard totals).
    pub fn merge(&mut self, other: &DeviceStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.busy += other.busy;
        self.queue_wait += other.queue_wait;
    }

    /// Account one serviced request. `service` is pure device work —
    /// queue wait is reported separately via
    /// [`DeviceStats::note_queue_wait`].
    pub(crate) fn note(&mut self, kind: AccessKind, bytes: u64, service: SimDuration) {
        match kind {
            AccessKind::Read => {
                self.reads += 1;
                self.bytes_read += bytes;
            }
            AccessKind::Write => {
                self.writes += 1;
                self.bytes_written += bytes;
            }
        }
        self.busy += service;
    }

    /// Account time a request spent waiting behind earlier requests.
    pub(crate) fn note_queue_wait(&mut self, wait: SimDuration) {
        self.queue_wait += wait;
    }
}

/// An instantaneous gauge snapshot of a device, read by the timeline
/// sampler. Pure observation: computing it must not mutate the device
/// (queue purges stay lazy) or allocate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceGauges {
    /// Requests currently in flight or queued (still completing after
    /// `now`).
    pub queue_depth: u64,
    /// Cumulative busy time (see [`DeviceStats::busy`]); the sampler
    /// differences consecutive samples into a busy fraction.
    pub busy: SimDuration,
    /// Cumulative tier promotions (tiered hierarchy only; 0 elsewhere).
    pub tier_promotions: u64,
}

/// Clamp a request extent to the device capacity.
///
/// Workloads are expected to stay within the device — an overrun is a
/// bug in file placement or trace generation — so debug builds assert
/// with the offending extent. Release builds saturate instead of
/// silently addressing past the end: the access is truncated to the tail
/// of the device (possibly to zero length when `offset` itself is past
/// the end).
#[inline]
pub fn clamp_extent(device: &str, offset: u64, length: u64, capacity: u64) -> (u64, u64) {
    debug_assert!(
        offset.saturating_add(length) <= capacity,
        "{device}: access [{offset}, +{length}) exceeds device capacity {capacity}"
    );
    let offset = offset.min(capacity);
    let length = length.min(capacity - offset);
    (offset, length)
}

/// A storage device that can service block requests.
///
/// `access` is called with the current simulation time and returns the
/// latency until the request completes — including any positioning cost
/// and (for queueing models) the wait behind earlier requests.
pub trait BlockDevice {
    /// Human-readable device name for reports.
    fn name(&self) -> &str;

    /// Device capacity in bytes.
    fn capacity(&self) -> u64;

    /// Service a request for `length` bytes at `offset`, returning the
    /// time until completion measured from `now`.
    fn access(&mut self, now: SimTime, kind: AccessKind, offset: u64, length: u64)
        -> SimDuration;

    /// Accumulated accounting.
    fn stats(&self) -> &DeviceStats;

    /// Instantaneous gauges at `now` for the timeline sampler. The
    /// default suits non-queueing models: zero depth, cumulative busy.
    /// Must be read-only and allocation-free — the sampler calls it
    /// between event pops and must not perturb results.
    fn gauges(&self, now: SimTime) -> DeviceGauges {
        let _ = now;
        DeviceGauges { queue_depth: 0, busy: self.stats().busy, tier_promotions: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate_by_kind() {
        let mut s = DeviceStats::default();
        s.note(AccessKind::Read, 4096, SimDuration::from_millis(2));
        s.note(AccessKind::Write, 1024, SimDuration::from_millis(3));
        s.note(AccessKind::Read, 100, SimDuration::from_millis(1));
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes_read, 4196);
        assert_eq!(s.bytes_written, 1024);
        assert_eq!(s.total_requests(), 3);
        assert_eq!(s.total_bytes(), 5220);
        assert_eq!(s.busy, SimDuration::from_millis(6));
        assert_eq!(s.queue_wait, SimDuration::ZERO);
    }

    #[test]
    fn queue_wait_accumulates_separately_from_busy() {
        let mut s = DeviceStats::default();
        s.note(AccessKind::Read, 4096, SimDuration::from_millis(2));
        s.note_queue_wait(SimDuration::from_millis(5));
        s.note_queue_wait(SimDuration::from_millis(1));
        assert_eq!(s.busy, SimDuration::from_millis(2));
        assert_eq!(s.queue_wait, SimDuration::from_millis(6));
    }

    #[test]
    fn merge_sums_queue_wait() {
        let mut a = DeviceStats::default();
        a.note(AccessKind::Write, 100, SimDuration::from_millis(1));
        a.note_queue_wait(SimDuration::from_millis(2));
        let mut b = DeviceStats::default();
        b.note(AccessKind::Read, 200, SimDuration::from_millis(3));
        b.note_queue_wait(SimDuration::from_millis(4));
        a.merge(&b);
        assert_eq!(a.busy, SimDuration::from_millis(4));
        assert_eq!(a.queue_wait, SimDuration::from_millis(6));
        assert_eq!(a.total_bytes(), 300);
    }

    #[test]
    fn clamp_extent_passes_in_range_requests_through() {
        assert_eq!(clamp_extent("d", 0, 4096, 8192), (0, 4096));
        assert_eq!(clamp_extent("d", 4096, 4096, 8192), (4096, 4096));
        assert_eq!(clamp_extent("d", 8192, 0, 8192), (8192, 0));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "exceeds device capacity"))]
    fn clamp_extent_saturates_overruns() {
        // Debug builds assert (the workload is buggy); release builds
        // truncate to the device tail.
        assert_eq!(clamp_extent("d", 6000, 4096, 8192), (6000, 2192));
        assert_eq!(clamp_extent("d", 10_000, 4096, 8192), (8192, 0));
    }
}
