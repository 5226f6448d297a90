//! An NVMe-style multi-queue flash device.
//!
//! The paper-era SSD (the simulator's `CacheTier::Ssd`) charges
//! `setup + transfer` to every access independently — infinite
//! concurrency and infinite aggregate bandwidth. Real flash devices expose many submission queues
//! with bounded depth, and their aggregate throughput saturates at the
//! device's internal bandwidth no matter how many queues are pounding
//! it. This model captures both effects while staying deterministic:
//!
//! - Requests are assigned to one of `n_queues` submission queues
//!   round-robin (arrival order, not load — deterministic and what an
//!   unpinned multi-core host effectively does).
//! - A queue holds at most `queue_depth` outstanding commands; an
//!   arrival to a full queue waits for the earliest completion in that
//!   queue before it can even be submitted.
//! - Data transfer serializes on the device's internal bandwidth
//!   (`transfer_gb_per_sec`): concurrent requests queue behind one
//!   another on the "bus", so 64 simultaneous 1 MB reads drain at the
//!   device rate, not 64× it.

use crate::device::{clamp_extent, AccessKind, BlockDevice, DeviceGauges, DeviceStats};
use crate::disk::queue_depth_histogram;
use serde::{Deserialize, Serialize};
use sim_core::units::GB;
use sim_core::{Histogram, SimDuration, SimTime};

/// Tunable NVMe parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NvmeParams {
    /// Capacity in bytes.
    pub capacity: u64,
    /// Number of hardware submission queues.
    pub n_queues: usize,
    /// Maximum outstanding commands per queue.
    pub queue_depth: usize,
    /// Aggregate device bandwidth in GB/s; concurrent transfers
    /// serialize against it.
    pub transfer_gb_per_sec: f64,
    /// Per-command submission/doorbell/completion overhead.
    pub submit: SimDuration,
}

impl Default for NvmeParams {
    fn default() -> Self {
        Self::modern_2026()
    }
}

impl NvmeParams {
    /// A 2026 datacenter NVMe drive: 2 TB, 16 queues × depth 64,
    /// ~7 GB/s sustained, ~10 µs per-command overhead.
    pub fn modern_2026() -> Self {
        NvmeParams {
            capacity: 2 * 1024 * GB,
            n_queues: 16,
            queue_depth: 64,
            transfer_gb_per_sec: 7.0,
            submit: SimDuration::from_micros(10),
        }
    }
}

/// A multi-queue flash device.
#[derive(Debug, Clone)]
pub struct NvmeModel {
    params: NvmeParams,
    name: String,
    stats: DeviceStats,
    /// Completion times of outstanding commands, per submission queue.
    queues: Vec<Vec<SimTime>>,
    /// Next queue for round-robin assignment.
    next_queue: usize,
    /// When the device's internal bandwidth is free for the next
    /// transfer.
    bus_free_at: SimTime,
    /// Device-wide outstanding-command count seen by each arrival.
    queue_depths: Histogram,
}

impl NvmeModel {
    /// A device with the given parameters.
    pub fn new(name: impl Into<String>, params: NvmeParams) -> Self {
        let n = params.n_queues.max(1);
        NvmeModel {
            params,
            name: name.into(),
            stats: DeviceStats::default(),
            queues: vec![Vec::new(); n],
            next_queue: 0,
            bus_free_at: SimTime::ZERO,
            queue_depths: queue_depth_histogram(),
        }
    }

    /// A drive with the 2026 defaults.
    pub fn modern() -> Self {
        NvmeModel::new("nvme", NvmeParams::modern_2026())
    }

    /// Parameters in use.
    pub fn params(&self) -> &NvmeParams {
        &self.params
    }

    /// Pure transfer time for `length` bytes at the device bandwidth.
    pub fn transfer_time(&self, length: u64) -> SimDuration {
        let secs = length as f64 / (self.params.transfer_gb_per_sec * GB as f64);
        SimDuration::from_secs_f64(secs)
    }

    /// Observability counters: the queue-depth distribution (flash has
    /// no head, so the seek counters stay zero).
    pub fn obs_counters(&self) -> obs::DiskCounters {
        obs::DiskCounters {
            queue_depth: Some(self.queue_depths.clone()),
            ..Default::default()
        }
    }
}

impl BlockDevice for NvmeModel {
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
        let (_offset, length) = clamp_extent(&self.name, offset, length, self.params.capacity);
        // Retire completed commands everywhere; what's left is the
        // device-wide outstanding depth this arrival observes.
        let mut depth = 0usize;
        for q in &mut self.queues {
            let mut i = 0;
            while i < q.len() {
                if q[i] <= now {
                    q.swap_remove(i);
                } else {
                    i += 1;
                }
            }
            depth += q.len();
        }
        self.queue_depths.record(depth as f64);

        let qi = self.next_queue;
        self.next_queue = (self.next_queue + 1) % self.queues.len();

        // A full submission queue blocks the host until its earliest
        // outstanding command completes (first index wins ties, so the
        // scan is deterministic).
        let mut begin = now;
        if self.queues[qi].len() >= self.params.queue_depth.max(1) {
            let mut min_i = 0;
            for (i, &t) in self.queues[qi].iter().enumerate() {
                if t < self.queues[qi][min_i] {
                    min_i = i;
                }
            }
            begin = begin.max(self.queues[qi].swap_remove(min_i));
        }

        // Transfers serialize on the device's internal bandwidth.
        let start = begin.max(self.bus_free_at);
        let service = self.params.submit + self.transfer_time(length);
        let done = start + service;
        self.bus_free_at = done;
        self.queues[qi].push(done);

        let latency = done.saturating_since(now);
        self.stats.note(kind, length, service);
        self.stats.note_queue_wait(latency.saturating_sub(service));
        latency
    }

    fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    fn gauges(&self, now: SimTime) -> DeviceGauges {
        DeviceGauges {
            // Commands are retired lazily on the next arrival; count the
            // ones still completing after `now` without mutating.
            queue_depth: self
                .queues
                .iter()
                .map(|q| q.iter().filter(|&&t| t > now).count() as u64)
                .sum(),
            busy: self.stats.busy,
            tier_promotions: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::units::MB;

    fn small() -> NvmeModel {
        NvmeModel::new(
            "t",
            NvmeParams {
                capacity: GB,
                n_queues: 2,
                queue_depth: 2,
                transfer_gb_per_sec: 1.0,
                submit: SimDuration::from_micros(10),
            },
        )
    }

    #[test]
    fn single_request_pays_submit_plus_transfer() {
        let mut d = small();
        let t = d.access(SimTime::ZERO, AccessKind::Read, 0, MB);
        let expected = d.params().submit + d.transfer_time(MB);
        assert_eq!(t, expected);
    }

    #[test]
    fn bandwidth_saturates_across_queues() {
        // Eight simultaneous 1 MB reads on a 1 GB/s device cannot all
        // finish in ~1 ms: they serialize on the internal bandwidth, so
        // the last one takes at least 8× a lone transfer.
        let mut d = small();
        let lone = d.transfer_time(MB);
        let mut last = SimDuration::ZERO;
        for i in 0..8u64 {
            last = last.max(d.access(SimTime::ZERO, AccessKind::Read, i * MB, MB));
        }
        assert!(
            last >= SimDuration::from_ticks(lone.ticks() * 8),
            "8 concurrent transfers finished in {last}, lone transfer {lone}"
        );
    }

    #[test]
    fn full_queue_blocks_submission() {
        // depth 2 × 2 queues = 4 outstanding commands; the 5th lands on
        // queue 0 which is full, so it must wait for a completion there
        // in addition to bus serialization.
        let mut d = small();
        let mut times = Vec::new();
        for i in 0..5u64 {
            times.push(d.access(SimTime::ZERO, AccessKind::Read, i * MB, MB));
        }
        assert!(times.windows(2).all(|w| w[1] > w[0]), "latencies grow: {times:?}");
        assert!(d.stats().queue_wait > SimDuration::ZERO);
    }

    #[test]
    fn busy_stays_within_wall_time() {
        let mut d = small();
        let mut wall = SimDuration::ZERO;
        for i in 0..16u64 {
            wall = wall.max(d.access(SimTime::ZERO, AccessKind::Write, i * MB, MB));
        }
        assert!(
            d.stats().busy <= wall,
            "busy {} exceeds wall {wall}",
            d.stats().busy
        );
    }

    #[test]
    fn idle_device_resets_depth() {
        let mut d = small();
        d.access(SimTime::ZERO, AccessKind::Read, 0, MB);
        let later = SimTime::from_secs(10);
        let t = d.access(later, AccessKind::Read, MB, MB);
        assert_eq!(t, d.params().submit + d.transfer_time(MB));
    }

    #[test]
    fn depth_histogram_counts_every_arrival() {
        let mut d = small();
        for i in 0..6u64 {
            d.access(SimTime::ZERO, AccessKind::Read, i * MB, MB);
        }
        let h = d.obs_counters().queue_depth.expect("nvme reports depth");
        assert_eq!(h.total(), 6);
        // Later arrivals saw several outstanding commands.
        assert!(h.quantile(1.0).unwrap() >= 4.0);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "exceeds device capacity"))]
    fn out_of_range_access_is_clamped() {
        let mut d = small();
        let cap = d.capacity();
        d.access(SimTime::ZERO, AccessKind::Write, cap - 1024, 4096);
        assert_eq!(d.stats().bytes_written, 1024);
    }
}
