//! Cache accounting, mirroring the trace format's analysis flags
//! (`TRACE_CACHE_HIT/MISS`, `TRACE_RA_HIT`).

use serde::{Deserialize, Serialize};

/// Counters accumulated by a [`crate::BlockCache`]. Block-granular counts
/// satisfy the invariant `hit_blocks + miss_blocks == accessed_blocks`,
/// which the property tests assert.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Logical read calls observed.
    pub read_calls: u64,
    /// Logical write calls observed.
    pub write_calls: u64,
    /// Blocks touched by logical accesses (reads + writes).
    pub accessed_blocks: u64,
    /// Blocks found resident.
    pub hit_blocks: u64,
    /// Hits whose block was installed by read-ahead and not yet touched.
    pub readahead_hit_blocks: u64,
    /// Blocks that had to come from the device.
    pub miss_blocks: u64,
    /// Blocks fetched by read-ahead (speculatively).
    pub prefetched_blocks: u64,
    /// Prefetched blocks evicted before ever being used (wasted
    /// prefetch).
    pub wasted_prefetch_blocks: u64,
    /// Bytes the applications logically read.
    pub bytes_read: u64,
    /// Bytes the applications logically wrote.
    pub bytes_written: u64,
    /// Bytes fetched from the device (misses + prefetch).
    pub device_bytes_read: u64,
    /// Bytes written to the device (flushes + write-through + dirty
    /// evictions).
    pub device_bytes_written: u64,
    /// Clean blocks evicted.
    pub clean_evictions: u64,
    /// Dirty blocks evicted (each forces a device write before reuse —
    /// the stall that makes buffer hogging expensive, §6.2).
    pub dirty_evictions: u64,
}

impl CacheStats {
    /// Accumulate another partition's counters into this one — used by
    /// sharded runs to fold per-group cache statistics into one
    /// cluster-wide snapshot. Every field is a sum, so the merged stats
    /// satisfy the same invariants the parts do.
    pub fn merge(&mut self, other: &CacheStats) {
        self.read_calls += other.read_calls;
        self.write_calls += other.write_calls;
        self.accessed_blocks += other.accessed_blocks;
        self.hit_blocks += other.hit_blocks;
        self.readahead_hit_blocks += other.readahead_hit_blocks;
        self.miss_blocks += other.miss_blocks;
        self.prefetched_blocks += other.prefetched_blocks;
        self.wasted_prefetch_blocks += other.wasted_prefetch_blocks;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.device_bytes_read += other.device_bytes_read;
        self.device_bytes_written += other.device_bytes_written;
        self.clean_evictions += other.clean_evictions;
        self.dirty_evictions += other.dirty_evictions;
    }

    /// Fraction of accessed blocks found resident (0 when nothing
    /// accessed).
    pub fn hit_ratio(&self) -> f64 {
        if self.accessed_blocks == 0 {
            0.0
        } else {
            self.hit_blocks as f64 / self.accessed_blocks as f64
        }
    }

    /// Fraction of logical I/O traffic absorbed by the cache: 1 − device
    /// reads / logical reads. The paper contrasts this with the 80 %+
    /// absorption of the BSD study (§6.2).
    pub fn read_absorption(&self) -> f64 {
        if self.bytes_read == 0 {
            0.0
        } else {
            // Prefetch is excluded: it is traffic the cache *chose* to
            // generate, not demand misses.
            let demand_miss = self.miss_blocks as f64;
            let accessed =
                self.hit_blocks as f64 + self.miss_blocks as f64;
            if accessed == 0.0 {
                0.0
            } else {
                1.0 - demand_miss / accessed
            }
        }
    }

    /// The core accounting identity; the property tests call this after
    /// arbitrary operation sequences.
    pub fn check_invariants(&self) {
        assert_eq!(
            self.hit_blocks + self.miss_blocks,
            self.accessed_blocks,
            "hits + misses must equal accesses"
        );
        assert!(
            self.readahead_hit_blocks <= self.hit_blocks,
            "RA hits are a subset of hits"
        );
        assert!(
            self.wasted_prefetch_blocks <= self.prefetched_blocks,
            "cannot waste more prefetches than issued"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_on_empty_stats_are_zero() {
        let s = CacheStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        assert_eq!(s.read_absorption(), 0.0);
        s.check_invariants();
    }

    #[test]
    fn merge_sums_and_preserves_invariants() {
        let mut a = CacheStats {
            accessed_blocks: 10,
            hit_blocks: 7,
            miss_blocks: 3,
            bytes_read: 100,
            dirty_evictions: 2,
            ..Default::default()
        };
        let b = CacheStats {
            accessed_blocks: 4,
            hit_blocks: 1,
            miss_blocks: 3,
            bytes_read: 50,
            clean_evictions: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.accessed_blocks, 14);
        assert_eq!(a.hit_blocks, 8);
        assert_eq!(a.miss_blocks, 6);
        assert_eq!(a.bytes_read, 150);
        assert_eq!(a.clean_evictions, 5);
        assert_eq!(a.dirty_evictions, 2);
        a.check_invariants();
    }

    #[test]
    fn hit_ratio_computes() {
        let s = CacheStats {
            accessed_blocks: 10,
            hit_blocks: 7,
            miss_blocks: 3,
            ..Default::default()
        };
        assert!((s.hit_ratio() - 0.7).abs() < 1e-12);
        s.check_invariants();
    }

    #[test]
    #[should_panic(expected = "hits + misses")]
    fn invariant_violation_detected() {
        let s = CacheStats {
            accessed_blocks: 5,
            hit_blocks: 1,
            miss_blocks: 1,
            ..Default::default()
        };
        s.check_invariants();
    }
}
