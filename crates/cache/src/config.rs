//! Cache configuration: size, block size, and policy switches.

use serde::{Deserialize, Serialize};
use sim_core::units::{KB, MB};
use sim_core::SimDuration;

/// What happens to written data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WritePolicy {
    /// The process waits for the device write — the no-buffering baseline.
    WriteThrough,
    /// The process continues immediately; dirty blocks drain to the device
    /// in the background as fast as it accepts them (§6.2).
    WriteBehind,
    /// Sprite-style delayed writes (§2.1): a dirty block becomes
    /// flushable only once it has aged past the delay, giving short-lived
    /// data a chance to die in the cache. (The paper argues this buys
    /// little for supercomputer workloads, whose files always go to disk.)
    Delayed(SimDuration),
}

impl WritePolicy {
    /// The 30-second Sprite configuration.
    pub fn sprite() -> WritePolicy {
        WritePolicy::Delayed(SimDuration::from_secs(30))
    }
}

/// Cache geometry and policy configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total cache capacity in bytes.
    pub capacity: u64,
    /// Block size in bytes (Figure 8: 4 KB and 8 KB).
    pub block_size: u64,
    /// Enable sequential read-ahead.
    pub read_ahead: bool,
    /// Write handling.
    pub write_policy: WritePolicy,
    /// Optional limit on how many blocks one process may own (§6.2's
    /// anti-hogging ablation). `None` disables the cap.
    pub per_process_cap_blocks: Option<u64>,
}

impl CacheConfig {
    /// A cache of `capacity` bytes with the paper's best-performing
    /// policies: read-ahead on, write-behind on, no ownership cap,
    /// 4 KB blocks.
    pub fn buffered(capacity: u64) -> CacheConfig {
        CacheConfig {
            capacity,
            block_size: 4 * KB,
            read_ahead: true,
            write_policy: WritePolicy::WriteBehind,
            per_process_cap_blocks: None,
        }
    }

    /// The capacity in bytes of a `cache_mb` MB cache, or why it cannot
    /// hold a `block_size`-byte block: the size in bytes must fit in a
    /// `u64` and hold at least one block.
    pub fn capacity_of_mb(cache_mb: u64, block_size: u64) -> Result<u64, &'static str> {
        let capacity = cache_mb.checked_mul(MB).ok_or("the cache size is too large")?;
        if capacity < block_size.max(1) {
            return Err("the cache must hold at least one block");
        }
        Ok(capacity)
    }

    /// The unbuffered baseline: no read-ahead, write-through.
    pub fn unbuffered(capacity: u64) -> CacheConfig {
        CacheConfig {
            capacity,
            block_size: 4 * KB,
            read_ahead: false,
            write_policy: WritePolicy::WriteThrough,
            per_process_cap_blocks: None,
        }
    }

    /// The per-CPU main-memory cache range the paper considers realistic
    /// (§6.2: 0.5–2 MW per processor): this is the 2 MW = 16 MB point.
    pub fn main_memory_share() -> CacheConfig {
        CacheConfig::buffered(16 * MB)
    }

    /// The per-CPU SSD share (32 MW = 256 MB, §6.3).
    pub fn ssd_share() -> CacheConfig {
        CacheConfig::buffered(sim_core::units::YMP_SSD_PER_CPU_BYTES)
    }

    /// Capacity in whole blocks.
    pub fn capacity_blocks(&self) -> u64 {
        (self.capacity / self.block_size).max(1)
    }

    /// This configuration cut down to one of `parts` equal cache
    /// partitions: capacity is divided (never below one block) and every
    /// policy switch is kept. Sharded simulations give each group
    /// `cluster_config.partitioned(n_groups)` so the cluster-wide cache
    /// budget stays comparable to a monolithic run.
    pub fn partitioned(&self, parts: usize) -> CacheConfig {
        let parts = parts.max(1) as u64;
        let mut c = self.clone();
        c.capacity = (self.capacity / parts).max(self.block_size);
        c
    }

    /// Validate invariants; panics on nonsense geometry. Called by
    /// [`crate::BlockCache::new`].
    pub fn validate(&self) {
        assert!(self.block_size > 0, "block size must be positive");
        assert!(
            self.capacity >= self.block_size,
            "cache must hold at least one block"
        );
        if let Some(cap) = self.per_process_cap_blocks {
            assert!(cap > 0, "per-process cap must be positive when present");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_blocks_rounds_down() {
        let mut c = CacheConfig::buffered(10 * KB);
        c.block_size = 4 * KB;
        assert_eq!(c.capacity_blocks(), 2);
    }

    #[test]
    fn presets_match_paper() {
        assert_eq!(CacheConfig::ssd_share().capacity, 256 * MB);
        assert_eq!(CacheConfig::main_memory_share().capacity, 16 * MB);
        assert_eq!(WritePolicy::sprite(), WritePolicy::Delayed(SimDuration::from_secs(30)));
        assert!(CacheConfig::buffered(MB).read_ahead);
        assert_eq!(CacheConfig::unbuffered(MB).write_policy, WritePolicy::WriteThrough);
    }

    #[test]
    fn partitioned_divides_capacity_and_keeps_policies() {
        let c = CacheConfig::buffered(64 * MB);
        let p = c.partitioned(8);
        assert_eq!(p.capacity, 8 * MB);
        assert_eq!(p.block_size, c.block_size);
        assert_eq!(p.write_policy, c.write_policy);
        assert!(p.read_ahead);
        // Degenerate splits clamp to one block so validate() still holds.
        let tiny = c.partitioned(usize::MAX);
        assert_eq!(tiny.capacity, tiny.block_size);
        tiny.validate();
        // parts = 0 behaves as 1.
        assert_eq!(c.partitioned(0).capacity, c.capacity);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn tiny_cache_rejected() {
        let mut c = CacheConfig::buffered(MB);
        c.capacity = 100;
        c.block_size = 4 * KB;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "cap must be positive")]
    fn zero_cap_rejected() {
        let mut c = CacheConfig::buffered(MB);
        c.per_process_cap_blocks = Some(0);
        c.validate();
    }
}
