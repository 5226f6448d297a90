//! The cache's contract through its public API: hits and misses,
//! read-ahead, write policies, eviction, ownership caps and accounting.

use buffer_cache::{BlockCache, ByteRange, CacheConfig, WritePolicy};
use sim_core::units::KB;
use sim_core::SimTime;

fn cache(capacity: u64) -> BlockCache {
    BlockCache::new(CacheConfig::buffered(capacity))
}

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

#[test]
fn obs_counters_track_probes_and_flush_batches() {
    let mut c = cache(256 * KB);
    // Cold read: every index probe falls through to the map.
    c.read(t(0), 1, 1, 0, 16 * KB);
    let o = c.obs_counters();
    assert_eq!(o.miss_blocks, 4);
    assert!(o.unhinted_index_probes > 0);
    assert_eq!(o.flush_batches, 0);
    // A contiguous re-read runs the page hint: probes after the first
    // stay hinted.
    c.read(t(1), 1, 1, 0, 16 * KB);
    let o2 = c.obs_counters();
    assert_eq!(o2.hit_blocks, 4);
    assert!(
        o2.hinted_index_probes > o.hinted_index_probes,
        "sequential blocks should reuse the page hint: {o2:?}"
    );
    // Dirty data produces exactly one non-empty flush batch; an empty
    // poll does not count.
    c.write(t(2), 1, 1, 0, 8 * KB);
    let batch = c.take_flush_batch(t(3), u64::MAX);
    assert!(!batch.is_empty());
    assert_eq!(c.obs_counters().flush_batches, 1);
    c.take_flush_batch(t(4), u64::MAX);
    assert_eq!(c.obs_counters().flush_batches, 1);
}

#[test]
fn contains_leaves_the_counters_unchanged() {
    let mut c = cache(256 * KB);
    c.read(t(0), 1, 1, 0, 16 * KB);
    let before = c.obs_counters();
    assert!(c.contains(1, 0));
    assert!(c.contains(1, 12 * KB));
    assert!(!c.contains(1, 16 * KB), "same page, absent block");
    assert!(!c.contains(1, 1024 * KB), "absent page");
    assert!(!c.contains(2, 0), "absent file");
    assert_eq!(c.obs_counters(), before);
}

#[test]
fn cold_read_misses_then_hits() {
    let mut c = cache(64 * KB);
    let r1 = c.read(t(0), 1, 1, 0, 8 * KB);
    assert_eq!(r1.miss_blocks, 2);
    assert_eq!(r1.hit_blocks, 0);
    assert_eq!(r1.fetches, vec![ByteRange { file_id: 1, offset: 0, length: 8 * KB }]);
    let r2 = c.read(t(1), 1, 1, 0, 8 * KB);
    assert_eq!(r2.miss_blocks, 0);
    assert_eq!(r2.hit_blocks, 2);
    assert!(r2.fetches.is_empty());
    c.stats().check_invariants();
}

#[test]
fn unaligned_read_touches_straddled_blocks() {
    let mut c = cache(64 * KB);
    // 4 KB blocks: a 6 KB read at offset 2 KB touches blocks 0 and 1.
    let r = c.read(t(0), 1, 1, 2 * KB, 6 * KB);
    assert_eq!(r.miss_blocks, 2);
    assert_eq!(r.fetches[0].length, 8 * KB);
}

#[test]
fn sequential_reads_trigger_same_size_prefetch() {
    let mut c = cache(256 * KB);
    let r1 = c.read(t(0), 1, 1, 0, 16 * KB);
    assert!(r1.prefetch.is_empty(), "first read is not yet sequential");
    let r2 = c.read(t(1), 1, 1, 16 * KB, 16 * KB);
    assert_eq!(
        r2.prefetch,
        vec![ByteRange { file_id: 1, offset: 32 * KB, length: 16 * KB }],
        "second sequential read prefetches the same amount ahead"
    );
    // Third read hits entirely in prefetched data.
    let r3 = c.read(t(2), 1, 1, 32 * KB, 16 * KB);
    assert_eq!(r3.miss_blocks, 0);
    assert_eq!(r3.readahead_hit_blocks, 4);
    // And keeps the pipeline going.
    assert!(!r3.prefetch.is_empty());
    c.stats().check_invariants();
}

#[test]
fn non_sequential_reads_do_not_prefetch() {
    let mut c = cache(256 * KB);
    c.read(t(0), 1, 1, 0, 16 * KB);
    let r = c.read(t(1), 1, 1, 64 * KB, 16 * KB);
    assert!(r.prefetch.is_empty());
}

#[test]
fn read_ahead_disabled_never_prefetches() {
    let mut cfg = CacheConfig::buffered(256 * KB);
    cfg.read_ahead = false;
    let mut c = BlockCache::new(cfg);
    c.read(t(0), 1, 1, 0, 16 * KB);
    let r = c.read(t(1), 1, 1, 16 * KB, 16 * KB);
    assert!(r.prefetch.is_empty());
    assert_eq!(c.stats().prefetched_blocks, 0);
}

#[test]
fn write_behind_buffers_and_flushes() {
    let mut c = cache(64 * KB);
    let w = c.write(t(0), 1, 1, 0, 8 * KB);
    assert!(w.write_through.is_empty());
    assert_eq!(w.dirtied_blocks, 2);
    assert_eq!(c.dirty_bytes(), 8 * KB);
    assert!(c.has_flushable(t(0)));
    let batch = c.take_flush_batch(t(0), u64::MAX);
    assert_eq!(batch, vec![ByteRange { file_id: 1, offset: 0, length: 8 * KB }]);
    assert_eq!(c.dirty_bytes(), 0);
    // Data still resident after flushing.
    assert!(c.contains(1, 0));
}

#[test]
fn write_through_returns_sync_ranges() {
    let mut c = BlockCache::new(CacheConfig::unbuffered(64 * KB));
    let w = c.write(t(0), 1, 1, 0, 8 * KB);
    assert_eq!(w.write_through.len(), 1);
    assert_eq!(w.dirtied_blocks, 0);
    assert_eq!(c.dirty_bytes(), 0);
    assert!(!c.has_flushable(t(0)));
}

#[test]
fn delayed_writes_age_before_flushing() {
    let mut cfg = CacheConfig::buffered(64 * KB);
    cfg.write_policy = WritePolicy::sprite();
    let mut c = BlockCache::new(cfg);
    c.write(t(0), 1, 1, 0, 4 * KB);
    assert!(!c.has_flushable(t(10)), "too young to flush");
    assert!(c.take_flush_batch(t(10), u64::MAX).is_empty());
    assert!(c.has_flushable(t(31)));
    assert_eq!(c.take_flush_batch(t(31), u64::MAX).len(), 1);
    assert_eq!(c.next_flush_ready(), None);
}

#[test]
fn rewriting_dirty_block_does_not_duplicate_flush() {
    let mut c = cache(64 * KB);
    c.write(t(0), 1, 1, 0, 4 * KB);
    c.write(t(1), 1, 1, 0, 4 * KB); // same block, still dirty
    let batch = c.take_flush_batch(t(2), u64::MAX);
    assert_eq!(batch.len(), 1);
    assert!(c.take_flush_batch(t(3), u64::MAX).is_empty());
}

#[test]
fn flush_batch_respects_byte_budget() {
    let mut c = cache(256 * KB);
    c.write(t(0), 1, 1, 0, 32 * KB); // 8 dirty blocks
    let batch = c.take_flush_batch(t(1), 12 * KB); // 3 blocks fit
    let bytes: u64 = batch.iter().map(|r| r.length).sum();
    assert_eq!(bytes, 12 * KB);
    assert_eq!(c.dirty_bytes(), 20 * KB);
}

#[test]
fn lru_eviction_drops_oldest_clean_block() {
    let mut c = cache(16 * KB); // 4 blocks
    c.read(t(0), 1, 1, 0, 4 * KB);
    c.read(t(1), 1, 1, 4 * KB, 4 * KB);
    c.read(t(2), 1, 1, 8 * KB, 4 * KB);
    c.read(t(3), 1, 1, 12 * KB, 4 * KB);
    // Touch block 0 so block 1 is LRU.
    c.read(t(4), 1, 1, 0, 4 * KB);
    let r = c.read(t(5), 1, 1, 16 * KB, 4 * KB);
    assert!(r.writebacks.is_empty(), "clean eviction needs no writeback");
    assert!(c.contains(1, 0), "recently touched block survives");
    assert!(!c.contains(1, 4 * KB), "LRU block evicted");
}

#[test]
fn evicting_dirty_block_produces_writeback() {
    let mut c = cache(8 * KB); // 2 blocks
    c.write(t(0), 1, 1, 0, 8 * KB); // both blocks dirty
    let r = c.read(t(1), 1, 1, 16 * KB, 8 * KB); // displaces both
    let wb_bytes: u64 = r.writebacks.iter().map(|r| r.length).sum();
    assert_eq!(wb_bytes, 8 * KB);
    assert_eq!(c.stats().dirty_evictions, 2);
    // The flush queue entry for the evicted block is stale and must
    // not produce duplicate traffic.
    assert!(c.take_flush_batch(t(2), u64::MAX).is_empty());
}

#[test]
fn capacity_is_never_exceeded() {
    let mut c = cache(32 * KB); // 8 blocks
    for i in 0..100u64 {
        c.read(t(i), 1, 1, i * 4 * KB, 4 * KB);
        assert!(c.resident_blocks() <= 8, "resident {} at i {}", c.resident_blocks(), i);
    }
}

#[test]
fn request_larger_than_cache_streams_through() {
    let mut c = cache(16 * KB); // 4 blocks
    let r = c.read(t(0), 1, 1, 0, 64 * KB); // 16 blocks
    assert_eq!(r.miss_blocks, 16);
    assert!(c.resident_blocks() <= 4);
    c.stats().check_invariants();
}

#[test]
fn per_process_cap_evicts_own_blocks_first() {
    let mut cfg = CacheConfig::buffered(64 * KB); // 16 blocks
    cfg.per_process_cap_blocks = Some(4);
    cfg.read_ahead = false;
    let mut c = BlockCache::new(cfg);
    // Process 2 installs 4 blocks first.
    c.read(t(0), 2, 2, 0, 16 * KB);
    // Process 1 then streams 8 blocks; with a cap of 4 it must evict
    // its own, leaving process 2's resident.
    for i in 0..8u64 {
        c.read(t(1 + i), 1, 1, i * 4 * KB, 4 * KB);
    }
    for b in 0..4u64 {
        assert!(c.contains(2, b * 4 * KB), "hogging victim's block {b} evicted");
    }
    let p1_resident = (0..8u64).filter(|&b| c.contains(1, b * 4 * KB)).count();
    assert!(p1_resident <= 5, "cap not enforced: {p1_resident} blocks resident");
}

#[test]
fn without_cap_hog_takes_over() {
    let mut cfg = CacheConfig::buffered(32 * KB); // 8 blocks
    cfg.read_ahead = false;
    let mut c = BlockCache::new(cfg);
    c.read(t(0), 2, 2, 0, 8 * KB); // 2 blocks for process 2
    for i in 0..8u64 {
        c.read(t(1 + i), 1, 1, i * 4 * KB, 4 * KB);
    }
    assert!(!c.contains(2, 0), "hog should displace the other process");
}

#[test]
fn wasted_prefetch_is_counted() {
    let mut c = cache(32 * KB); // 8 blocks
    // Trigger a prefetch, then stream unrelated data to evict it
    // before use.
    c.read(t(0), 1, 1, 0, 4 * KB);
    c.read(t(1), 1, 1, 4 * KB, 4 * KB); // prefetches blk 2
    for i in 0..8u64 {
        c.read(t(2 + i), 1, 2, i * 4 * KB, 4 * KB);
    }
    assert!(c.stats().wasted_prefetch_blocks >= 1);
    c.stats().check_invariants();
}

#[test]
fn flush_all_cleans_everything() {
    let mut cfg = CacheConfig::buffered(64 * KB);
    cfg.write_policy = WritePolicy::sprite();
    let mut c = BlockCache::new(cfg);
    c.write(t(0), 1, 1, 0, 8 * KB);
    c.write(t(1), 1, 2, 0, 4 * KB);
    let ranges = c.flush_all();
    let bytes: u64 = ranges.iter().map(|r| r.length).sum();
    assert_eq!(bytes, 12 * KB);
    assert_eq!(c.dirty_bytes(), 0);
    assert!(c.flush_all().is_empty());
}

#[test]
fn zero_length_accesses_are_noops() {
    let mut c = cache(32 * KB);
    let r = c.read(t(0), 1, 1, 0, 0);
    assert_eq!(r.hit_blocks + r.miss_blocks, 0);
    let w = c.write(t(0), 1, 1, 0, 0);
    assert_eq!(w.dirtied_blocks, 0);
    assert_eq!(c.resident_blocks(), 0);
}

#[test]
fn interleaved_files_keep_independent_seq_tracking() {
    let mut c = cache(1024 * KB);
    c.read(t(0), 1, 1, 0, 16 * KB);
    c.read(t(1), 1, 2, 0, 16 * KB);
    // Sequential continuation on each file still detected.
    let r1 = c.read(t(2), 1, 1, 16 * KB, 16 * KB);
    let r2 = c.read(t(3), 1, 2, 16 * KB, 16 * KB);
    assert!(!r1.prefetch.is_empty());
    assert!(!r2.prefetch.is_empty());
}

#[test]
fn stats_bytes_track_logical_traffic() {
    let mut c = cache(64 * KB);
    c.read(t(0), 1, 1, 0, 10_000);
    c.write(t(1), 1, 1, 0, 5_000);
    assert_eq!(c.stats().bytes_read, 10_000);
    assert_eq!(c.stats().bytes_written, 5_000);
    assert_eq!(c.stats().read_calls, 1);
    assert_eq!(c.stats().write_calls, 1);
}
