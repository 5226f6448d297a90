//! Differential test: `BlockCache` against a naive per-block reference
//! model.
//!
//! The model keeps the recency list as a `Vec` (least recent first), the
//! per-block state in a `HashMap` and the flush queue as one `VecDeque`
//! entry per dirtied block, and does every list operation one block at a
//! time. The real cache does its list and flush-queue work once per run
//! of blocks, so driving both with the same operations and comparing
//! after every step checks that the batching is invisible: the same
//! outcomes, statistics, resident set, eviction order and dirty bytes.
//!
//! The model also counts page-index probes the way a per-block cache
//! does, so the real cache's `obs` probe counters, which every report
//! serializes, are checked block for block: a slab of 64-block pages
//! with a LIFO free list and a map from page key to slab slot, a page
//! retired when its last block leaves, and a caller-carried page hint
//! that answers a probe without the map when it names a live page with
//! the probed key. Each `read` (demand and read-ahead loops together),
//! `write` and flush batch carries one hint from a cold start; victim
//! removals share one hint for the cache's lifetime; an ownership-cap
//! victim is always looked up through the map.

use buffer_cache::{BlockCache, ByteRange, CacheConfig, CacheStats, WritePolicy};
use obs::CacheCounters;
use proptest::prelude::*;
use sim_core::units::KB;
use sim_core::{SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};

type Key = (u32, u64);

#[derive(Debug, Clone, Copy)]
struct Blk {
    owner: u32,
    dirty: bool,
    prefetched: bool,
    dirty_since: SimTime,
}

type PageKey = (u32, u64);

/// Blocks per index page.
const PAGE_BLOCKS: u64 = 64;

/// Hint value naming no page.
const NO_HINT: usize = usize::MAX;

/// The page index's probe accounting, one probe per block lookup.
#[derive(Default)]
struct Pages {
    map: HashMap<PageKey, usize>,
    /// Slab of `(page key, live blocks)`; live 0 means retired.
    slab: Vec<(PageKey, u64)>,
    /// Retired slab slots, reused last in, first out.
    free: Vec<usize>,
    hinted: u64,
    unhinted: u64,
}

fn page_of(key: Key) -> PageKey {
    (key.0, key.1 / PAGE_BLOCKS)
}

impl Pages {
    /// One probe for `pk`: answered by `hint` when it names the live page
    /// with that key, otherwise by the map, which re-aims the hint.
    fn probe(&mut self, pk: PageKey, hint: &mut usize) -> Option<usize> {
        if let Some(&(k, live)) = self.slab.get(*hint) {
            if k == pk && live > 0 {
                self.hinted += 1;
                return Some(*hint);
            }
        }
        self.unhinted += 1;
        let slot = *self.map.get(&pk)?;
        *hint = slot;
        Some(slot)
    }

    /// Probe for a block's page (a lookup; its outcome lives in `blocks`).
    fn get(&mut self, key: Key, hint: &mut usize) {
        self.probe(page_of(key), hint);
    }

    /// Probe for an installed block's page, creating the page when absent.
    fn insert(&mut self, key: Key, hint: &mut usize) {
        let pk = page_of(key);
        let slot = match self.probe(pk, hint) {
            Some(slot) => slot,
            None => {
                let slot = match self.free.pop() {
                    Some(slot) => {
                        self.slab[slot].0 = pk;
                        slot
                    }
                    None => {
                        self.slab.push((pk, 0));
                        self.slab.len() - 1
                    }
                };
                self.map.insert(pk, slot);
                *hint = slot;
                slot
            }
        };
        self.slab[slot].1 += 1;
    }

    /// Probe for an evicted block's page and drop the block, retiring the
    /// page when it empties.
    fn remove(&mut self, key: Key, hint: &mut usize) {
        let pk = page_of(key);
        let slot = self.probe(pk, hint).expect("evicted block's page is live");
        self.slab[slot].1 -= 1;
        if self.slab[slot].1 == 0 {
            self.map.remove(&pk);
            self.free.push(slot);
        }
    }
}

/// The reference: the cache's documented behavior, one block at a time.
struct Model {
    cfg: CacheConfig,
    /// Recency list, least recently used first.
    lru: Vec<Key>,
    blocks: HashMap<Key, Blk>,
    /// One `(block, dirty_since, ready_at)` per dirtied block.
    flush_q: VecDeque<(Key, SimTime, SimTime)>,
    /// Per-owner recency (least recent first), kept only under a cap.
    per_owner: HashMap<u32, Vec<Key>>,
    owner_counts: HashMap<u32, u64>,
    seq: HashMap<(u32, u32), u64>,
    stats: CacheStats,
    pages: Pages,
    /// The victim-removal hint, kept for the cache's lifetime.
    evict_hint: usize,
    flush_batches: u64,
}

#[derive(Debug, Default, PartialEq)]
struct ReadOut {
    hit_blocks: u64,
    readahead_hit_blocks: u64,
    miss_blocks: u64,
    fetches: Vec<ByteRange>,
    prefetch: Vec<ByteRange>,
    writebacks: Vec<ByteRange>,
}

#[derive(Debug, Default, PartialEq)]
struct WriteOut {
    write_through: Vec<ByteRange>,
    writebacks: Vec<ByteRange>,
    dirtied_blocks: u64,
}

fn touch(list: &mut Vec<Key>, key: Key) {
    list.retain(|k| *k != key);
    list.push(key);
}

/// Merge sorted block keys into per-file byte ranges.
fn coalesce(mut keys: Vec<Key>, bs: u64) -> Vec<ByteRange> {
    keys.sort_unstable();
    let mut out: Vec<ByteRange> = Vec::new();
    for (file_id, b) in keys {
        match out.last_mut() {
            Some(r) if r.file_id == file_id && r.end() == b * bs => r.length += bs,
            _ => out.push(ByteRange { file_id, offset: b * bs, length: bs }),
        }
    }
    out
}

/// Push one block onto a list of per-run ranges, extending the last run
/// when the block continues it.
fn push_block(ranges: &mut Vec<ByteRange>, file_id: u32, b: u64, bs: u64) {
    match ranges.last_mut() {
        Some(r) if r.file_id == file_id && r.end() == b * bs => r.length += bs,
        _ => ranges.push(ByteRange { file_id, offset: b * bs, length: bs }),
    }
}

impl Model {
    fn new(cfg: CacheConfig) -> Model {
        Model {
            cfg,
            lru: Vec::new(),
            blocks: HashMap::new(),
            flush_q: VecDeque::new(),
            per_owner: HashMap::new(),
            owner_counts: HashMap::new(),
            seq: HashMap::new(),
            stats: CacheStats::default(),
            pages: Pages::default(),
            evict_hint: NO_HINT,
            flush_batches: 0,
        }
    }

    fn obs_counters(&self) -> CacheCounters {
        CacheCounters {
            hit_blocks: self.stats.hit_blocks,
            miss_blocks: self.stats.miss_blocks,
            clean_evictions: self.stats.clean_evictions,
            dirty_evictions: self.stats.dirty_evictions,
            hinted_index_probes: self.pages.hinted,
            unhinted_index_probes: self.pages.unhinted,
            flush_batches: self.flush_batches,
        }
    }

    fn capped(&self) -> bool {
        self.cfg.per_process_cap_blocks.is_some()
    }

    fn span(&self, offset: u64, length: u64) -> (u64, u64) {
        let bs = self.cfg.block_size;
        (offset / bs, (offset + length - 1) / bs)
    }

    fn hit(&mut self, key: Key) {
        touch(&mut self.lru, key);
        if self.capped() {
            let owner = self.blocks[&key].owner;
            touch(self.per_owner.entry(owner).or_default(), key);
        }
    }

    fn evict(&mut self, key: Key, writebacks: &mut Vec<ByteRange>) {
        let blk = self.blocks.remove(&key).expect("victim is resident");
        self.pages.remove(key, &mut self.evict_hint);
        self.lru.retain(|k| *k != key);
        if self.capped() {
            if let Some(own) = self.per_owner.get_mut(&blk.owner) {
                own.retain(|k| *k != key);
            }
            if let Some(c) = self.owner_counts.get_mut(&blk.owner) {
                *c = c.saturating_sub(1);
            }
        }
        if blk.prefetched {
            self.stats.wasted_prefetch_blocks += 1;
        }
        let bs = self.cfg.block_size;
        if blk.dirty {
            self.stats.dirty_evictions += 1;
            self.stats.device_bytes_written += bs;
            writebacks.push(ByteRange { file_id: key.0, offset: key.1 * bs, length: bs });
        } else {
            self.stats.clean_evictions += 1;
        }
    }

    /// Least recently used unpinned block; pinned blocks passed over on
    /// the way become most recent. When every block is pinned, the least
    /// recent one goes.
    fn select_victim(&mut self, pinned: &dyn Fn(&Key) -> bool) -> Key {
        if let Some(i) = self.lru.iter().position(|k| !pinned(k)) {
            let passed: Vec<Key> = self.lru.drain(..i).collect();
            self.lru.extend(passed);
        }
        self.lru[0]
    }

    fn select_own_victim(&mut self, owner: u32, pinned: &dyn Fn(&Key) -> bool) -> Option<Key> {
        let own = self.per_owner.get_mut(&owner)?;
        let victim = match own.iter().position(|k| !pinned(k)) {
            Some(i) => own[i],
            None => *own.first()?,
        };
        // Pinned blocks passed over become the owner's most recent.
        let i = own.iter().position(|k| *k == victim).expect("victim is listed");
        let passed: Vec<Key> = own.drain(..i).collect();
        own.remove(0);
        own.extend(passed);
        Some(victim)
    }

    #[allow(clippy::too_many_arguments)]
    fn install(
        &mut self,
        key: Key,
        owner: u32,
        dirty: bool,
        prefetched: bool,
        now: SimTime,
        pinned: &dyn Fn(&Key) -> bool,
        writebacks: &mut Vec<ByteRange>,
        hint: &mut usize,
    ) {
        while self.blocks.len() as u64 >= self.cfg.capacity_blocks() {
            let victim = self.select_victim(pinned);
            self.evict(victim, writebacks);
        }
        self.pages.insert(key, hint);
        self.blocks.insert(key, Blk { owner, dirty, prefetched, dirty_since: now });
        self.lru.push(key);
        if let Some(cap) = self.cfg.per_process_cap_blocks {
            *self.owner_counts.entry(owner).or_insert(0) += 1;
            touch(self.per_owner.entry(owner).or_default(), key);
            while self.owner_counts[&owner] > cap {
                match self.select_own_victim(owner, pinned) {
                    Some(victim) => {
                        // Found through the map, with no hint.
                        let mut no_hint = NO_HINT;
                        self.pages.get(victim, &mut no_hint);
                        self.evict(victim, writebacks);
                    }
                    None => break,
                }
            }
        }
    }

    fn enqueue_flush(&mut self, key: Key, now: SimTime) {
        let ready_at = match self.cfg.write_policy {
            WritePolicy::WriteThrough => return,
            WritePolicy::WriteBehind => now,
            WritePolicy::Delayed(d) => now + d,
        };
        self.flush_q.push_back((key, now, ready_at));
    }

    fn read(&mut self, now: SimTime, pid: u32, file_id: u32, offset: u64, length: u64) -> ReadOut {
        let mut out = ReadOut::default();
        self.stats.read_calls += 1;
        self.stats.bytes_read += length;
        if length == 0 {
            return out;
        }
        let bs = self.cfg.block_size;
        let (first, last) = self.span(offset, length);
        let pinned = move |k: &Key| k.0 == file_id && (first..=last).contains(&k.1);
        let mut hint = NO_HINT;
        for b in first..=last {
            let key = (file_id, b);
            self.stats.accessed_blocks += 1;
            self.pages.get(key, &mut hint);
            if let Some(blk) = self.blocks.get_mut(&key) {
                self.stats.hit_blocks += 1;
                out.hit_blocks += 1;
                if blk.prefetched {
                    blk.prefetched = false;
                    self.stats.readahead_hit_blocks += 1;
                    out.readahead_hit_blocks += 1;
                }
                self.hit(key);
            } else {
                self.stats.miss_blocks += 1;
                out.miss_blocks += 1;
                push_block(&mut out.fetches, file_id, b, bs);
                self.install(key, pid, false, false, now, &pinned, &mut out.writebacks, &mut hint);
            }
        }
        self.stats.device_bytes_read += out.fetches.iter().map(|r| r.length).sum::<u64>();
        if self.cfg.read_ahead && self.seq.get(&(pid, file_id)) == Some(&offset) {
            let (pf_first, pf_last) = self.span(offset + length, length);
            for b in pf_first..=pf_last {
                let key = (file_id, b);
                self.pages.get(key, &mut hint);
                if !self.blocks.contains_key(&key) {
                    push_block(&mut out.prefetch, file_id, b, bs);
                    let wb = &mut out.writebacks;
                    self.install(key, pid, false, true, now, &pinned, wb, &mut hint);
                    self.stats.prefetched_blocks += 1;
                }
            }
            self.stats.device_bytes_read += out.prefetch.iter().map(|r| r.length).sum::<u64>();
        }
        self.seq.insert((pid, file_id), offset + length);
        out
    }

    fn write(
        &mut self,
        now: SimTime,
        pid: u32,
        file_id: u32,
        offset: u64,
        length: u64,
    ) -> WriteOut {
        let mut out = WriteOut::default();
        self.stats.write_calls += 1;
        self.stats.bytes_written += length;
        if length == 0 {
            return out;
        }
        let bs = self.cfg.block_size;
        let (first, last) = self.span(offset, length);
        let pinned = move |k: &Key| k.0 == file_id && (first..=last).contains(&k.1);
        let write_through = self.cfg.write_policy == WritePolicy::WriteThrough;
        let mut hint = NO_HINT;
        for b in first..=last {
            let key = (file_id, b);
            self.stats.accessed_blocks += 1;
            self.pages.get(key, &mut hint);
            if let Some(blk) = self.blocks.get_mut(&key) {
                self.stats.hit_blocks += 1;
                blk.prefetched = false;
                if !write_through && !blk.dirty {
                    blk.dirty = true;
                    blk.dirty_since = now;
                    out.dirtied_blocks += 1;
                    self.enqueue_flush(key, now);
                }
                self.hit(key);
            } else {
                self.stats.miss_blocks += 1;
                let dirty = !write_through;
                self.install(key, pid, dirty, false, now, &pinned, &mut out.writebacks, &mut hint);
                if !write_through {
                    out.dirtied_blocks += 1;
                    self.enqueue_flush(key, now);
                }
            }
        }
        if write_through {
            let range = ByteRange { file_id, offset: first * bs, length: (last + 1 - first) * bs };
            self.stats.device_bytes_written += range.length;
            out.write_through.push(range);
        }
        self.seq.insert((pid, file_id), offset + length);
        out
    }

    fn take_flush_batch(&mut self, now: SimTime, max_bytes: u64) -> Vec<ByteRange> {
        let bs = self.cfg.block_size;
        let mut budget = max_bytes;
        let mut keys = Vec::new();
        let mut hint = NO_HINT;
        while budget >= bs {
            match self.flush_q.front() {
                Some(&(_, _, ready_at)) if ready_at <= now => {}
                _ => break,
            }
            let (key, dirty_since, _) = self.flush_q.pop_front().expect("front observed");
            self.pages.get(key, &mut hint);
            if let Some(blk) = self.blocks.get_mut(&key) {
                if blk.dirty && blk.dirty_since == dirty_since {
                    blk.dirty = false;
                    keys.push(key);
                    budget -= bs;
                }
            }
        }
        let ranges = coalesce(keys, bs);
        self.stats.device_bytes_written += ranges.iter().map(|r| r.length).sum::<u64>();
        if !ranges.is_empty() {
            self.flush_batches += 1;
        }
        ranges
    }

    fn flush_all(&mut self) -> Vec<ByteRange> {
        let mut keys = Vec::new();
        for (k, blk) in self.blocks.iter_mut() {
            if blk.dirty {
                blk.dirty = false;
                keys.push(*k);
            }
        }
        self.flush_q.clear();
        let ranges = coalesce(keys, self.cfg.block_size);
        self.stats.device_bytes_written += ranges.iter().map(|r| r.length).sum::<u64>();
        ranges
    }

    fn dirty_bytes(&self) -> u64 {
        self.blocks.values().filter(|b| b.dirty).count() as u64 * self.cfg.block_size
    }

    fn next_flush_ready(&self) -> Option<SimTime> {
        self.flush_q.front().map(|&(_, _, r)| r)
    }
}

/// One operation, with positions in blocks so a case works at either
/// block size.
#[derive(Debug, Clone, Copy)]
enum Op {
    Read(Access),
    Write(Access),
    /// Flush with a budget of `half_blocks` half blocks: from under one
    /// block to a few runs' worth.
    Flush { half_blocks: u64 },
    /// Let simulated time pass (delayed writes age).
    Wait { ms: u64 },
    /// Stop the clock: the next operation runs at the same instant as the
    /// one before this (every other step advances it 20 ms first).
    Hold,
}

#[derive(Debug, Clone, Copy)]
struct Access {
    pid: u32,
    file: u32,
    /// First block touched.
    block: u64,
    /// Blocks spanned.
    blocks: u64,
    /// 1–3: start `skew` quarter blocks in and end `skew` bytes short of
    /// the last block's end; otherwise block aligned.
    skew: u64,
}

impl Access {
    fn bytes(&self, bs: u64) -> (u64, u64) {
        match self.skew {
            s @ 1..=3 => (self.block * bs + s * bs / 4, self.blocks * bs - s * bs / 4 - s),
            _ => (self.block * bs, self.blocks * bs),
        }
    }
}

/// Requests of up to 24 blocks over a 32-block window of two files, so
/// requests larger than the smallest caches, re-reads of resident runs
/// and sequential continuations all come up often. Half the windows
/// start 12 blocks short of the first 64-block index page's end, so
/// requests and read-ahead cross pages; an occasional request spans
/// 56–140 blocks, whole pages included.
fn arb_access() -> impl Strategy<Value = Access> {
    (
        1u32..4,
        1u32..3,
        prop::sample::select(vec![0u64, PAGE_BLOCKS - 12]),
        0u64..32,
        prop_oneof![1u64..24, 1u64..24, 1u64..24, 56u64..140],
        0u64..6,
    )
        .prop_map(|(pid, file, window, block, blocks, skew)| Access {
            pid,
            file,
            block: window + block,
            blocks,
            skew,
        })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_access().prop_map(Op::Read),
        arb_access().prop_map(Op::Read),
        arb_access().prop_map(Op::Read),
        arb_access().prop_map(Op::Write),
        arb_access().prop_map(Op::Write),
        (0u64..12).prop_map(|half_blocks| Op::Flush { half_blocks }),
        (1u64..200).prop_map(|ms| Op::Wait { ms }),
        Just(Op::Hold),
    ]
}

fn arb_config() -> impl Strategy<Value = CacheConfig> {
    (
        // Caches of one to four blocks, and a few larger ones.
        prop_oneof![1u64..5, Just(8u64), Just(24u64), Just(96u64)],
        prop::sample::select(vec![4u64 * KB, 8 * KB]),
        any::<bool>(),
        0u8..4,
        prop::option::of(1u64..6),
    )
        .prop_map(|(blocks, block_size, read_ahead, wp, cap)| CacheConfig {
            capacity: blocks * block_size,
            block_size,
            read_ahead,
            write_policy: match wp {
                0 => WritePolicy::WriteThrough,
                1 => WritePolicy::WriteBehind,
                2 => WritePolicy::Delayed(SimDuration::from_millis(150)),
                _ => WritePolicy::sprite(),
            },
            per_process_cap_blocks: cap,
        })
}

fn real_read(c: &mut BlockCache, now: SimTime, a: Access) -> ReadOut {
    let (offset, len) = a.bytes(c.config().block_size);
    let o = c.read(now, a.pid, a.file, offset, len);
    ReadOut {
        hit_blocks: o.hit_blocks,
        readahead_hit_blocks: o.readahead_hit_blocks,
        miss_blocks: o.miss_blocks,
        fetches: o.fetches,
        prefetch: o.prefetch,
        writebacks: o.writebacks,
    }
}

fn real_write(c: &mut BlockCache, now: SimTime, a: Access) -> WriteOut {
    let (offset, len) = a.bytes(c.config().block_size);
    let o = c.write(now, a.pid, a.file, offset, len);
    WriteOut {
        write_through: o.write_through,
        writebacks: o.writebacks,
        dirtied_blocks: o.dirtied_blocks,
    }
}

fn assert_same_state(real: &BlockCache, model: &Model, step: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(real.stats(), &model.stats, "stats differ after step {}", step);
    let order: Vec<Key> = real.lru_keys().collect();
    prop_assert_eq!(&order, &model.lru, "recency order differs after step {}", step);
    prop_assert_eq!(real.resident_blocks(), model.blocks.len() as u64);
    prop_assert_eq!(real.dirty_bytes(), model.dirty_bytes(), "dirty bytes after step {}", step);
    prop_assert_eq!(real.next_flush_ready(), model.next_flush_ready());
    prop_assert_eq!(real.obs_counters(), model.obs_counters(), "obs counters after step {}", step);
    Ok(())
}

/// Drive the real cache and the model with `ops` from a cold start,
/// comparing outcomes and state after every step and after a final
/// `flush_all`.
fn replay(config: CacheConfig, ops: &[Op]) -> Result<(), TestCaseError> {
    let bs = config.block_size;
    let mut real = BlockCache::new(config.clone());
    let mut model = Model::new(config);
    let mut now = SimTime::ZERO;
    let mut held = false;
    for (step, op) in ops.iter().enumerate() {
        let hold = matches!(op, Op::Hold);
        if !(held || hold) {
            now += SimDuration::from_millis(20);
        }
        held = hold;
        match *op {
            Op::Read(a) => {
                let (offset, len) = a.bytes(bs);
                let r = real_read(&mut real, now, a);
                let m = model.read(now, a.pid, a.file, offset, len);
                prop_assert_eq!(r, m, "read outcome at step {}", step);
            }
            Op::Write(a) => {
                let (offset, len) = a.bytes(bs);
                let r = real_write(&mut real, now, a);
                let m = model.write(now, a.pid, a.file, offset, len);
                prop_assert_eq!(r, m, "write outcome at step {}", step);
            }
            Op::Flush { half_blocks } => {
                let budget = half_blocks * bs / 2;
                prop_assert_eq!(
                    real.has_flushable(now),
                    model.next_flush_ready().is_some_and(|r| r <= now)
                );
                let r = real.take_flush_batch(now, budget);
                let m = model.take_flush_batch(now, budget);
                prop_assert_eq!(r, m, "flush batch at step {}", step);
            }
            Op::Wait { ms } => now += SimDuration::from_millis(ms),
            Op::Hold => {}
        }
        assert_same_state(&real, &model, step)?;
    }
    prop_assert_eq!(real.flush_all(), model.flush_all());
    assert_same_state(&real, &model, ops.len())?;
    prop_assert_eq!(real.dirty_bytes(), 0);
    Ok(())
}

/// Long runs first, then mostly short accesses inside them: hits that
/// split a run at its front, back or middle, re-reads of whole runs, and
/// runs of two files laid down alternately, so that neighbours in block
/// space are not neighbours in recency. The caches hold from a few runs
/// to all of them, so the splits meet evictions that cross run
/// boundaries inside one page.
fn arb_split_case() -> impl Strategy<Value = (CacheConfig, Vec<Op>)> {
    let access = |blocks: std::ops::Range<u64>| {
        (1u32..3, 1u32..3, 0u64..48, blocks, 0u64..6).prop_map(
            |(pid, file, block, blocks, skew)| Access { pid, file, block, blocks, skew },
        )
    };
    let short = prop_oneof![
        access(1..6).prop_map(Op::Read),
        access(1..6).prop_map(Op::Read),
        access(1..6).prop_map(Op::Write),
        access(12..40).prop_map(Op::Read),
        (0u64..12).prop_map(|half_blocks| Op::Flush { half_blocks }),
    ];
    (
        prop_oneof![Just(12u64), Just(24u64), Just(48u64), Just(128u64)],
        prop::sample::select(vec![4u64 * KB, 8 * KB]),
        any::<bool>(),
        proptest::collection::vec(access(8..40).prop_map(Op::Read), 1..6),
        proptest::collection::vec(short, 1..60),
    )
        .prop_map(|(blocks, block_size, read_ahead, mut ops, short)| {
            ops.extend(short);
            let config = CacheConfig {
                capacity: blocks * block_size,
                block_size,
                read_ahead,
                write_policy: WritePolicy::WriteBehind,
                per_process_cap_blocks: None,
            };
            (config, ops)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn run_granular_cache_matches_the_per_block_model(
        config in arb_config(),
        ops in proptest::collection::vec(arb_op(), 1..120),
    ) {
        replay(config, &ops)?;
    }

    #[test]
    fn extent_splits_and_rejoins_match_the_per_block_model(case in arb_split_case()) {
        replay(case.0, &case.1)?;
    }
}

fn read(pid: u32, file: u32, block: u64, blocks: u64) -> Op {
    Op::Read(Access { pid, file, block, blocks, skew: 0 })
}

fn write(pid: u32, file: u32, block: u64, blocks: u64) -> Op {
    Op::Write(Access { pid, file, block, blocks, skew: 0 })
}

/// Replay a fixed sequence against the model in a write-behind cache of
/// `blocks` blocks, at 4 KB and 8 KB blocks, with and without read-ahead.
fn scenario(blocks: u64, ops: &[Op]) {
    scenario_under(WritePolicy::WriteBehind, blocks, ops);
}

/// [`scenario`] under `write_policy`.
fn scenario_under(write_policy: WritePolicy, blocks: u64, ops: &[Op]) {
    for block_size in [4 * KB, 8 * KB] {
        for read_ahead in [false, true] {
            let config = CacheConfig {
                capacity: blocks * block_size,
                block_size,
                read_ahead,
                write_policy,
                per_process_cap_blocks: None,
            };
            if let Err(e) = replay(config, ops) {
                panic!("{block_size}-byte blocks, read-ahead {read_ahead}: {e}");
            }
        }
    }
}

#[test]
fn a_hit_in_the_middle_of_a_run_splits_it_three_ways() {
    let flush = Op::Flush { half_blocks: 6 };
    scenario(96, &[read(1, 1, 0, 32), read(1, 2, 0, 4), read(1, 1, 10, 4), flush]);
    scenario(96, &[write(1, 1, 0, 32), read(1, 2, 0, 4), read(1, 1, 20, 2), read(1, 1, 0, 32)]);
}

#[test]
fn a_whole_run_re_read_moves_as_one() {
    let (a, b) = (read(1, 1, 0, 8), read(1, 2, 0, 8));
    scenario(32, &[a, b, a, b, a, write(1, 2, 0, 8), a]);
}

#[test]
fn interleaved_files_keep_block_neighbours_apart_in_recency() {
    scenario(
        24,
        &[
            read(1, 1, 0, 4),
            read(2, 2, 0, 4),
            read(1, 1, 4, 4),
            read(2, 2, 4, 4),
            read(1, 1, 8, 4),
            read(2, 2, 8, 4),
            read(1, 1, 2, 8),
            read(2, 2, 0, 12),
            read(1, 1, 0, 12),
            write(1, 1, 3, 6),
        ],
    );
}

#[test]
fn a_request_larger_than_the_cache_streams_through() {
    scenario(4, &[read(1, 1, 0, 3), read(1, 1, 0, 16), write(1, 1, 8, 16), read(1, 2, 60, 12)]);
}

#[test]
fn eviction_crosses_a_run_boundary_inside_one_page() {
    scenario(
        8,
        &[
            read(1, 1, 0, 3),
            write(1, 1, 10, 3),
            read(1, 1, 20, 2),
            read(1, 3, 0, 7),
            read(1, 1, 10, 3),
        ],
    );
}

fn flush(half_blocks: u64) -> Op {
    Op::Flush { half_blocks }
}

#[test]
fn a_budget_ending_on_a_segments_last_valid_block_leaves_stale_entries_queued() {
    // Blocks 0..4 of file 1 are re-read, so file 2 evicts 4..8 and their
    // flush entries go stale behind the four valid ones. A four-block
    // budget ends on block 3; entries 4..8 stay queued until the next
    // batch skips them.
    let ops = [write(1, 1, 0, 8), read(1, 1, 0, 4), read(1, 2, 0, 4), flush(8)];
    scenario(8, &ops);
    scenario(8, &[&ops[..], &[flush(2), write(1, 1, 8, 2), flush(2)]].concat());
}

#[test]
fn a_budget_that_is_not_a_whole_number_of_blocks_takes_whole_blocks() {
    // Re-reading blocks 2..4 makes file 2 evict 0, 1, 4 and 5, so valid
    // and stale entries alternate in one segment. Budgets of 1.5, 2.5
    // and 5.5 blocks take 1, 2 and the last valid block.
    scenario(
        8,
        &[
            write(1, 1, 0, 8),
            read(1, 1, 2, 2),
            read(1, 2, 0, 4),
            flush(3),
            flush(5),
            flush(11),
            flush(1),
        ],
    );
}

#[test]
fn one_batch_spans_two_files_and_merges_adjacent_runs() {
    // Queued out of block order: file 1's two runs join into one range
    // around file 2's, and file 3's write crosses an index page, so its
    // two segments join too.
    let ops =
        [write(1, 1, 0, 4), write(1, 2, 0, 4), write(1, 1, 4, 4), write(1, 3, 60, 8), flush(48)];
    scenario(32, &ops);
    // The same under a budget that ends inside the page-crossing run.
    scenario(32, &[&ops[..4], &[flush(21), flush(48)]].concat());
}

#[test]
fn a_block_evicted_dirty_and_re_installed_dirty_is_flushed_once() {
    // At the same instant, the re-installed block carries its old flush
    // entry's stamp again, so that entry takes it and the new entry goes
    // stale. At a later instant the old entry is the stale one.
    let evict_and_rewrite = |gap: Op| {
        [write(1, 1, 0, 4), gap, read(1, 2, 0, 2), gap, write(1, 1, 0, 2), flush(4), flush(12)]
    };
    scenario(4, &evict_and_rewrite(Op::Hold));
    scenario(4, &evict_and_rewrite(Op::Wait { ms: 5 }));
}

#[test]
fn delayed_writes_flush_only_the_runs_that_are_ready() {
    // Under a 150 ms delay the first two runs age past it before the
    // third, so the first batches take only the front of the queue.
    scenario_under(
        WritePolicy::Delayed(SimDuration::from_millis(150)),
        32,
        &[
            write(1, 1, 0, 4),
            write(1, 2, 0, 4),
            Op::Wait { ms: 100 },
            write(1, 1, 4, 4),
            Op::Wait { ms: 20 },
            flush(48),
            flush(48),
            Op::Wait { ms: 120 },
            flush(3),
            flush(48),
        ],
    );
}

#[test]
fn a_run_whose_page_holds_no_later_dirt_flushes_by_its_stamp_alone() {
    // Each flushed run is the newest dirt in its page: taken whole, under
    // budgets that end inside it, and after a run earlier in the same page
    // was flushed.
    scenario(32, &[write(1, 1, 0, 6), write(1, 2, 0, 6), flush(24), flush(48)]);
    scenario(32, &[write(1, 1, 0, 6), flush(5), flush(3), flush(48), write(1, 1, 6, 4), flush(48)]);
}

#[test]
fn a_page_re_dirtied_after_its_run_was_queued_keeps_its_stale_blocks_queued() {
    // Run 0..8 and run 16..20 share a page. File 2 evicts blocks 0..3,
    // and rewriting 0..2 evicts 3 and 4 and re-dirties 0 and 1. At the
    // same instant blocks 0 and 1 carry the first run's stamp again, so
    // that run takes them; at a later instant they are stale for it and
    // only the rewrite's own run takes them.
    let rewrite = |gap: Op| {
        [
            write(1, 1, 0, 8),
            gap,
            write(1, 1, 16, 4),
            gap,
            read(1, 2, 0, 3),
            gap,
            write(1, 1, 0, 2),
            flush(3),
            flush(48),
            flush(48),
        ]
    };
    scenario(12, &rewrite(Op::Hold));
    scenario(12, &rewrite(Op::Wait { ms: 5 }));
    // Blocks 0 and 1 leave dirty, come back clean into the first run's
    // reused page slot and are rewritten while resident: the rewrite's
    // stamp makes them stale for the first run, so a one-block batch
    // takes block 0 for the rewrite's run and leaves block 1 queued.
    let ops = [write(1, 1, 0, 4), read(1, 2, 0, 2), read(1, 1, 0, 2), write(1, 1, 0, 2)];
    scenario(4, &[&ops[..], &[flush(2), flush(48)]].concat());
}
