//! The block cache state machine.
//!
//! Every method is pure bookkeeping: it mutates resident-block state and
//! returns the device operations the access *implies*. The simulator
//! charges time for them:
//!
//! * `ReadOutcome::fetches` — demand misses; a synchronous read blocks the
//!   process until they complete.
//! * `ReadOutcome::prefetch` — read-ahead fetches; issued asynchronously,
//!   the process does not wait.
//! * `*::writebacks` — dirty blocks evicted to make room; the device must
//!   write them before the frame is reused, stalling the requester.
//! * `WriteOutcome::write_through` — ranges the process must wait for
//!   under [`WritePolicy::WriteThrough`].
//! * [`BlockCache::take_flush_batch`] — background write-behind/delayed
//!   flush traffic.
//!
//! Partial-block writes do not read-modify-write: like the paper's
//! simulator, we work from logical traces with no file-system metadata,
//! and supercomputer accesses are overwhelmingly whole-block sized.

use crate::config::{CacheConfig, WritePolicy};
use crate::lru::LruIndex;
use crate::stats::CacheStats;
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use sim_core::SimTime;
use std::cell::Cell;
use std::collections::VecDeque;

/// A contiguous byte range within one file — the unit of implied device
/// traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ByteRange {
    /// File the range belongs to.
    pub file_id: u32,
    /// Starting byte offset.
    pub offset: u64,
    /// Length in bytes.
    pub length: u64,
}

impl ByteRange {
    /// End offset (exclusive).
    pub fn end(&self) -> u64 {
        self.offset + self.length
    }
}

/// Result of a logical read.
///
/// Reusable: [`BlockCache::read_into`] clears and refills one in place,
/// so a caller that holds an outcome across requests pays no per-request
/// heap allocation once the vectors have grown to their working size.
#[derive(Debug, Clone, Default)]
pub struct ReadOutcome {
    /// Blocks found resident.
    pub hit_blocks: u64,
    /// Resident blocks that were untouched read-ahead data.
    pub readahead_hit_blocks: u64,
    /// Blocks that had to come from the device.
    pub miss_blocks: u64,
    /// Demand fetches (coalesced), to be performed synchronously.
    pub fetches: Vec<ByteRange>,
    /// Read-ahead fetches (coalesced), to be performed asynchronously.
    pub prefetch: Vec<ByteRange>,
    /// Dirty blocks evicted to make room; must be written out.
    pub writebacks: Vec<ByteRange>,
}

impl ReadOutcome {
    /// Reset counters and empty the vectors, keeping their capacity.
    pub fn clear(&mut self) {
        self.hit_blocks = 0;
        self.readahead_hit_blocks = 0;
        self.miss_blocks = 0;
        self.fetches.clear();
        self.prefetch.clear();
        self.writebacks.clear();
    }
}

/// Result of a logical write.
///
/// Reusable like [`ReadOutcome`]: see [`BlockCache::write_into`].
#[derive(Debug, Clone, Default)]
pub struct WriteOutcome {
    /// Ranges the process must synchronously push to the device
    /// (write-through policy only).
    pub write_through: Vec<ByteRange>,
    /// Dirty blocks evicted to make room; must be written out.
    pub writebacks: Vec<ByteRange>,
    /// Blocks newly marked dirty and left in the cache.
    pub dirtied_blocks: u64,
}

impl WriteOutcome {
    /// Reset counters and empty the vectors, keeping their capacity.
    pub fn clear(&mut self) {
        self.write_through.clear();
        self.writebacks.clear();
        self.dirtied_blocks = 0;
    }
}

type Key = (u32, u64); // (file_id, block number)

/// Sentinel slot meaning "no frame".
const NIL: u32 = u32::MAX;

/// One resident cache block: entry state and the intrusive global-LRU
/// links live in a single slab cell. Whether the block is untouched
/// read-ahead data lives in its page's `prefetched` bitmap.
#[derive(Debug, Clone, Copy)]
struct Frame {
    key: Key,
    owner: u32,
    dirty: bool,
    /// When the oldest unwritten data in this block was dirtied.
    dirty_since: SimTime,
    /// Toward the LRU end of the recency list.
    prev: u32,
    /// Toward the MRU end; doubles as the free-list link.
    next: u32,
}

const PAGE_SHIFT: u64 = 6;
const PAGE_BLOCKS: u64 = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = PAGE_BLOCKS - 1;

/// Sentinel page slot meaning "no page" (and, as a hint, "no hint").
const NO_PAGE: u32 = u32::MAX;

/// Bits `i..i + k` of a page bitmap (`1 <= k`, `i + k <= 64`).
#[inline]
fn run_mask(i: u64, k: u64) -> u64 {
    (u64::MAX >> (PAGE_BLOCKS - k)) << i
}

#[derive(Debug)]
struct Page {
    /// Owning page key; hinted lookups check it to self-validate.
    pk: (u32, u64),
    /// Bit `i` set when block `i` of the page is resident. Zero means
    /// the page is retired (on the free list).
    resident: u64,
    /// Bit `i` set when resident block `i` is read-ahead data no demand
    /// access has touched yet.
    prefetched: u64,
    /// Frame slot per block; meaningful only where `resident` is set.
    slots: [u32; PAGE_BLOCKS as usize],
}

/// Sparse paged index from block key to frame slot.
///
/// Requests touch contiguous block runs, so a request resolves each
/// 64-block page it touches once, through a small map from page key to
/// slab slot, and then finds its resident and missing runs in the page's
/// `resident` bitmap with `trailing_zeros` instead of block-by-block
/// lookups. Pages live inline in a slab and the map stores only slab
/// slots, so page churn (streams retiring one page per 64 blocks while
/// opening the next) recycles slab entries through a LIFO free list and
/// never moves page data or allocates.
///
/// Every page resolution takes a caller-owned *hint*: a page slot
/// remembered from an earlier resolution. A hint self-validates against
/// the slab (`pk` match on a live page), so a stale hint — the page was
/// retired or its slab slot reused — costs one compare and falls back to
/// the map.
///
/// The probe counters report what a block-at-a-time lookup through the
/// same hints would count, derived per page segment: a request that
/// resolves a page once and then covers `k` of its blocks adds the one
/// resolution plus `k - 1` hinted probes. Every report serializes them.
#[derive(Debug, Default)]
struct PagedIndex {
    map: FxHashMap<(u32, u64), u32>,
    /// Page slab addressed by the slots stored in `map` and in hints.
    pages: Vec<Page>,
    /// Retired slab slots awaiting reuse.
    free_pages: Vec<u32>,
    len: usize,
    /// Probes answered by the caller's hint (`Cell` because `find_page`
    /// takes `&self`; the cache is never shared across threads).
    probes_hinted: Cell<u64>,
    /// Probes that fell through to the hash map (cold or stale hint).
    probes_unhinted: Cell<u64>,
}

impl PagedIndex {
    #[inline]
    fn split(key: &Key) -> ((u32, u64), u64) {
        ((key.0, key.1 >> PAGE_SHIFT), key.1 & PAGE_MASK)
    }

    /// Resolve `pk` to its slab slot, consulting `hint` first: one probe.
    #[inline]
    fn find_page(&self, pk: (u32, u64), hint: &mut u32) -> Option<u32> {
        if let Some(p) = self.pages.get(*hint as usize) {
            if p.pk == pk && p.resident != 0 {
                self.count_hinted(1);
                return Some(*hint);
            }
        }
        self.count_unhinted(1);
        let s = *self.map.get(&pk)?;
        *hint = s;
        Some(s)
    }

    /// Record `n` probes the caller's hint answers without a lookup.
    #[inline]
    fn count_hinted(&self, n: u64) {
        self.probes_hinted.set(self.probes_hinted.get() + n);
    }

    /// Record `n` probes that fall through to the map.
    #[inline]
    fn count_unhinted(&self, n: u64) {
        self.probes_unhinted.set(self.probes_unhinted.get() + n);
    }

    /// The lookup of block `b` of `file_id`, resolving its page: one
    /// probe. Returns the page slot, or `NO_PAGE`.
    #[inline]
    fn lookup(&self, file_id: u32, b: u64, hint: &mut u32) -> u32 {
        self.find_page((file_id, b >> PAGE_SHIFT), hint).unwrap_or(NO_PAGE)
    }

    /// The page that blocks about to be installed go into: one probe,
    /// creating the page (from the top of the free list) when absent.
    fn page_for_insert(&mut self, pk: (u32, u64), hint: &mut u32) -> u32 {
        if let Some(p) = self.find_page(pk, hint) {
            return p;
        }
        let p = match self.free_pages.pop() {
            Some(p) => {
                let pg = &mut self.pages[p as usize];
                debug_assert_eq!(pg.resident, 0, "free page must be empty");
                pg.pk = pk;
                p
            }
            None => {
                self.pages.push(Page {
                    pk,
                    resident: 0,
                    prefetched: 0,
                    slots: [NIL; PAGE_BLOCKS as usize],
                });
                (self.pages.len() - 1) as u32
            }
        };
        self.map.insert(pk, p);
        *hint = p;
        p
    }

    /// Mark the blocks in `mask` of page `p` resident (they were absent).
    #[inline]
    fn add_blocks(&mut self, p: u32, mask: u64, prefetched: bool) {
        let pg = &mut self.pages[p as usize];
        debug_assert_eq!(pg.resident & mask, 0, "install over a resident block");
        pg.resident |= mask;
        if prefetched {
            pg.prefetched |= mask;
        }
        self.len += mask.count_ones() as usize;
    }

    /// Drop the resident blocks in `mask` from page `p`, retiring the
    /// page when it empties. A retired slab entry parks on the free list
    /// as-is; the map keeps its table capacity after a remove, so page
    /// churn stays allocation-free.
    #[inline]
    fn remove_blocks(&mut self, p: u32, mask: u64) {
        let pg = &mut self.pages[p as usize];
        debug_assert_eq!(pg.resident & mask, mask, "removing an absent block");
        pg.resident &= !mask;
        pg.prefetched &= !mask;
        self.len -= mask.count_ones() as usize;
        if pg.resident == 0 {
            let pk = pg.pk;
            self.map.remove(&pk);
            self.free_pages.push(p);
        }
    }

    /// The frame slot of resident `key`, looked up through the map with
    /// no hint: one unhinted probe.
    fn get_unhinted(&self, key: &Key) -> Option<u32> {
        let mut no_hint = NO_PAGE;
        let (pk, i) = Self::split(key);
        let pg = &self.pages[self.find_page(pk, &mut no_hint)? as usize];
        (pg.resident >> i & 1 == 1).then_some(pg.slots[i as usize])
    }

    /// Whether `key` is resident, without counting a probe.
    fn is_resident(&self, key: &Key) -> bool {
        let (pk, i) = Self::split(key);
        self.map.get(&pk).is_some_and(|&p| self.pages[p as usize].resident >> i & 1 == 1)
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }
}

/// One run of a [`Runs`] walk: blocks `first..first + count`, all
/// resident or all absent, in the page in slab slot `page` (`NO_PAGE`
/// when the page is absent).
#[derive(Debug, Clone, Copy)]
struct Run {
    first: u64,
    count: u64,
    resident: bool,
    page: u32,
}

/// Walks blocks `next..=last` of one file as runs of resident and absent
/// blocks, one 64-block page segment at a time, finding each run with
/// `trailing_zeros` on the page's `resident` bitmap.
///
/// It counts one index probe per block lookup, as a block-by-block walk
/// through the same hint would. The lookup of a segment's first block,
/// and of the block after an install, goes to the index: an ownership-cap
/// trim after an install may have emptied the page. Every other lookup
/// finds the page live in the hint's slot and counts as hinted. The
/// caller installs each absent run with [`BlockCache::install_run`],
/// which counts the lookups inside the run.
#[derive(Debug)]
struct Runs {
    file_id: u32,
    next: u64,
    last: u64,
    /// Last block of the current page segment.
    seg_last: u64,
    page: u32,
    /// The next lookup must go to the index: nothing is resolved yet, or
    /// the blocks before it were just installed.
    lookup_due: bool,
}

impl Runs {
    fn new(file_id: u32, first: u64, last: u64) -> Runs {
        Runs { file_id, next: first, last, seg_last: first, page: NO_PAGE, lookup_due: true }
    }

    #[inline]
    fn next(&mut self, index: &PagedIndex, hint: &mut u32) -> Option<Run> {
        let b = self.next;
        if b > self.last {
            return None;
        }
        if self.lookup_due || b > self.seg_last {
            self.seg_last = self.last.min(b | PAGE_MASK);
            self.page = index.lookup(self.file_id, b, hint);
        } else {
            index.count_hinted(1);
        }
        let bits = match self.page {
            NO_PAGE => 0,
            p => index.pages[p as usize].resident >> (b & PAGE_MASK),
        };
        let resident = bits & 1 == 1;
        let run = if resident { !bits } else { bits };
        let count = u64::from(run.trailing_zeros()).min(self.seg_last - b + 1);
        if resident {
            index.count_hinted(count - 1);
        }
        self.lookup_due = !resident;
        self.next = b + count;
        Some(Run { first: b, count, resident, page: self.page })
    }
}

/// The contiguous block span of the request currently being serviced.
/// Blocks in the span are pinned: eviction spares them while any
/// alternative victim exists. A request always touches one file and one
/// contiguous run of blocks, so a three-word span replaces the
/// per-request `HashSet<Key>` the hot path used to allocate and probe.
#[derive(Debug, Clone, Copy)]
struct PinnedSpan {
    file_id: u32,
    first: u64,
    last: u64,
}

impl PinnedSpan {
    #[inline]
    fn contains(&self, key: &Key) -> bool {
        key.0 == self.file_id && (self.first..=self.last).contains(&key.1)
    }
}

/// Hit slots already linked in order in the recency list, waiting to
/// move to the most-recently-used end together. Touching each slot of
/// such a chain in turn leaves the list exactly as one splice of the
/// whole chain does, so a run of hits pays one splice instead of one
/// unlink/relink per block.
#[derive(Debug, Clone, Copy)]
struct HitChain {
    /// LRU-most slot of the chain; `NIL` when no chain is pending.
    first: u32,
    /// MRU-most slot of the chain.
    last: u32,
}

impl HitChain {
    const EMPTY: HitChain = HitChain { first: NIL, last: NIL };
}

/// Blocks `first..first + count` of `file_id`, dirtied at the same
/// instant and queued for background flush one after another: a run of
/// per-block flush-queue entries folded into one. A write dirties whole
/// runs of blocks at once, so the queue holds one entry per run.
#[derive(Debug, Clone, Copy)]
struct FlushRun {
    file_id: u32,
    first: u64,
    count: u64,
    /// When the run's blocks were dirtied; a block whose frame no longer
    /// carries this stamp was flushed, evicted or re-dirtied since.
    dirty_since: SimTime,
    /// When the run becomes flushable.
    ready_at: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct SeqTrack {
    next_offset: u64,
}

/// The block buffer cache. See the module docs for the interaction
/// contract.
#[derive(Debug)]
pub struct BlockCache {
    config: CacheConfig,
    /// `config.capacity_blocks()`, fixed at construction.
    capacity_blocks: u64,
    /// Resident blocks: key → slot in `frames`.
    index: PagedIndex,
    /// Slab of frames; freed slots chain on `free` via `Frame::next`.
    /// Only the ownership cap frees frames: a full cache recycles its
    /// victims' frames in place.
    frames: Vec<Frame>,
    /// Least recently used end of the recency list.
    head: u32,
    /// Most recently used end of the recency list.
    tail: u32,
    /// Free-list head.
    free: u32,
    /// Per-owner recency and counts exist only to enforce
    /// `per_process_cap_blocks`; when no cap is configured (the common
    /// case) `track_owners` is false and the hot path skips them.
    track_owners: bool,
    per_owner: FxHashMap<u32, LruIndex<Key>>,
    owner_counts: FxHashMap<u32, u64>,
    /// Dirty block runs awaiting background flush, ordered by readiness
    /// time.
    flush_q: VecDeque<FlushRun>,
    /// Resident dirty blocks.
    dirty_blocks: u64,
    /// Per (process, file) sequential-read detector state.
    seq: FxHashMap<(u32, u32), SeqTrack>,
    /// Scratch for flush-batch block keys, reused across batches.
    flush_keys: Vec<Key>,
    /// Scratch for pinned keys skipped while hunting an own-victim,
    /// reused across evictions.
    own_skip: Vec<Key>,
    /// Page hint for victim removals. LRU order is roughly stream order,
    /// so consecutive victims usually share a page.
    evict_hint: u32,
    stats: CacheStats,
    /// Non-empty flush batches handed to the flusher streams.
    flush_batches: u64,
}

impl BlockCache {
    /// Build a cache; panics on invalid geometry.
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        BlockCache {
            track_owners: config.per_process_cap_blocks.is_some(),
            capacity_blocks: config.capacity_blocks(),
            config,
            index: PagedIndex::default(),
            frames: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
            per_owner: FxHashMap::default(),
            owner_counts: FxHashMap::default(),
            flush_q: VecDeque::new(),
            dirty_blocks: 0,
            seq: FxHashMap::default(),
            flush_keys: Vec::new(),
            own_skip: Vec::new(),
            evict_hint: NO_PAGE,
            stats: CacheStats::default(),
            flush_batches: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Observability counters for the `obs` report section: the
    /// paper-facing hit/eviction counts plus index-probe and
    /// flush-batching behavior.
    pub fn obs_counters(&self) -> obs::CacheCounters {
        obs::CacheCounters {
            hit_blocks: self.stats.hit_blocks,
            miss_blocks: self.stats.miss_blocks,
            clean_evictions: self.stats.clean_evictions,
            dirty_evictions: self.stats.dirty_evictions,
            hinted_index_probes: self.index.probes_hinted.get(),
            unhinted_index_probes: self.index.probes_unhinted.get(),
            flush_batches: self.flush_batches,
        }
    }

    /// Number of resident blocks.
    pub fn resident_blocks(&self) -> u64 {
        self.index.len() as u64
    }

    /// Bytes of dirty data currently buffered.
    pub fn dirty_bytes(&self) -> u64 {
        self.dirty_blocks * self.config.block_size
    }

    /// Whether the block containing `offset` of `file_id` is resident
    /// (test/diagnostic helper; leaves every counter unchanged).
    pub fn contains(&self, file_id: u32, offset: u64) -> bool {
        self.index.is_resident(&(file_id, offset / self.config.block_size))
    }

    /// Resident blocks as `(file_id, block)` from least to most recently
    /// used: the order eviction visits them in (test/diagnostic helper).
    pub fn lru_keys(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        let mut i = self.head;
        std::iter::from_fn(move || {
            let f = self.frames.get(i as usize)?;
            i = f.next;
            Some(f.key)
        })
    }

    #[inline]
    fn block_span(&self, offset: u64, length: u64) -> (u64, u64) {
        let bs = self.config.block_size;
        let first = offset / bs;
        let last = (offset + length - 1) / bs;
        (first, last)
    }

    /// Detach slot `i` from the recency list (it stays allocated).
    #[inline]
    fn unlink(&mut self, i: u32) {
        let (prev, next) = (self.frames[i as usize].prev, self.frames[i as usize].next);
        match prev {
            NIL => self.head = next,
            p => self.frames[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.frames[n as usize].prev = prev,
        }
    }

    /// Append slot `i` at the most-recently-used end.
    #[inline]
    fn push_tail(&mut self, i: u32) {
        self.frames[i as usize].prev = self.tail;
        self.frames[i as usize].next = NIL;
        match self.tail {
            NIL => self.head = i,
            t => self.frames[t as usize].next = i,
        }
        self.tail = i;
    }

    /// Move the linked segment `first..=last` (in LRU-to-MRU order) to
    /// the most-recently-used end, keeping its internal order.
    #[inline]
    fn splice_to_tail(&mut self, first: u32, last: u32) {
        if self.tail == last {
            return;
        }
        // `last` is not the tail, so a successor exists and the list is
        // non-empty.
        let prev = self.frames[first as usize].prev;
        let next = self.frames[last as usize].next;
        match prev {
            NIL => self.head = next,
            p => self.frames[p as usize].next = next,
        }
        self.frames[next as usize].prev = prev;
        self.frames[first as usize].prev = self.tail;
        self.frames[self.tail as usize].next = first;
        self.frames[last as usize].next = NIL;
        self.tail = last;
    }

    /// Mark slot `i` most recently used.
    #[inline]
    fn touch_slot(&mut self, i: u32) {
        self.splice_to_tail(i, i);
    }

    /// Record a hit on `slot`: extend the pending chain when `slot`
    /// follows it in the recency list, otherwise move the chain to the
    /// MRU end and start a new one at `slot`.
    #[inline]
    fn chain_hit(&mut self, chain: &mut HitChain, slot: u32) {
        if chain.first != NIL && self.frames[chain.last as usize].next == slot {
            chain.last = slot;
        } else {
            self.splice_chain(chain);
            *chain = HitChain { first: slot, last: slot };
        }
    }

    /// Move the pending chain to the MRU end and empty it. Called before
    /// any eviction walks the list and when a request's demand loop ends.
    #[inline]
    fn splice_chain(&mut self, chain: &mut HitChain) {
        if chain.first != NIL {
            self.splice_to_tail(chain.first, chain.last);
            *chain = HitChain::EMPTY;
        }
    }

    /// Record a run of `k` hits on resident blocks `b..b + k` of `file_id`
    /// in page `p`: chain their frames toward the MRU end and refresh
    /// their owners' recency. Their read-ahead marks are cleared; returns
    /// how many were set.
    fn hit_run(&mut self, p: u32, file_id: u32, b: u64, k: u64, chain: &mut HitChain) -> u64 {
        let i = b & PAGE_MASK;
        let mask = run_mask(i, k);
        let pg = &mut self.index.pages[p as usize];
        let readahead = u64::from((pg.prefetched & mask).count_ones());
        pg.prefetched &= !mask;
        for j in 0..k {
            let slot = self.index.pages[p as usize].slots[(i + j) as usize];
            self.chain_hit(chain, slot);
            if self.track_owners {
                let owner = self.frames[slot as usize].owner;
                self.per_owner.entry(owner).or_default().touch((file_id, b + j));
            }
        }
        readahead
    }

    /// Take a slot off the free list, or grow the slab.
    fn alloc_frame(&mut self, frame: Frame) -> u32 {
        match self.free {
            NIL => {
                self.frames.push(frame);
                (self.frames.len() - 1) as u32
            }
            i => {
                self.free = self.frames[i as usize].next;
                self.frames[i as usize] = frame;
                i
            }
        }
    }

    /// Return slot `i` to the free list. Clears `dirty` so the slab scan
    /// in [`Self::flush_all`] skips freed frames.
    fn free_frame(&mut self, i: u32) {
        let f = &mut self.frames[i as usize];
        f.dirty = false;
        f.next = self.free;
        self.free = i;
    }

    /// Evict `count` blocks: the frame at `first` and those linked after
    /// it toward the MRU end, in that order. Each leaves the index and
    /// the ownership tracking and is accounted for, a dirty one with a
    /// writeback; consecutive victims in one page leave it with one
    /// bitmap update. The frames stay linked and allocated.
    fn evict_chain(&mut self, first: u32, count: u64, writebacks: &mut Vec<ByteRange>) {
        let bs = self.config.block_size;
        let mut slot = first;
        let mut page = NO_PAGE;
        let mut page_key = (0, 0);
        let mut mask = 0u64;
        let (mut clean, mut dirty, mut wasted) = (0, 0, 0);
        for _ in 0..count {
            let f = self.frames[slot as usize];
            let (pk, i) = PagedIndex::split(&f.key);
            if mask != 0 && pk == page_key {
                // Same page as the previous victim: the hint answers.
                self.index.count_hinted(1);
            } else {
                if mask != 0 {
                    self.index.remove_blocks(page, mask);
                }
                page = self
                    .index
                    .find_page(pk, &mut self.evict_hint)
                    .expect("victim must be resident");
                page_key = pk;
                mask = 0;
            }
            mask |= 1 << i;
            wasted += self.index.pages[page as usize].prefetched >> i & 1;
            if self.track_owners {
                if let Some(lru) = self.per_owner.get_mut(&f.owner) {
                    lru.remove(&f.key);
                }
                if let Some(c) = self.owner_counts.get_mut(&f.owner) {
                    *c = c.saturating_sub(1);
                }
            }
            if f.dirty {
                dirty += 1;
                writebacks.push(ByteRange { file_id: f.key.0, offset: f.key.1 * bs, length: bs });
            } else {
                clean += 1;
            }
            slot = f.next;
        }
        if mask != 0 {
            self.index.remove_blocks(page, mask);
        }
        self.stats.wasted_prefetch_blocks += wasted;
        self.stats.clean_evictions += clean;
        self.stats.dirty_evictions += dirty;
        self.stats.device_bytes_written += dirty * bs;
        self.dirty_blocks -= dirty;
    }

    /// The next victims from a full, hence non-empty, cache: the first
    /// slot and how many frames, up to `want`, are evicted in turn from
    /// it toward the MRU end.
    fn select_victim(&mut self, pinned: &PinnedSpan, want: u64) -> (u32, u64) {
        // Global LRU, sparing pinned (in-flight request) blocks while any
        // alternative exists: pinned blocks found at the LRU end are
        // re-touched (they are part of the in-flight request, so making
        // them most recent matches their actual usage) and the walk
        // continues from the new head. When *everything* resident is
        // pinned — a request larger than the whole cache — the request
        // streams through by sacrificing the first pinned block popped,
        // exactly as the old pop-and-requeue loop did.
        //
        // A recycled victim becomes the most recent block, so the
        // unpinned frames right after an unpinned head are the next
        // victims in turn, as long as the walk stays among frames that
        // were resident before this call.
        let mut first_pinned = NIL;
        for _ in 0..self.index.len() {
            let i = self.head;
            if !pinned.contains(&self.frames[i as usize].key) {
                let mut k = 1;
                let mut j = self.frames[i as usize].next;
                while k < want && j != NIL && !pinned.contains(&self.frames[j as usize].key) {
                    k += 1;
                    j = self.frames[j as usize].next;
                }
                return (i, k);
            }
            if first_pinned == NIL {
                first_pinned = i;
            }
            self.touch_slot(i);
        }
        // Cycled through the whole list: everything is pinned.
        (first_pinned, 1)
    }

    /// Pick one of `owner`'s own blocks to evict (ownership-cap
    /// enforcement, §6.2's anti-hogging ablation).
    fn select_own_victim(&mut self, owner: u32, pinned: &PinnedSpan) -> Option<Key> {
        // `own_skip` is a reusable scratch list so cap enforcement stays
        // allocation-free on the hot path.
        let mut skipped = std::mem::take(&mut self.own_skip);
        debug_assert!(skipped.is_empty());
        let mut found = None;
        if let Some(own) = self.per_owner.get_mut(&owner) {
            while let Some(k) = own.pop_lru() {
                if pinned.contains(&k) {
                    skipped.push(k);
                } else {
                    found = Some(k);
                    break;
                }
            }
            if found.is_none() && !skipped.is_empty() {
                found = Some(skipped.remove(0));
            }
            for k in skipped.drain(..) {
                own.touch(k);
            }
        }
        self.own_skip = skipped;
        found
    }

    /// Install the absent blocks `first..first + count` of `file_id`, all
    /// in one page, as most recently used, in block order.
    ///
    /// Each step installs as many blocks as it can with one page update:
    /// into free room, or into a run of victims that are evicted in turn
    /// and whose frames are recycled in place and moved to the MRU end
    /// with one splice. The first victim leaves before the page is
    /// resolved, so pages retire and are created in the same order as
    /// block-by-block installs would. Under an ownership cap each step
    /// installs one block and trims its owner back to the cap.
    #[allow(clippy::too_many_arguments)] // internal state-machine helper
    fn install_run(
        &mut self,
        file_id: u32,
        first: u64,
        count: u64,
        owner: u32,
        dirty: bool,
        prefetched: bool,
        now: SimTime,
        pinned: &PinnedSpan,
        writebacks: &mut Vec<ByteRange>,
        hint: &mut u32,
    ) {
        let pk = (file_id, first >> PAGE_SHIFT);
        let end = first + count;
        let mut b = first;
        while b < end {
            if b > first {
                // This step's first block is looked up after an install,
                // whose ownership-cap trim may have emptied the page.
                self.index.lookup(file_id, b, hint);
            }
            let want = if self.track_owners { 1 } else { end - b };
            let len = self.index.len() as u64;
            debug_assert!(len <= self.capacity_blocks, "cache over capacity");
            let (victim, k) = if len < self.capacity_blocks {
                (NIL, want.min(self.capacity_blocks - len))
            } else {
                let (v, k) = self.select_victim(pinned, want);
                self.evict_chain(v, 1, writebacks);
                (v, k)
            };
            let p = self.index.page_for_insert(pk, hint);
            // The lookups and the page probes of the step's other blocks
            // come while the page is live in the hint's slot.
            self.index.count_hinted(2 * (k - 1));
            let i = b & PAGE_MASK;
            self.index.add_blocks(p, run_mask(i, k), prefetched);
            let frame =
                Frame { key: (file_id, b), owner, dirty, dirty_since: now, prev: NIL, next: NIL };
            if victim == NIL {
                for j in 0..k {
                    let slot = self.alloc_frame(Frame { key: (file_id, b + j), ..frame });
                    self.push_tail(slot);
                    self.index.pages[p as usize].slots[(i + j) as usize] = slot;
                }
            } else {
                if k > 1 {
                    let next = self.frames[victim as usize].next;
                    self.evict_chain(next, k - 1, writebacks);
                }
                let mut slot = victim;
                let mut last = victim;
                for j in 0..k {
                    let f = &mut self.frames[slot as usize];
                    *f = Frame { key: (file_id, b + j), prev: f.prev, next: f.next, ..frame };
                    self.index.pages[p as usize].slots[(i + j) as usize] = slot;
                    last = slot;
                    slot = f.next;
                }
                self.splice_to_tail(victim, last);
            }
            if dirty {
                self.dirty_blocks += k;
            }
            if self.track_owners {
                self.trim_owner(owner, (file_id, b), pinned, writebacks);
            }
            b += k;
        }
    }

    /// Account `owner`'s newly installed block `key` and, under an
    /// ownership cap, evict the owner's own blocks back down to its
    /// allotment even when the cache as a whole has room (§6.2's
    /// buffer-limit experiment).
    fn trim_owner(
        &mut self,
        owner: u32,
        key: Key,
        pinned: &PinnedSpan,
        writebacks: &mut Vec<ByteRange>,
    ) {
        *self.owner_counts.entry(owner).or_insert(0) += 1;
        self.per_owner.entry(owner).or_default().touch(key);
        if let Some(cap) = self.config.per_process_cap_blocks {
            while self.owner_counts.get(&owner).copied().unwrap_or(0) > cap {
                match self.select_own_victim(owner, pinned) {
                    Some(victim) => {
                        let slot =
                            self.index.get_unhinted(&victim).expect("own victim must be resident");
                        self.evict_chain(slot, 1, writebacks);
                        self.unlink(slot);
                        self.free_frame(slot);
                    }
                    None => break,
                }
            }
        }
    }

    /// Service a logical read of `length` bytes at `offset` in `file_id`
    /// by process `pid` at time `now`.
    ///
    /// Convenience wrapper over [`BlockCache::read_into`] that allocates
    /// a fresh outcome. Hot paths should hold a reusable [`ReadOutcome`]
    /// and call `read_into` instead.
    pub fn read(
        &mut self,
        now: SimTime,
        pid: u32,
        file_id: u32,
        offset: u64,
        length: u64,
    ) -> ReadOutcome {
        let mut out = ReadOutcome::default();
        self.read_into(now, pid, file_id, offset, length, &mut out);
        out
    }

    /// [`BlockCache::read`] writing into a caller-owned outcome. The
    /// outcome is cleared first; its vectors keep their capacity, so a
    /// warmed-up caller pays zero heap allocations per request.
    pub fn read_into(
        &mut self,
        now: SimTime,
        pid: u32,
        file_id: u32,
        offset: u64,
        length: u64,
        out: &mut ReadOutcome,
    ) {
        out.clear();
        self.stats.read_calls += 1;
        self.stats.bytes_read += length;
        if length == 0 {
            return;
        }
        let bs = self.config.block_size;
        let (first, last) = self.block_span(offset, length);
        let pinned = PinnedSpan { file_id, first, last };

        // One hint serves the demand and the read-ahead loops.
        let mut hint = NO_PAGE;
        let mut chain = HitChain::EMPTY;
        let mut run_start: Option<u64> = None;
        let mut runs = Runs::new(file_id, first, last);
        while let Some(run) = runs.next(&self.index, &mut hint) {
            let Run { first: b, count: k, resident, page } = run;
            if resident {
                out.hit_blocks += k;
                out.readahead_hit_blocks += self.hit_run(page, file_id, b, k, &mut chain);
                if let Some(start) = run_start.take() {
                    out.fetches.push(ByteRange {
                        file_id,
                        offset: start * bs,
                        length: (b - start) * bs,
                    });
                }
            } else {
                out.miss_blocks += k;
                run_start.get_or_insert(b);
                self.splice_chain(&mut chain);
                let wb = &mut out.writebacks;
                self.install_run(file_id, b, k, pid, false, false, now, &pinned, wb, &mut hint);
            }
        }
        self.splice_chain(&mut chain);
        self.stats.accessed_blocks += last + 1 - first;
        self.stats.hit_blocks += out.hit_blocks;
        self.stats.readahead_hit_blocks += out.readahead_hit_blocks;
        self.stats.miss_blocks += out.miss_blocks;
        if let Some(start) = run_start {
            out.fetches.push(ByteRange {
                file_id,
                offset: start * bs,
                length: (last + 1 - start) * bs,
            });
        }
        for f in &out.fetches {
            self.stats.device_bytes_read += f.length;
        }

        // Read-ahead: same-size prefetch on sequential access (§6.2).
        let seq_key = (pid, file_id);
        let sequential = self
            .seq
            .get(&seq_key)
            .is_some_and(|s| s.next_offset == offset);
        if self.config.read_ahead && sequential {
            let (pf_first, pf_last) = self.block_span(offset + length, length);
            let mut pf_run: Option<u64> = None;
            let mut runs = Runs::new(file_id, pf_first, pf_last);
            while let Some(run) = runs.next(&self.index, &mut hint) {
                let Run { first: b, count: k, resident, .. } = run;
                if resident {
                    if let Some(start) = pf_run.take() {
                        out.prefetch.push(ByteRange {
                            file_id,
                            offset: start * bs,
                            length: (b - start) * bs,
                        });
                    }
                } else {
                    pf_run.get_or_insert(b);
                    let wb = &mut out.writebacks;
                    self.install_run(file_id, b, k, pid, false, true, now, &pinned, wb, &mut hint);
                    self.stats.prefetched_blocks += k;
                }
            }
            if let Some(start) = pf_run {
                out.prefetch.push(ByteRange {
                    file_id,
                    offset: start * bs,
                    length: (pf_last + 1 - start) * bs,
                });
            }
            for p in &out.prefetch {
                self.stats.device_bytes_read += p.length;
            }
        }
        self.seq.insert(seq_key, SeqTrack { next_offset: offset + length });
    }

    /// Service a logical write of `length` bytes at `offset` in `file_id`
    /// by process `pid` at time `now`.
    ///
    /// Convenience wrapper over [`BlockCache::write_into`] that allocates
    /// a fresh outcome. Hot paths should hold a reusable [`WriteOutcome`]
    /// and call `write_into` instead.
    pub fn write(
        &mut self,
        now: SimTime,
        pid: u32,
        file_id: u32,
        offset: u64,
        length: u64,
    ) -> WriteOutcome {
        let mut out = WriteOutcome::default();
        self.write_into(now, pid, file_id, offset, length, &mut out);
        out
    }

    /// [`BlockCache::write`] writing into a caller-owned outcome. The
    /// outcome is cleared first; its vectors keep their capacity, so a
    /// warmed-up caller pays zero heap allocations per request.
    pub fn write_into(
        &mut self,
        now: SimTime,
        pid: u32,
        file_id: u32,
        offset: u64,
        length: u64,
        out: &mut WriteOutcome,
    ) {
        out.clear();
        self.stats.write_calls += 1;
        self.stats.bytes_written += length;
        if length == 0 {
            return;
        }
        let bs = self.config.block_size;
        let (first, last) = self.block_span(offset, length);
        let pinned = PinnedSpan { file_id, first, last };
        let write_through = matches!(self.config.write_policy, WritePolicy::WriteThrough);

        let mut hint = NO_PAGE;
        let mut chain = HitChain::EMPTY;
        let mut hits = 0;
        let mut runs = Runs::new(file_id, first, last);
        while let Some(run) = runs.next(&self.index, &mut hint) {
            let Run { first: b, count: k, resident, page } = run;
            if resident {
                hits += k;
                self.hit_run(page, file_id, b, k, &mut chain);
                if !write_through {
                    for j in 0..k {
                        let i = ((b + j) & PAGE_MASK) as usize;
                        let slot = self.index.pages[page as usize].slots[i];
                        let f = &mut self.frames[slot as usize];
                        if !f.dirty {
                            f.dirty = true;
                            f.dirty_since = now;
                            out.dirtied_blocks += 1;
                            self.dirty_blocks += 1;
                            self.enqueue_flush((file_id, b + j), 1, now);
                        }
                    }
                }
            } else {
                self.splice_chain(&mut chain);
                let dirty = !write_through;
                let wb = &mut out.writebacks;
                self.install_run(file_id, b, k, pid, dirty, false, now, &pinned, wb, &mut hint);
                if dirty {
                    out.dirtied_blocks += k;
                    self.enqueue_flush((file_id, b), k, now);
                }
            }
        }
        self.splice_chain(&mut chain);
        let blocks = last + 1 - first;
        self.stats.accessed_blocks += blocks;
        self.stats.hit_blocks += hits;
        self.stats.miss_blocks += blocks - hits;
        if write_through {
            let range = ByteRange {
                file_id,
                offset: first * bs,
                length: (last + 1 - first) * bs,
            };
            self.stats.device_bytes_written += range.length;
            out.write_through.push(range);
        }
        // A write also advances the sequential cursor: venus-style staging
        // interleaves reads and writes on the same files.
        self.seq
            .insert((pid, file_id), SeqTrack { next_offset: offset + length });
    }

    /// Queue blocks `block..block + count` of `file_id`, just dirtied at
    /// `dirty_since`, for background flush: extend the newest run when
    /// they continue it, otherwise open a run.
    fn enqueue_flush(&mut self, (file_id, block): Key, count: u64, dirty_since: SimTime) {
        let ready_at = match self.config.write_policy {
            WritePolicy::WriteThrough => return,
            WritePolicy::WriteBehind => dirty_since,
            WritePolicy::Delayed(d) => dirty_since + d,
        };
        if let Some(run) = self.flush_q.back_mut() {
            if run.file_id == file_id
                && run.dirty_since == dirty_since
                && run.first + run.count == block
            {
                run.count += count;
                return;
            }
        }
        self.flush_q.push_back(FlushRun { file_id, first: block, count, dirty_since, ready_at });
    }

    /// Pop up to `max_bytes` of flush-ready dirty data, marking it clean
    /// (it stays resident). Returns coalesced ranges for the device.
    ///
    /// Under write-behind everything dirty is immediately ready; under
    /// delayed writes only data older than the delay is returned —
    /// Sprite's 30-second sweep (§2.1).
    ///
    /// Convenience wrapper over [`BlockCache::take_flush_batch_into`]
    /// that allocates a fresh vector.
    pub fn take_flush_batch(&mut self, now: SimTime, max_bytes: u64) -> Vec<ByteRange> {
        let mut out = Vec::new();
        self.take_flush_batch_into(now, max_bytes, &mut out);
        out
    }

    /// [`BlockCache::take_flush_batch`] appending the coalesced ranges
    /// into a caller-owned vector (not cleared first). Both the output
    /// vector and the internal block-key scratch keep their capacity, so
    /// steady-state flushing allocates nothing.
    pub fn take_flush_batch_into(
        &mut self,
        now: SimTime,
        max_bytes: u64,
        out: &mut Vec<ByteRange>,
    ) {
        let bs = self.config.block_size;
        let mut blocks = std::mem::take(&mut self.flush_keys);
        debug_assert!(blocks.is_empty());
        let mut budget = max_bytes;
        let mut hint = NO_PAGE;
        while budget >= bs {
            // Consume the front run one page segment at a time.
            let (file_id, first, count, dirty_since) = match self.flush_q.front() {
                Some(run) if run.ready_at <= now => {
                    (run.file_id, run.first, run.count, run.dirty_since)
                }
                _ => break,
            };
            let seg = count.min(PAGE_BLOCKS - (first & PAGE_MASK));
            let taken = match self.index.find_page((file_id, first >> PAGE_SHIFT), &mut hint) {
                // The page is gone, so every entry in the segment is
                // stale and each of their lookups misses the map.
                None => {
                    self.index.count_unhinted(seg - 1);
                    seg
                }
                Some(page) => {
                    let mut taken = 0;
                    while taken < seg && budget >= bs {
                        let b = first + taken;
                        taken += 1;
                        // A stale entry — evicted, already flushed, or
                        // re-dirtied — is silently skipped.
                        let pg = &self.index.pages[page as usize];
                        if pg.resident >> (b & PAGE_MASK) & 1 == 0 {
                            continue;
                        }
                        let f = &mut self.frames[pg.slots[(b & PAGE_MASK) as usize] as usize];
                        if f.dirty && f.dirty_since == dirty_since {
                            f.dirty = false;
                            self.dirty_blocks -= 1;
                            blocks.push((file_id, b));
                            budget -= bs;
                        }
                    }
                    self.index.count_hinted(taken - 1);
                    taken
                }
            };
            let run = self.flush_q.front_mut().expect("front run observed");
            run.first += taken;
            run.count -= taken;
            if run.count == 0 {
                self.flush_q.pop_front();
            }
        }
        let first = out.len();
        coalesce_into(&mut blocks, bs, out);
        if out.len() > first {
            self.flush_batches += 1;
        }
        for r in &out[first..] {
            self.stats.device_bytes_written += r.length;
        }
        blocks.clear();
        self.flush_keys = blocks;
    }

    /// True when dirty data is ready to flush at `now`.
    pub fn has_flushable(&self, now: SimTime) -> bool {
        self.flush_q.front().is_some_and(|r| r.ready_at <= now)
    }

    /// The earliest time any queued dirty block becomes flushable.
    pub fn next_flush_ready(&self) -> Option<SimTime> {
        self.flush_q.front().map(|r| r.ready_at)
    }

    /// Drain every dirty block regardless of age (end-of-run quiesce).
    pub fn flush_all(&mut self) -> Vec<ByteRange> {
        let bs = self.config.block_size;
        // Freed frames always have `dirty` cleared, so scanning the slab
        // visits exactly the resident dirty blocks.
        let mut blocks: Vec<Key> = Vec::new();
        for f in self.frames.iter_mut() {
            if f.dirty {
                f.dirty = false;
                blocks.push(f.key);
            }
        }
        blocks.sort_unstable();
        self.flush_q.clear();
        self.dirty_blocks = 0;
        let ranges = coalesce(blocks, bs);
        for r in &ranges {
            self.stats.device_bytes_written += r.length;
        }
        ranges
    }
}

/// Coalesce block keys into contiguous per-file byte ranges.
fn coalesce(mut blocks: Vec<Key>, block_size: u64) -> Vec<ByteRange> {
    let mut out = Vec::new();
    coalesce_into(&mut blocks, block_size, &mut out);
    out
}

/// [`coalesce`] appending into a caller-owned vector. Sorts `blocks` in
/// place; the caller reclaims its capacity afterwards. Never merges into
/// ranges already present in `out` before the call.
fn coalesce_into(blocks: &mut [Key], block_size: u64, out: &mut Vec<ByteRange>) {
    blocks.sort_unstable();
    let start = out.len();
    for &(file_id, b) in blocks.iter() {
        if out.len() > start {
            let r = out.last_mut().expect("out is non-empty past start");
            if r.file_id == file_id && r.end() == b * block_size {
                r.length += block_size;
                continue;
            }
        }
        out.push(ByteRange { file_id, offset: b * block_size, length: block_size });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::units::KB;

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
    fn index_probe_counts_are_pinned_on_a_fixed_sequence() {
        // Every report serializes the probe counters, so batching list or
        // flush-queue work must leave them exactly as they are. The
        // sequence covers hit runs, misses with clean and dirty
        // evictions, read-ahead, re-dirtying, flushes under a budget of
        // less than one run, and the ownership cap.
        let mut cfg = CacheConfig::buffered(64 * KB); // 16 blocks
        cfg.per_process_cap_blocks = Some(12);
        let mut c = BlockCache::new(cfg);
        for i in 0..6u64 {
            c.read(t(i), 1, 1, i * 24 * KB, 24 * KB);
            c.write(t(i), 2, 2, (i % 3) * 16 * KB, 20 * KB);
            c.read(t(i), 1, 1, (i % 2) * 24 * KB, 40 * KB);
            c.take_flush_batch(t(i), 12 * KB);
        }
        c.flush_all();
        let o = c.obs_counters();
        assert_eq!(
            (o.hinted_index_probes, o.unhinted_index_probes, o.flush_batches),
            (274, 54, 6),
            "{o:?}"
        );
        assert_eq!(
            (o.hit_blocks, o.miss_blocks, o.clean_evictions, o.dirty_evictions),
            (35, 91, 69, 6)
        );
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
    fn coalesce_merges_adjacent_blocks_per_file() {
        let ranges = coalesce(vec![(1, 0), (1, 1), (1, 3), (2, 4), (2, 5)], 4 * KB);
        assert_eq!(
            ranges,
            vec![
                ByteRange { file_id: 1, offset: 0, length: 8 * KB },
                ByteRange { file_id: 1, offset: 12 * KB, length: 4 * KB },
                ByteRange { file_id: 2, offset: 16 * KB, length: 8 * KB },
            ]
        );
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
}
