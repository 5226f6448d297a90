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
//!   write them before the buffer is reused, stalling the requester.
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

/// Sentinel slot meaning "no extent".
const NIL: u32 = u32::MAX;

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

/// Positions `i..i + k` of a page's per-block arrays.
#[inline]
fn run_range(i: u64, k: u64) -> std::ops::Range<usize> {
    i as usize..(i + k) as usize
}

/// The stretches of set bits in a page bitmap, lowest first, as
/// `(first bit, length)`.
#[inline]
fn stretches(mut mask: u64) -> impl Iterator<Item = (u64, u64)> {
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let i = u64::from(mask.trailing_zeros());
        let len = u64::from((!(mask >> i)).trailing_zeros());
        mask &= !run_mask(i, len);
        Some((i, len))
    })
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
    /// Bit `i` set when resident block `i` holds data not yet written.
    dirty: u64,
    /// Recency extent per block; meaningful only where `resident` is set.
    ext: [u32; PAGE_BLOCKS as usize],
    /// When the oldest unwritten data in each block was dirtied;
    /// meaningful only where `dirty` is set.
    dirty_since: [SimTime; PAGE_BLOCKS as usize],
    /// The last stamp written into `dirty_since`, by this page or an
    /// earlier user of its slab slot. Time never runs backwards, so no
    /// stamp in the page is newer.
    newest: SimTime,
}

/// Sparse paged index from block key to per-block state.
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
                    dirty: 0,
                    ext: [NIL; PAGE_BLOCKS as usize],
                    dirty_since: [SimTime::ZERO; PAGE_BLOCKS as usize],
                    newest: SimTime::ZERO,
                });
                (self.pages.len() - 1) as u32
            }
        };
        self.map.insert(pk, p);
        *hint = p;
        p
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
        pg.dirty &= !mask;
        self.len -= mask.count_ones() as usize;
        if pg.resident == 0 {
            let pk = pg.pk;
            self.map.remove(&pk);
            self.free_pages.push(p);
        }
    }

    /// The page of resident `key`, looked up through the map with no
    /// hint: one unhinted probe.
    fn get_unhinted(&self, key: &Key) -> Option<u32> {
        let mut no_hint = NO_PAGE;
        let p = self.find_page((key.0, key.1 >> PAGE_SHIFT), &mut no_hint)?;
        (self.pages[p as usize].resident >> (key.1 & PAGE_MASK) & 1 == 1).then_some(p)
    }

    /// Whether `key` is resident, without counting a probe.
    fn is_resident(&self, key: &Key) -> bool {
        let pk = (key.0, key.1 >> PAGE_SHIFT);
        self.map
            .get(&pk)
            .is_some_and(|&p| self.pages[p as usize].resident >> (key.1 & PAGE_MASK) & 1 == 1)
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
            self.page = index.find_page((self.file_id, b >> PAGE_SHIFT), hint).unwrap_or(NO_PAGE);
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

    /// How many blocks at the front of `e` are unpinned (the pinned
    /// blocks of an extent are one contiguous stretch of it).
    #[inline]
    fn unpinned_prefix(&self, e: &Extent) -> u64 {
        if e.file != self.file_id || self.last < e.first {
            e.count
        } else {
            self.first.saturating_sub(e.first).min(e.count)
        }
    }

    /// How many blocks at the front of `e` are pinned.
    #[inline]
    fn pinned_prefix(&self, e: &Extent) -> u64 {
        if self.contains(&(e.file, e.first)) {
            (self.last + 1).min(e.end()) - e.first
        } else {
            0
        }
    }
}

/// Blocks `first..first + count` of `file`, resident and next to each
/// other in recency order too, older blocks first: the unit of the
/// recency list. Requests move whole runs of blocks, so the list holds
/// one entry per run where a per-block list held one per block.
#[derive(Debug, Clone, Copy)]
struct Extent {
    file: u32,
    /// Toward the LRU end of the recency list.
    prev: u32,
    /// Toward the MRU end; doubles as the free-list link.
    next: u32,
    first: u64,
    count: u64,
}

impl Extent {
    #[inline]
    fn end(&self) -> u64 {
        self.first + self.count
    }
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
    /// When the run's blocks were dirtied; a block whose page no longer
    /// carries this stamp for it was flushed, evicted or re-dirtied since.
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
///
/// Precondition: `now` never decreases across calls. The flush path
/// relies on it to trust a run's stamp without comparing every block
/// (debug builds check it).
#[derive(Debug)]
pub struct BlockCache {
    config: CacheConfig,
    /// `config.capacity_blocks()`, fixed at construction.
    capacity_blocks: u64,
    /// Resident blocks and their per-block state, by page.
    index: PagedIndex,
    /// Slab of recency extents; freed slots chain on `free` via
    /// `Extent::next`.
    exts: Vec<Extent>,
    /// Least recently used end of the recency list.
    head: u32,
    /// Most recently used end of the recency list.
    tail: u32,
    /// Free-list head.
    free: u32,
    /// Per-owner recency exists only to enforce `per_process_cap_blocks`;
    /// when no cap is configured (the common case) `track_owners` is
    /// false and the hot path skips it. A block's owner is the one whose
    /// index holds it, and an owner's count is its index's length.
    track_owners: bool,
    per_owner: FxHashMap<u32, LruIndex<Key>>,
    /// Dirty block runs awaiting background flush, ordered by readiness
    /// time.
    flush_q: VecDeque<FlushRun>,
    /// Resident dirty blocks.
    dirty_blocks: u64,
    /// Per (process, file) sequential-read detector state.
    seq: FxHashMap<(u32, u32), SeqTrack>,
    /// Scratch for pinned keys skipped while hunting an own-victim,
    /// reused across evictions.
    own_skip: Vec<Key>,
    /// Page hint for victim removals. LRU order is roughly stream order,
    /// so consecutive victims usually share a page.
    evict_hint: u32,
    stats: CacheStats,
    /// Non-empty flush batches handed to the flusher streams.
    flush_batches: u64,
    /// The latest `now` seen, for the monotonic-time check.
    clock: SimTime,
}

impl BlockCache {
    /// Build a cache; panics on invalid geometry.
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        let capacity_blocks = config.capacity_blocks();
        BlockCache {
            track_owners: config.per_process_cap_blocks.is_some(),
            capacity_blocks,
            config,
            index: PagedIndex::default(),
            exts: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
            per_owner: FxHashMap::default(),
            flush_q: VecDeque::new(),
            dirty_blocks: 0,
            seq: FxHashMap::default(),
            own_skip: Vec::new(),
            evict_hint: NO_PAGE,
            stats: CacheStats::default(),
            flush_batches: 0,
            clock: SimTime::ZERO,
        }
    }

    /// Record `now`, checking that time has not run backwards.
    #[inline]
    fn advance_clock(&mut self, now: SimTime) {
        debug_assert!(now >= self.clock, "time ran backwards: {now:?} after {:?}", self.clock);
        self.clock = now;
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
            let e = *self.exts.get(i as usize)?;
            i = e.next;
            Some(e)
        })
        .flat_map(|e| (e.first..e.end()).map(move |b| (e.file, b)))
    }

    #[inline]
    fn block_span(&self, offset: u64, length: u64) -> (u64, u64) {
        let bs = self.config.block_size;
        let first = offset / bs;
        let last = (offset + length - 1) / bs;
        (first, last)
    }

    /// Blocks `first..end` of `file_id` as one byte range.
    #[inline]
    fn blocks(&self, file_id: u32, first: u64, end: u64) -> ByteRange {
        let bs = self.config.block_size;
        ByteRange { file_id, offset: first * bs, length: (end - first) * bs }
    }

    /// Take a slot off the free list, or grow the slab.
    fn alloc_ext(&mut self, file: u32, first: u64, count: u64) -> u32 {
        let e = Extent { file, prev: NIL, next: NIL, first, count };
        match self.free {
            NIL => {
                self.exts.push(e);
                (self.exts.len() - 1) as u32
            }
            i => {
                self.free = self.exts[i as usize].next;
                self.exts[i as usize] = e;
                i
            }
        }
    }

    /// Detach extent `i` from the recency list and free its slot.
    fn remove_ext(&mut self, i: u32) {
        self.unlink(i);
        self.exts[i as usize].next = self.free;
        self.free = i;
    }

    /// Detach extent `i` from the recency list (it stays allocated).
    #[inline]
    fn unlink(&mut self, i: u32) {
        let Extent { prev, next, .. } = self.exts[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.exts[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.exts[n as usize].prev = prev,
        }
    }

    /// Link extent `i` in right after `prev` (`NIL`: at the LRU end).
    #[inline]
    fn link_after(&mut self, i: u32, prev: u32) {
        let next = match prev {
            NIL => self.head,
            p => self.exts[p as usize].next,
        };
        let e = &mut self.exts[i as usize];
        e.prev = prev;
        e.next = next;
        match prev {
            NIL => self.head = i,
            p => self.exts[p as usize].next = i,
        }
        match next {
            NIL => self.tail = i,
            n => self.exts[n as usize].prev = i,
        }
    }

    /// Whether blocks from `first` on of `file` continue the MRU extent.
    #[inline]
    fn continues_tail(&self, file: u32, first: u64) -> bool {
        self.exts.get(self.tail as usize).is_some_and(|t| t.file == file && t.end() == first)
    }

    /// Append blocks `first..first + count` of `file` at the MRU end,
    /// extending the MRU extent when they continue it. Returns the extent
    /// that now holds them; the caller labels the blocks with it.
    fn append(&mut self, file: u32, first: u64, count: u64) -> u32 {
        if self.continues_tail(file, first) {
            self.exts[self.tail as usize].count += count;
            return self.tail;
        }
        let i = self.alloc_ext(file, first, count);
        self.link_after(i, self.tail);
        i
    }

    /// Point the labels of blocks `first..first + count` of `file` at
    /// extent `slot`. Resolving their pages here is bookkeeping, not a
    /// block lookup, so it counts no probe.
    fn relabel(&mut self, file: u32, first: u64, count: u64, slot: u32) {
        let end = first + count;
        let mut b = first;
        while b < end {
            let k = (end - b).min(PAGE_BLOCKS - (b & PAGE_MASK));
            let p = self.index.map[&(file, b >> PAGE_SHIFT)];
            self.index.pages[p as usize].ext[run_range(b & PAGE_MASK, k)].fill(slot);
            b += k;
        }
    }

    /// Take blocks `x..x + n` out of extent `e`, leaving the blocks
    /// before and after them where `e` stood. When both sides remain the
    /// larger keeps `e` and the smaller becomes a new extent, so only its
    /// blocks are relabelled.
    fn cut(&mut self, e: u32, x: u64, n: u64) {
        let Extent { file, prev, first, count, .. } = self.exts[e as usize];
        let (left, right) = (x - first, first + count - x - n);
        if left == 0 && right == 0 {
            return self.remove_ext(e);
        }
        let ext = &mut self.exts[e as usize];
        let (side, side_n, after) = if left >= right {
            ext.count = left;
            (x + n, right, e)
        } else {
            (ext.first, ext.count) = (x + n, right);
            (first, left, prev)
        };
        if side_n > 0 {
            let s = self.alloc_ext(file, side, side_n);
            self.link_after(s, after);
            self.relabel(file, side, side_n, s);
        }
    }

    /// Make blocks `x..x + n` of extent `e` the most recently used, in
    /// block order. Returns the extent they now belong to when the caller
    /// must relabel them, `NIL` when their labels still hold.
    #[inline]
    fn touch(&mut self, e: u32, x: u64, n: u64) -> u32 {
        let ext = self.exts[e as usize];
        if e == self.tail && x + n == ext.end() {
            return NIL;
        }
        if n == ext.count && !self.continues_tail(ext.file, x) {
            self.unlink(e);
            self.link_after(e, self.tail);
            return NIL;
        }
        self.cut(e, x, n);
        self.append(ext.file, x, n)
    }

    /// Record a run of `k` hits on resident blocks `b..b + k` of `file_id`
    /// in page `p`: move them to the MRU end, extent piece by extent
    /// piece, and refresh their owners' recency. Their read-ahead marks
    /// are cleared; returns how many were set.
    fn hit_run(&mut self, p: u32, file_id: u32, b: u64, k: u64) -> u64 {
        let mask = run_mask(b & PAGE_MASK, k);
        let pg = &mut self.index.pages[p as usize];
        let readahead = u64::from((pg.prefetched & mask).count_ones());
        pg.prefetched &= !mask;
        let end = b + k;
        let mut x = b;
        while x < end {
            let e = self.index.pages[p as usize].ext[(x & PAGE_MASK) as usize];
            let n = end.min(self.exts[e as usize].end()) - x;
            let slot = self.touch(e, x, n);
            if slot != NIL {
                self.index.pages[p as usize].ext[run_range(x & PAGE_MASK, n)].fill(slot);
            }
            x += n;
        }
        if self.track_owners {
            for key in (b..end).map(|b| (file_id, b)) {
                self.owner_index(&key).expect("tracked block has an owner").touch(key);
            }
        }
        readahead
    }

    /// Evict the `n` least recently used blocks, in recency order.
    fn evict_front(&mut self, mut n: u64, writebacks: &mut Vec<ByteRange>) {
        while n > 0 {
            let h = self.head;
            let Extent { file, first, count, .. } = self.exts[h as usize];
            let m = n.min(count);
            self.evict_blocks(file, first, m, writebacks);
            if m == count {
                self.remove_ext(h);
            } else {
                let e = &mut self.exts[h as usize];
                (e.first, e.count) = (first + m, count - m);
            }
            n -= m;
        }
    }

    /// Evict resident blocks `first..first + n` of `file` in block order:
    /// each leaves the index and the ownership tracking and is accounted
    /// for, a dirty one with a writeback. Their recency extent is the
    /// caller's to update. Each page segment costs one probe through the
    /// victim hint plus, per further block, the hinted probe a
    /// block-by-block removal would count.
    fn evict_blocks(&mut self, file: u32, first: u64, n: u64, writebacks: &mut Vec<ByteRange>) {
        let bs = self.config.block_size;
        let end = first + n;
        let mut b = first;
        while b < end {
            let i = b & PAGE_MASK;
            let k = (end - b).min(PAGE_BLOCKS - i);
            let p = self
                .index
                .find_page((file, b >> PAGE_SHIFT), &mut self.evict_hint)
                .expect("victim must be resident");
            self.index.count_hinted(k - 1);
            let mask = run_mask(i, k);
            let pg = &self.index.pages[p as usize];
            let mut dirty = pg.dirty & mask;
            self.stats.wasted_prefetch_blocks += u64::from((pg.prefetched & mask).count_ones());
            let dirty_n = u64::from(dirty.count_ones());
            self.stats.clean_evictions += k - dirty_n;
            self.stats.dirty_evictions += dirty_n;
            self.stats.device_bytes_written += dirty_n * bs;
            self.dirty_blocks -= dirty_n;
            while dirty != 0 {
                let j = u64::from(dirty.trailing_zeros());
                dirty &= dirty - 1;
                let offset = (b - i + j) * bs;
                writebacks.push(ByteRange { file_id: file, offset, length: bs });
            }
            if self.track_owners {
                for key in (b..b + k).map(|b| (file, b)) {
                    // An own victim has left its owner's index already.
                    if let Some(lru) = self.owner_index(&key) {
                        lru.remove(&key);
                    }
                }
            }
            self.index.remove_blocks(p, mask);
            b += k;
        }
    }

    /// Ready the next victims of a full, hence non-empty, cache: how many
    /// blocks, at least one and at most `want`, go in turn from the LRU
    /// end.
    fn select_victim(&mut self, pinned: &PinnedSpan, want: u64) -> u64 {
        // Global LRU, sparing pinned (in-flight request) blocks while any
        // alternative exists: pinned blocks found at the LRU end are
        // re-touched (they are part of the in-flight request, so making
        // them most recent matches their actual usage) and the walk
        // continues from the new head. When *everything* resident is
        // pinned — a request larger than the whole cache — the request
        // streams through by sacrificing the least recent block.
        //
        // An evicted block's replacement becomes the most recent block,
        // so the unpinned blocks right after an unpinned head are the next
        // victims in turn, as long as the walk stays among blocks that
        // were resident before this call.
        let len = self.index.len() as u64;
        let mut passed = 0;
        while passed < len {
            let h = self.head;
            let e = self.exts[h as usize];
            // A moved run may have joined blocks passed over already.
            let n = pinned.pinned_prefix(&e).min(len - passed);
            if n == 0 {
                let mut k = 0;
                let mut i = h;
                while k < want && i != NIL {
                    let e = self.exts[i as usize];
                    let free = pinned.unpinned_prefix(&e);
                    k += free.min(want - k);
                    if free < e.count {
                        break;
                    }
                    i = e.next;
                }
                return k;
            }
            let slot = self.touch(h, e.first, n);
            if slot != NIL {
                self.relabel(e.file, e.first, n, slot);
            }
            passed += n;
        }
        // Cycled through the whole list: everything is pinned.
        1
    }

    /// The recency index of the owner of tracked block `key`. Caps run
    /// with a handful of processes, so this scans them.
    fn owner_index(&mut self, key: &Key) -> Option<&mut LruIndex<Key>> {
        self.per_owner.values_mut().find(|lru| lru.contains(key))
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
    /// into free room, or in place of a run of victims evicted in turn.
    /// The first victim leaves before the page is resolved, so pages
    /// retire and are created in the same order as block-by-block
    /// installs would. Under an ownership cap each step installs one
    /// block and trims its owner back to the cap.
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
                self.index.find_page(pk, hint);
            }
            let want = if self.track_owners { 1 } else { end - b };
            let len = self.index.len() as u64;
            debug_assert!(len <= self.capacity_blocks, "cache over capacity");
            let (k, victims) = if len < self.capacity_blocks {
                (want.min(self.capacity_blocks - len), 0)
            } else {
                let k = self.select_victim(pinned, want);
                self.evict_front(1, writebacks);
                (k, k - 1)
            };
            let p = self.index.page_for_insert(pk, hint);
            // The lookups and the page probes of the step's other blocks
            // come while the page is live in the hint's slot.
            self.index.count_hinted(2 * (k - 1));
            let i = b & PAGE_MASK;
            let mask = run_mask(i, k);
            let pg = &mut self.index.pages[p as usize];
            debug_assert_eq!(pg.resident & mask, 0, "install over a resident block");
            pg.resident |= mask;
            if prefetched {
                pg.prefetched |= mask;
            }
            if dirty {
                pg.dirty |= mask;
                pg.dirty_since[run_range(i, k)].fill(now);
                pg.newest = now;
                self.dirty_blocks += k;
            }
            self.index.len += k as usize;
            // The page holds the new blocks, so evicting the other
            // victims cannot retire it.
            self.evict_front(victims, writebacks);
            let slot = self.append(file_id, b, k);
            self.index.pages[p as usize].ext[run_range(i, k)].fill(slot);
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
        self.per_owner.entry(owner).or_default().touch(key);
        if let Some(cap) = self.config.per_process_cap_blocks {
            while self.per_owner[&owner].len() as u64 > cap {
                let Some(victim) = self.select_own_victim(owner, pinned) else { break };
                let p = self.index.get_unhinted(&victim).expect("own victim must be resident");
                let e = self.index.pages[p as usize].ext[(victim.1 & PAGE_MASK) as usize];
                self.evict_blocks(victim.0, victim.1, 1, writebacks);
                self.cut(e, victim.1, 1);
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
        self.advance_clock(now);
        self.stats.read_calls += 1;
        self.stats.bytes_read += length;
        if length == 0 {
            return;
        }
        let (first, last) = self.block_span(offset, length);
        let pinned = PinnedSpan { file_id, first, last };

        // One hint serves the demand and the read-ahead loops.
        let mut hint = NO_PAGE;
        let mut run_start: Option<u64> = None;
        let mut runs = Runs::new(file_id, first, last);
        while let Some(run) = runs.next(&self.index, &mut hint) {
            let Run { first: b, count: k, resident, page } = run;
            if resident {
                out.hit_blocks += k;
                out.readahead_hit_blocks += self.hit_run(page, file_id, b, k);
                if let Some(start) = run_start.take() {
                    out.fetches.push(self.blocks(file_id, start, b));
                }
            } else {
                out.miss_blocks += k;
                run_start.get_or_insert(b);
                let wb = &mut out.writebacks;
                self.install_run(file_id, b, k, pid, false, false, now, &pinned, wb, &mut hint);
            }
        }
        self.stats.accessed_blocks += last + 1 - first;
        self.stats.hit_blocks += out.hit_blocks;
        self.stats.readahead_hit_blocks += out.readahead_hit_blocks;
        self.stats.miss_blocks += out.miss_blocks;
        if let Some(start) = run_start {
            out.fetches.push(self.blocks(file_id, start, last + 1));
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
                        out.prefetch.push(self.blocks(file_id, start, b));
                    }
                } else {
                    pf_run.get_or_insert(b);
                    let wb = &mut out.writebacks;
                    self.install_run(file_id, b, k, pid, false, true, now, &pinned, wb, &mut hint);
                    self.stats.prefetched_blocks += k;
                }
            }
            if let Some(start) = pf_run {
                out.prefetch.push(self.blocks(file_id, start, pf_last + 1));
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
        self.advance_clock(now);
        self.stats.write_calls += 1;
        self.stats.bytes_written += length;
        if length == 0 {
            return;
        }
        let (first, last) = self.block_span(offset, length);
        let pinned = PinnedSpan { file_id, first, last };
        let write_through = matches!(self.config.write_policy, WritePolicy::WriteThrough);

        let mut hint = NO_PAGE;
        let mut hits = 0;
        let mut runs = Runs::new(file_id, first, last);
        while let Some(run) = runs.next(&self.index, &mut hint) {
            let Run { first: b, count: k, resident, page } = run;
            if resident {
                hits += k;
                self.hit_run(page, file_id, b, k);
                if !write_through {
                    out.dirtied_blocks += self.dirty_run(page, file_id, b, k, now);
                }
            } else {
                let dirty = !write_through;
                let wb = &mut out.writebacks;
                self.install_run(file_id, b, k, pid, dirty, false, now, &pinned, wb, &mut hint);
                if dirty {
                    out.dirtied_blocks += k;
                    self.enqueue_flush((file_id, b), k, now);
                }
            }
        }
        let blocks = last + 1 - first;
        self.stats.accessed_blocks += blocks;
        self.stats.hit_blocks += hits;
        self.stats.miss_blocks += blocks - hits;
        if write_through {
            let range = self.blocks(file_id, first, last + 1);
            self.stats.device_bytes_written += range.length;
            out.write_through.push(range);
        }
        // A write also advances the sequential cursor: venus-style staging
        // interleaves reads and writes on the same files.
        self.seq
            .insert((pid, file_id), SeqTrack { next_offset: offset + length });
    }

    /// Dirty the clean blocks among resident `b..b + k` of `file_id` in
    /// page `p` at `now`, queueing each run of them for flush. Returns
    /// how many were clean.
    fn dirty_run(&mut self, p: u32, file_id: u32, b: u64, k: u64, now: SimTime) -> u64 {
        let base = b & !PAGE_MASK;
        let pg = &mut self.index.pages[p as usize];
        let clean = run_mask(b & PAGE_MASK, k) & !pg.dirty;
        pg.dirty |= clean;
        let n = u64::from(clean.count_ones());
        self.dirty_blocks += n;
        if clean != 0 {
            pg.newest = now;
        }
        for (i, len) in stretches(clean) {
            self.index.pages[p as usize].dirty_since[run_range(i, len)].fill(now);
            self.enqueue_flush((file_id, base + i), len, now);
        }
        n
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
    /// into a caller-owned vector (not cleared first). The vector keeps
    /// its capacity, so steady-state flushing allocates nothing.
    pub fn take_flush_batch_into(
        &mut self,
        now: SimTime,
        max_bytes: u64,
        out: &mut Vec<ByteRange>,
    ) {
        self.advance_clock(now);
        let start = out.len();
        // Blocks the budget still covers.
        let mut budget = max_bytes / self.config.block_size;
        let mut hint = NO_PAGE;
        while budget > 0 {
            // Consume the front run one page segment at a time.
            let Some(&run) = self.flush_q.front().filter(|r| r.ready_at <= now) else { break };
            let FlushRun { file_id, first, count, dirty_since, .. } = run;
            let i0 = first & PAGE_MASK;
            let seg = count.min(PAGE_BLOCKS - i0);
            let taken = match self.index.find_page((file_id, first >> PAGE_SHIFT), &mut hint) {
                // The page is gone, so every entry in the segment is
                // stale and each of their lookups misses the map.
                None => {
                    self.index.count_unhinted(seg - 1);
                    seg
                }
                Some(page) => {
                    // A stale entry (evicted, already flushed, or
                    // re-dirtied) no longer finds its block dirty with
                    // the run's stamp, and is skipped. Every block of the
                    // run was stamped when the run was queued and any
                    // later dirtying stamps it no earlier, so when the
                    // page's newest stamp is the run's, every dirty block
                    // in the segment is valid; otherwise only the dirty
                    // ones are compared.
                    let pg = &mut self.index.pages[page as usize];
                    let mut take = pg.dirty & run_mask(i0, seg);
                    if pg.newest != dirty_since {
                        let mut dirty = take;
                        while dirty != 0 {
                            let i = dirty.trailing_zeros();
                            dirty &= dirty - 1;
                            if pg.dirty_since[i as usize] != dirty_since {
                                take &= !(1 << i);
                            }
                        }
                    }
                    let taken = if u64::from(take.count_ones()) < budget {
                        seg
                    } else {
                        // The budget runs out on its last valid block; the
                        // entries after that one stay queued.
                        let mut rest = take;
                        for _ in 0..budget {
                            rest &= rest - 1;
                        }
                        take &= !rest;
                        u64::from(u64::BITS - take.leading_zeros()) - i0
                    };
                    pg.dirty &= !take;
                    let n = u64::from(take.count_ones());
                    self.dirty_blocks -= n;
                    budget -= n;
                    let base = first - i0;
                    for (i, len) in stretches(take) {
                        out.push(self.blocks(file_id, base + i, base + i + len));
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
        merge_runs(out, start);
        if out.len() > start {
            self.flush_batches += 1;
        }
        for r in &out[start..] {
            self.stats.device_bytes_written += r.length;
        }
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
        // Retired pages have `dirty` cleared, so scanning the page slab
        // visits exactly the resident dirty blocks.
        let mut ranges = Vec::new();
        for pg in self.index.pages.iter_mut() {
            let (file_id, base) = (pg.pk.0, pg.pk.1 << PAGE_SHIFT);
            for (i, len) in stretches(std::mem::take(&mut pg.dirty)) {
                ranges.push(ByteRange { file_id, offset: (base + i) * bs, length: len * bs });
            }
        }
        merge_runs(&mut ranges, 0);
        self.flush_q.clear();
        self.dirty_blocks = 0;
        for r in &ranges {
            self.stats.device_bytes_written += r.length;
        }
        ranges
    }
}

/// Sort the block runs appended to `out` from `start` on into file and
/// block order, merging each into its predecessor when it continues it.
/// The runs are disjoint; ranges before `start` are left alone.
fn merge_runs(out: &mut Vec<ByteRange>, start: usize) {
    out[start..].sort_unstable_by_key(|r| (r.file_id, r.offset));
    let mut end = start;
    for j in start..out.len() {
        let r = out[j];
        if end > start && out[end - 1].file_id == r.file_id && out[end - 1].end() == r.offset {
            out[end - 1].length += r.length;
        } else {
            out[end] = r;
            end += 1;
        }
    }
    out.truncate(end);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::units::KB;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
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

    /// Check the recency list against the page labels: the extents are
    /// linked both ways, each covers resident blocks labelled with its
    /// slot, and together they cover every resident block once.
    fn assert_extents_consistent(c: &BlockCache) {
        let (mut prev, mut i, mut blocks) = (NIL, c.head, 0);
        while i != NIL {
            let e = c.exts[i as usize];
            assert_eq!(e.prev, prev, "extent {i} back link");
            assert!(e.count > 0, "extent {i} is empty");
            for b in e.first..e.end() {
                let p = c.index.map[&(e.file, b >> PAGE_SHIFT)];
                let pg = &c.index.pages[p as usize];
                assert_eq!(pg.resident >> (b & PAGE_MASK) & 1, 1, "block {b} not resident");
                assert_eq!(pg.ext[(b & PAGE_MASK) as usize], i, "block {b} label");
            }
            blocks += e.count;
            (prev, i) = (i, e.next);
        }
        assert_eq!(c.tail, prev);
        assert_eq!(blocks, c.resident_blocks());
    }

    #[test]
    fn lru_keys_after_a_split_keep_the_pieces_in_place() {
        let mut cfg = CacheConfig::buffered(64 * KB); // 16 blocks
        cfg.read_ahead = false;
        let mut c = BlockCache::new(cfg);
        c.read(t(0), 1, 1, 0, 32 * KB); // blocks 0..8 of file 1: one extent
        c.read(t(1), 1, 2, 0, 8 * KB); // blocks 0..2 of file 2
        c.read(t(2), 1, 1, 12 * KB, 8 * KB); // hit blocks 3..5: a three-way split
        let keys: Vec<(u32, u64)> = c.lru_keys().collect();
        assert_eq!(
            keys,
            [(1, 0), (1, 1), (1, 2), (1, 5), (1, 6), (1, 7), (2, 0), (2, 1), (1, 3), (1, 4)]
        );
        assert_eq!(c.exts.iter().filter(|e| e.count > 0).count(), 4);
        assert_extents_consistent(&c);
        // Re-reading the rest of file 1 joins it back behind the hit
        // piece only where block order allows.
        c.read(t(3), 1, 1, 20 * KB, 12 * KB); // blocks 5..7
        c.read(t(4), 1, 1, 0, 12 * KB); // blocks 0..2
        let keys: Vec<(u32, u64)> = c.lru_keys().collect();
        assert_eq!(
            keys,
            [(2, 0), (2, 1), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 0), (1, 1), (1, 2)]
        );
        assert_extents_consistent(&c);
    }

    #[test]
    fn extents_stay_consistent_under_churn() {
        // A small deterministic mix of reads, writes and flushes over
        // three files in caches from one block up, with and without a
        // per-process cap.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        for (blocks, cap) in [(1, None), (5, None), (24, None), (24, Some(6)), (200, None)] {
            let mut cfg = CacheConfig::buffered(blocks * 4 * KB);
            cfg.per_process_cap_blocks = cap;
            let mut c = BlockCache::new(cfg);
            for i in 0..400 {
                let (pid, file) = (1 + next(2) as u32, 1 + next(3) as u32);
                let (offset, len) = (next(100) * 4 * KB, (1 + next(30)) * 4 * KB);
                match next(4) {
                    0 => {
                        c.write(t(i), pid, file, offset, len);
                    }
                    1 => {
                        c.take_flush_batch(t(i), next(20) * 4 * KB);
                    }
                    _ => {
                        c.read(t(i), pid, file, offset, len);
                    }
                }
                assert_extents_consistent(&c);
            }
        }
    }

    #[test]
    fn merge_runs_joins_adjacent_runs_per_file_in_block_order() {
        let range = |file_id: u32, block: u64, blocks: u64| ByteRange {
            file_id,
            offset: block * 4 * KB,
            length: blocks * 4 * KB,
        };
        // Queued out of order; the range already in `out` is never
        // merged into, though the first run continues it.
        let mut out = vec![range(1, 0, 1), range(2, 5, 1), range(1, 3, 1)];
        out.extend([range(1, 1, 1), range(2, 4, 1), range(1, 2, 1)]);
        merge_runs(&mut out, 1);
        assert_eq!(out, [range(1, 0, 1), range(1, 1, 3), range(2, 4, 2)]);
        let mut out = vec![range(1, 3, 2), range(1, 0, 2)];
        merge_runs(&mut out, 0);
        assert_eq!(out, [range(1, 0, 2), range(1, 3, 2)]);
    }
}
