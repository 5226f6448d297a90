//! Generate-once, share-everywhere application traces — with an
//! optional spill-to-disk mode that bounds resident memory.
//!
//! Every figure, table, claim, and ablation in this crate replays the
//! *same* calibrated application traces through many buffering
//! configurations — the paper's Figures 6–8 are one 14-point sweep over
//! two venus traces. Before this store existed the sweeps regenerated
//! every trace at every sweep point and then copied it twice more on the
//! way into the simulator (once into a pid-remapped `Trace`, once into
//! the per-process event `Vec`). The [`TraceStore`] turns the trace into
//! an immutable shared artifact, the shape Recorder and TraceTracker use:
//! each workload is generated exactly once per key and handed out as an
//! `Arc<[IoEvent]>` that every sweep point, worker thread, and simulated
//! process replays by cursor with zero copies (the simulator applies the
//! pid/file-id namespacing on the fly; see
//! `iosim::Simulation::add_process_feed`).
//!
//! ## Keying
//!
//! Entries are keyed by `(AppKind, pid, seed, Scale)`. The pid is part
//! of the key — not just a label — because the generator folds it into
//! its jitter RNG seed (`seed ^ pid`), so venus#1 and venus#2 are
//! genuinely different traces. Byte-identical sweep output versus
//! fresh generation is the store's correctness bar, pinned by
//! `tests/determinism.rs`.
//!
//! ## Memory model
//!
//! By default the store holds every distinct trace it has been asked
//! for until [`TraceStore::clear`] (or process exit). One entry costs
//! `io_count × 96 B` for the shared event slice (comments are kept
//! out-of-line and are negligible) — about 175 KB for a 1/16-scale
//! venus, ~2.8 MB at full scale. [`TraceStore::footprint`] reports the
//! live count and byte estimate.
//!
//! When a memory budget is configured ([`StoreConfig::mem_budget`],
//! `--trace-mem-budget`), the store encodes traces into `stream_v2`
//! binary frame files under the spill directory
//! ([`StoreConfig::spill_dir`] / `--trace-dir`, or a per-process
//! directory under the OS temp dir) and the replay path
//! ([`TraceStore::feed`]) hands out streaming cursors instead of whole
//! slices: one decoded block (≤ [`SPILL_BLOCK_EVENTS`] events ≈ 96 KB)
//! is resident per cursor position, shared between cursors sitting in
//! the same block, and accounted exactly — decoded-block bytes charge
//! the store's resident counter on decode and discharge on drop.
//! Residents above the budget are spilled least-recently-used.
//!
//! When a spill directory is configured explicitly, frame files double
//! as a persistent trace cache: a later run with the same directory
//! reuses them instead of regenerating (every block checksum is verified
//! on reopen; a damaged file is silently regenerated).

use crate::runner::{scaled_spec, Scale};
use iosim::{EventSource, ProcessFeed};
use iotrace::stream_v2::{write_frame_file_with, FrameFile};
use iotrace::{IoEvent, Trace, TraceError};
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock, Weak};
use workload::{generate_parts, AppKind, Comments};

/// Events per block in spilled frame files. Smaller than the codec's
/// default 4096 on purpose: the block is the streaming replay's unit of
/// residency, and 1024 events ≈ 96 KB keeps a whole datacenter
/// campaign's worth of live cursors well under small budgets.
pub const SPILL_BLOCK_EVENTS: usize = 1024;

/// Store key: everything that changes the generated byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    kind: AppKind,
    pid: u32,
    seed: u64,
    scale: u32,
}

impl Key {
    /// Deterministic spill-file stem, stable across runs for reuse.
    fn file_stem(&self) -> String {
        format!("{}-p{}-s{}-x{}", self.kind.name(), self.pid, self.seed, self.scale)
    }
}

/// One generated workload trace, shared between the analysis consumers
/// (which want the full `Trace`, comments included) and the replay path
/// (which wants a bare `Arc<[IoEvent]>` slice).
///
/// Events are stored exactly once, in the shared slice; comment records
/// are kept out-of-line as `(position, text)` pairs, where `position` is
/// the index of the event each comment precedes (`events.len()` for
/// trailing comments). [`TraceArtifact::trace`] reassembles the full
/// `Trace` on demand for the handful of analysis call sites that need
/// comments — the persistent footprint is the event slice alone.
#[derive(Debug)]
pub struct TraceArtifact {
    events: Arc<[IoEvent]>,
    comments: Comments,
}

impl TraceArtifact {
    fn from_parts(events: Arc<[IoEvent]>, comments: Comments) -> TraceArtifact {
        TraceArtifact { events, comments }
    }

    /// Reassemble the full trace, comment records included, in original
    /// item order. Allocates; prefer [`TraceArtifact::events`] when
    /// comments are not needed.
    pub fn trace(&self) -> Trace {
        let mut trace = Trace::new();
        let mut comments = self.comments.iter().peekable();
        for (i, e) in self.events.iter().enumerate() {
            while let Some((_, text)) = comments.next_if(|(pos, _)| *pos <= i) {
                trace.push_comment(text.clone());
            }
            trace.push(*e);
        }
        for (_, text) in comments {
            trace.push_comment(text.clone());
        }
        trace
    }

    /// The shared event slice for zero-copy replay.
    pub fn events(&self) -> Arc<[IoEvent]> {
        self.events.clone()
    }

    /// Comment records as `(index of the event each precedes, text)`.
    pub fn comments(&self) -> &[(usize, String)] {
        &self.comments
    }

    /// Heap bytes held by this artifact: the single event slice plus the
    /// out-of-line comments.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.events)
            + self
                .comments
                .iter()
                .map(|(_, text)| std::mem::size_of::<(usize, String)>() + text.len())
                .sum::<usize>()
    }
}

/// Spill configuration for a [`TraceStore`].
#[derive(Debug, Clone, Default)]
pub struct StoreConfig {
    /// Resident-byte budget. `None` (the default) keeps every trace in
    /// memory; `Some(bytes)` spills least-recently-used traces to frame
    /// files and makes [`TraceStore::feed`] stream every replay.
    pub mem_budget: Option<usize>,
    /// Directory for spill files. `None` uses a per-process directory
    /// under the OS temp dir; `Some(dir)` additionally turns the
    /// directory into a persistent trace cache reused across runs.
    pub spill_dir: Option<PathBuf>,
}

/// Exact resident-byte accounting, shared by the store, its spilled
/// traces, and every live decoded block.
#[derive(Debug, Default)]
struct StoreCounters {
    resident: AtomicUsize,
    peak: AtomicUsize,
}

impl StoreCounters {
    fn charge(&self, n: usize) {
        let now = self.resident.fetch_add(n, Ordering::Relaxed) + n;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn discharge(&self, n: usize) {
        self.resident.fetch_sub(n, Ordering::Relaxed);
    }
}

/// One store slot. `bytes` mirrors the resident artifact's charge so a
/// spill can discharge exactly what generation (or reload) charged.
#[derive(Debug)]
struct StoreEntry {
    key: Key,
    state: Mutex<EntryState>,
    last_use: AtomicU64,
    bytes: AtomicUsize,
}

#[derive(Debug)]
enum EntryState {
    Resident(Arc<TraceArtifact>),
    Spilled(Arc<SpilledTrace>),
}

impl StoreEntry {
    fn resident(key: Key, art: Arc<TraceArtifact>, bytes: usize) -> StoreEntry {
        StoreEntry {
            key,
            state: Mutex::new(EntryState::Resident(art)),
            last_use: AtomicU64::new(0),
            bytes: AtomicUsize::new(bytes),
        }
    }

    fn spilled(key: Key, sp: Arc<SpilledTrace>) -> StoreEntry {
        StoreEntry {
            key,
            state: Mutex::new(EntryState::Spilled(sp)),
            last_use: AtomicU64::new(0),
            bytes: AtomicUsize::new(0),
        }
    }
}

/// A trace living on disk as a `stream_v2` frame file, decoded one
/// block at a time. Cursors sitting in the same block share one decoded
/// copy via the weak block cache; a block's bytes are charged against
/// the store counters while any cursor holds it and discharged by
/// [`DecodedBlock`]'s `Drop`.
struct SpilledTrace {
    file: FrameFile,
    comments: Comments,
    counters: Arc<StoreCounters>,
    blocks: Mutex<HashMap<usize, Weak<DecodedBlock>>>,
}

thread_local! {
    /// Compressed-payload scratch for block decodes. One buffer per
    /// thread serves every spilled trace: a buffer per trace would stay
    /// allocated for each trace a campaign replays.
    static PAYLOAD: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

impl std::fmt::Debug for SpilledTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpilledTrace")
            .field("total_events", &self.file.total_events())
            .field("blocks", &self.file.index().blocks.len())
            .finish()
    }
}

impl SpilledTrace {
    fn open(path: &Path, counters: Arc<StoreCounters>) -> Result<SpilledTrace, TraceError> {
        let file = FrameFile::open(path)?;
        let comments = read_comment_sidecar(&sidecar_path(path)).map_err(TraceError::Io)?;
        Ok(SpilledTrace { file, comments, counters, blocks: Mutex::new(HashMap::new()) })
    }

    /// The shared decoded copy of block `i`, decoding it if no cursor
    /// currently holds it. Decodes run under the cache lock so two
    /// cursors entering a block together never double-decode.
    fn block(self: &Arc<Self>, i: usize) -> Arc<DecodedBlock> {
        let mut cache = self.blocks.lock().expect("spilled block cache lock");
        if let Some(b) = cache.get(&i).and_then(Weak::upgrade) {
            return b;
        }
        cache.retain(|_, w| w.strong_count() > 0);
        let mut events = Vec::new();
        PAYLOAD
            .with_borrow_mut(|bytes| self.file.decode_block_into(i, bytes, &mut events))
            .expect("spilled trace block decodes (file was validated at spill time)");
        let size = std::mem::size_of_val(&events[..]);
        self.counters.charge(size);
        let b = Arc::new(DecodedBlock {
            events: events.into_boxed_slice(),
            bytes: size,
            counters: Arc::clone(&self.counters),
        });
        cache.insert(i, Arc::downgrade(&b));
        b
    }
}

/// One decoded frame block; discharges its byte charge when the last
/// cursor referencing it moves on.
struct DecodedBlock {
    events: Box<[IoEvent]>,
    bytes: usize,
    counters: Arc<StoreCounters>,
}

impl Drop for DecodedBlock {
    fn drop(&mut self) {
        self.counters.discharge(self.bytes);
    }
}

impl std::fmt::Debug for DecodedBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodedBlock").field("events", &self.events.len()).finish()
    }
}

/// A bounded-memory replay cursor over a spilled trace: implements the
/// simulator's [`EventSource`], holding exactly one decoded block at a
/// time (shared with any other cursor in the same block).
#[derive(Debug)]
pub struct SpilledCursor {
    trace: Arc<SpilledTrace>,
    block: Option<Arc<DecodedBlock>>,
    block_idx: usize,
    pos: usize,
}

impl SpilledCursor {
    fn new(trace: Arc<SpilledTrace>) -> SpilledCursor {
        let block = (!trace.file.index().blocks.is_empty()).then(|| trace.block(0));
        SpilledCursor { trace, block, block_idx: 0, pos: 0 }
    }
}

impl EventSource for SpilledCursor {
    fn current(&self) -> Option<&IoEvent> {
        self.block.as_ref().and_then(|b| b.events.get(self.pos))
    }

    fn advance(&mut self) {
        self.pos += 1;
        if let Some(b) = &self.block {
            if self.pos >= b.events.len() {
                self.block_idx += 1;
                self.pos = 0;
                self.block = (self.block_idx < self.trace.file.index().blocks.len())
                    .then(|| self.trace.block(self.block_idx));
            }
        }
    }

    fn max_file_id(&self) -> u32 {
        self.trace.file.index().max_file_id()
    }

    fn len(&self) -> u64 {
        self.trace.file.total_events()
    }
}

/// Live-entry count and memory accounting for a [`TraceStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreFootprint {
    /// Number of memoized traces (resident or spilled).
    pub entries: usize,
    /// Total I/O events across all entries.
    pub events: usize,
    /// Approximate heap bytes held by resident artifacts.
    pub approx_bytes: usize,
    /// Entries currently living on disk as frame files.
    pub spilled: usize,
    /// Exact resident bytes right now: artifacts plus live decoded
    /// blocks held by streaming cursors.
    pub resident_bytes: usize,
    /// High-water mark of `resident_bytes` over the store's lifetime.
    pub peak_bytes: usize,
}

/// A concurrent, memoizing store of generated application traces.
///
/// `events`/`artifact` generate each `(app, pid, seed, scale)` trace
/// exactly once — even when many sweep worker threads request it
/// simultaneously — and hand out cheap `Arc` clones thereafter. A front
/// end builds one store from its [`crate::RunConfig::store`] and passes
/// it to every entry point it runs; benches that need cold/warm control
/// construct their own.
///
/// [`TraceStore::feed`] is the replay handle: a shared slice when the
/// trace is resident, a streaming [`SpilledCursor`] when a memory
/// budget is configured (see the module docs for the memory model).
#[derive(Debug)]
pub struct TraceStore {
    entries: Mutex<HashMap<Key, Arc<OnceLock<Arc<StoreEntry>>>>>,
    config: StoreConfig,
    counters: Arc<StoreCounters>,
    clock: AtomicU64,
    spill_note: Once,
}

impl Default for TraceStore {
    fn default() -> TraceStore {
        TraceStore::with_config(StoreConfig::default())
    }
}

impl TraceStore {
    /// An empty store keeping everything resident.
    pub fn new() -> TraceStore {
        TraceStore::default()
    }

    /// An empty store with an explicit spill configuration.
    pub fn with_config(config: StoreConfig) -> TraceStore {
        TraceStore {
            entries: Mutex::new(HashMap::new()),
            config,
            counters: Arc::new(StoreCounters::default()),
            clock: AtomicU64::new(0),
            spill_note: Once::new(),
        }
    }

    /// Whether replays from this store stream from disk ([`feed`]
    /// returns cursors rather than shared slices).
    ///
    /// [`feed`]: TraceStore::feed
    pub fn streaming(&self) -> bool {
        self.config.mem_budget.is_some()
    }

    /// The memoized artifact for one application instance, generating it
    /// on first request. Concurrent first requests block on one
    /// generation rather than racing duplicates. A spilled entry is
    /// reloaded (and stays resident until budget pressure re-spills it).
    pub fn artifact(&self, kind: AppKind, pid: u32, seed: u64, scale: Scale) -> Arc<TraceArtifact> {
        let entry = self.lookup(kind, pid, seed, scale);
        let art = {
            let mut st = entry.state.lock().expect("trace store entry lock");
            match &*st {
                EntryState::Resident(a) => a.clone(),
                EntryState::Spilled(sp) => {
                    let a = Arc::new(reload(sp));
                    let bytes = a.approx_bytes();
                    self.counters.charge(bytes);
                    entry.bytes.store(bytes, Ordering::Relaxed);
                    *st = EntryState::Resident(a.clone());
                    a
                }
            }
        };
        self.enforce_budget();
        art
    }

    /// The whole event slice for one application instance. Reloads a
    /// spilled entry and charges it to the budget; simulations replay
    /// through [`TraceStore::feed`] instead (see [`crate::simulation`]).
    pub fn events(&self, kind: AppKind, pid: u32, seed: u64, scale: Scale) -> Arc<[IoEvent]> {
        self.artifact(kind, pid, seed, scale).events()
    }

    /// The replay feed for one application instance. Without a memory
    /// budget this is a zero-copy shared slice; with one, the trace is
    /// (spilled if needed and) streamed block-by-block so replay
    /// residency stays bounded no matter how many processes replay it.
    /// The streamed event sequence is identical to the shared slice —
    /// the frame codec round-trips events exactly.
    pub fn feed(&self, kind: AppKind, pid: u32, seed: u64, scale: Scale) -> ProcessFeed {
        let entry = self.lookup(kind, pid, seed, scale);
        let mut st = entry.state.lock().expect("trace store entry lock");
        if self.streaming() {
            if let EntryState::Resident(a) = &*st {
                match self.spill_now(&entry.key, a) {
                    Some(sp) => {
                        self.counters.discharge(entry.bytes.swap(0, Ordering::Relaxed));
                        *st = EntryState::Spilled(sp);
                    }
                    // Disk trouble: fall back to the shared slice rather
                    // than failing the run.
                    None => return ProcessFeed::Shared(a.events()),
                }
            }
        }
        match &*st {
            EntryState::Resident(a) => ProcessFeed::Shared(a.events()),
            EntryState::Spilled(sp) => {
                ProcessFeed::Streamed(Box::new(SpilledCursor::new(Arc::clone(sp))))
            }
        }
    }

    /// Persist one trace as a `stream_v2` frame file under the spill
    /// directory (reusing a valid existing copy) and return its path —
    /// the handoff point for post-hoc frame analyses such as
    /// [`crate::dfg`]. Works in any mode; a spilled entry's file is
    /// returned as-is.
    pub fn export_frame(
        &self,
        kind: AppKind,
        pid: u32,
        seed: u64,
        scale: Scale,
    ) -> std::io::Result<PathBuf> {
        let entry = self.lookup(kind, pid, seed, scale);
        let st = entry.state.lock().expect("trace store entry lock");
        match &*st {
            EntryState::Resident(a) => self.persist(&entry.key, a),
            EntryState::Spilled(_) => {
                Ok(self.spill_dir().join(format!("{}.mio2", entry.key.file_stem())))
            }
        }
    }

    /// Drop every memoized trace (frees the memory; subsequent requests
    /// regenerate or reload). Spill files stay on disk.
    pub fn clear(&self) {
        let mut map = self.entries.lock().expect("trace store lock");
        for cell in map.values() {
            if let Some(entry) = cell.get() {
                let st = entry.state.lock().expect("trace store entry lock");
                if matches!(&*st, EntryState::Resident(_)) {
                    self.counters.discharge(entry.bytes.swap(0, Ordering::Relaxed));
                }
            }
        }
        map.clear();
    }

    /// Live-entry count and memory accounting.
    pub fn footprint(&self) -> StoreFootprint {
        let map = self.entries.lock().expect("trace store lock");
        let mut f = StoreFootprint {
            entries: 0,
            events: 0,
            approx_bytes: 0,
            spilled: 0,
            resident_bytes: self.counters.resident.load(Ordering::Relaxed),
            peak_bytes: self.counters.peak.load(Ordering::Relaxed),
        };
        for cell in map.values() {
            let Some(entry) = cell.get() else { continue };
            let st = entry.state.lock().expect("trace store entry lock");
            f.entries += 1;
            match &*st {
                EntryState::Resident(a) => {
                    f.events += a.events.len();
                    f.approx_bytes += a.approx_bytes();
                }
                EntryState::Spilled(sp) => {
                    f.events += sp.file.total_events() as usize;
                    f.spilled += 1;
                }
            }
        }
        f
    }

    // ---- internals ----------------------------------------------------------

    fn lookup(&self, kind: AppKind, pid: u32, seed: u64, scale: Scale) -> Arc<StoreEntry> {
        let key = Key { kind, pid, seed, scale: scale.0 };
        let cell = {
            let mut map = self.entries.lock().expect("trace store lock");
            map.entry(key).or_insert_with(|| Arc::new(OnceLock::new())).clone()
        };
        let entry = cell.get_or_init(|| Arc::new(self.build_entry(key))).clone();
        entry.last_use.store(self.clock.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
        entry
    }

    fn build_entry(&self, key: Key) -> StoreEntry {
        // An explicit trace dir is a persistent cache: reuse a frame
        // file left by a previous run instead of regenerating.
        if self.config.spill_dir.is_some() {
            if let Some(sp) = self.try_reopen(&key) {
                if self.streaming() {
                    return StoreEntry::spilled(key, sp);
                }
                let art = Arc::new(reload(&sp));
                let bytes = art.approx_bytes();
                self.counters.charge(bytes);
                return StoreEntry::resident(key, art, bytes);
            }
        }
        let scale = Scale(key.scale);
        let (events, comments) = generate_parts(&scaled_spec(key.kind, key.pid, scale), key.seed);
        let art = Arc::new(TraceArtifact::from_parts(events, comments));
        if self.config.spill_dir.is_some() {
            // Best effort: persist for later runs even while resident.
            let _ = self.persist(&key, &art);
        }
        let bytes = art.approx_bytes();
        if let Some(budget) = self.config.mem_budget {
            if self.counters.resident.load(Ordering::Relaxed) + bytes > budget {
                if let Some(sp) = self.spill_now(&key, &art) {
                    return StoreEntry::spilled(key, sp);
                }
            }
        }
        self.counters.charge(bytes);
        StoreEntry::resident(key, art, bytes)
    }

    /// Spill least-recently-used resident entries until the resident
    /// count is back under budget. Caller must hold no entry locks.
    fn enforce_budget(&self) {
        let Some(budget) = self.config.mem_budget else { return };
        if self.counters.resident.load(Ordering::Relaxed) <= budget {
            return;
        }
        let mut entries: Vec<Arc<StoreEntry>> = {
            let map = self.entries.lock().expect("trace store lock");
            map.values().filter_map(|c| c.get().cloned()).collect()
        };
        entries.sort_by_key(|e| e.last_use.load(Ordering::Relaxed));
        for entry in entries {
            if self.counters.resident.load(Ordering::Relaxed) <= budget {
                break;
            }
            let mut st = entry.state.lock().expect("trace store entry lock");
            if let EntryState::Resident(a) = &*st {
                if let Some(sp) = self.spill_now(&entry.key, a) {
                    self.counters.discharge(entry.bytes.swap(0, Ordering::Relaxed));
                    *st = EntryState::Spilled(sp);
                }
            }
        }
    }

    /// Encode `art` to its frame file (skipping the write when a valid
    /// copy already exists) and open it for streaming. `None` means the
    /// disk is unusable; the caller keeps the trace resident.
    fn spill_now(&self, key: &Key, art: &TraceArtifact) -> Option<Arc<SpilledTrace>> {
        let path = self.persist(key, art).ok()?;
        let sp = SpilledTrace::open(&path, Arc::clone(&self.counters)).ok()?;
        if sp.file.total_events() != art.events.len() as u64 {
            return None;
        }
        self.note_spill(&path);
        Some(Arc::new(sp))
    }

    /// Write the frame file + comment sidecar for `key` unless a valid
    /// copy is already there. Writes go through a temp file + rename so
    /// a crashed run never leaves a truncated file to be trusted later.
    ///
    /// The temp names are unique per process *and* per call: a
    /// persistent `--trace-dir` is shared by every concurrent store
    /// (pool workers in `mio serve`, parallel test processes), and two
    /// writers racing the same cold key with a *shared* temp name would
    /// interleave partial frame files. With unique temp names each
    /// writer assembles its own complete file and the `rename` into
    /// place is atomic — last writer wins with identical bytes, since
    /// trace generation is deterministic per key.
    fn persist(&self, key: &Key, art: &TraceArtifact) -> std::io::Result<PathBuf> {
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = self.spill_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.mio2", key.file_stem()));
        let valid = FrameFile::open(&path)
            .map(|f| f.total_events() == art.events.len() as u64)
            .unwrap_or(false)
            && sidecar_path(&path).exists();
        if !valid {
            let unique = format!(
                "{}-{}",
                std::process::id(),
                TMP_SEQ.fetch_add(1, Ordering::Relaxed)
            );
            let tmp = dir.join(format!("{}.mio2.{unique}.tmp", key.file_stem()));
            write_frame_file_with(&tmp, art.events.iter(), SPILL_BLOCK_EVENTS)
                .map_err(io_error_of)?;
            std::fs::rename(&tmp, &path)?;
            let mut body = String::new();
            for (i, text) in &art.comments {
                body.push_str(&format!("{i}\t{text}\n"));
            }
            let stmp = dir.join(format!("{}.comments.{unique}.tmp", key.file_stem()));
            std::fs::write(&stmp, body)?;
            std::fs::rename(&stmp, sidecar_path(&path))?;
        }
        Ok(path)
    }

    /// Open a frame file left by a previous run, if it validates. Its
    /// blocks are decoded lazily later, so each block's checksum is
    /// verified here: a damaged file is deleted instead, and the caller
    /// regenerates the trace (and persists it afresh), whose bytes are
    /// deterministic per key.
    fn try_reopen(&self, key: &Key) -> Option<Arc<SpilledTrace>> {
        let path = self.spill_dir().join(format!("{}.mio2", key.file_stem()));
        let sp = SpilledTrace::open(&path, Arc::clone(&self.counters)).ok()?;
        let (mut bytes, mut events) = (Vec::new(), Vec::new());
        let intact = (0..sp.file.index().blocks.len())
            .all(|i| sp.file.decode_block_into(i, &mut bytes, &mut events).is_ok());
        if !intact {
            let _ = std::fs::remove_file(&path);
            return None;
        }
        Some(Arc::new(sp))
    }

    fn spill_dir(&self) -> PathBuf {
        match &self.config.spill_dir {
            Some(d) => d.clone(),
            // Per-process so a stale file from an older build is never
            // mistaken for this run's spill.
            None => std::env::temp_dir().join(format!("miller-traces-{}", std::process::id())),
        }
    }

    fn note_spill(&self, path: &Path) {
        self.spill_note.call_once(|| {
            let budget_mb = self.config.mem_budget.unwrap_or(0) / (1024 * 1024);
            eprintln!(
                "trace store: streaming traces from {} (memory budget {budget_mb} MB)",
                path.parent().unwrap_or(path).display()
            );
        });
    }
}

/// Decode a spilled trace back into a resident artifact.
fn reload(sp: &SpilledTrace) -> TraceArtifact {
    let events = sp
        .file
        .decode_all()
        .expect("spilled trace file decodes (it was validated when opened)");
    TraceArtifact::from_parts(events.into(), sp.comments.clone())
}

fn sidecar_path(path: &Path) -> PathBuf {
    path.with_extension("comments")
}

fn read_comment_sidecar(path: &Path) -> std::io::Result<Comments> {
    let body = std::fs::read_to_string(path)?;
    let mut out = Vec::new();
    for line in body.lines() {
        let (idx, text) = line
            .split_once('\t')
            .ok_or_else(|| bad_data("comment sidecar line missing index"))?;
        let idx = idx.parse::<usize>().map_err(|_| bad_data("bad comment sidecar index"))?;
        out.push((idx, text.to_string()));
    }
    Ok(out)
}

fn bad_data(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what)
}

fn io_error_of(e: TraceError) -> std::io::Error {
    match e {
        TraceError::Io(e) => e,
        other => std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use workload::generate;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("miller-store-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Drain a feed into a vector, whichever arm it is.
    fn drain(feed: ProcessFeed) -> Vec<IoEvent> {
        match feed {
            ProcessFeed::Shared(events) => events.to_vec(),
            ProcessFeed::Streamed(mut src) => {
                let mut out = Vec::new();
                while let Some(e) = src.current() {
                    out.push(*e);
                    src.advance();
                }
                out
            }
        }
    }

    #[test]
    fn memoizes_per_key_and_shares_the_slice() {
        let store = TraceStore::new();
        let a = store.events(AppKind::Venus, 1, 7, Scale(16));
        let b = store.events(AppKind::Venus, 1, 7, Scale(16));
        assert!(Arc::ptr_eq(&a, &b), "same key must share one allocation");
        let c = store.events(AppKind::Venus, 2, 7, Scale(16));
        assert!(!Arc::ptr_eq(&a, &c), "pid is part of the key");
        assert_ne!(a, c, "venus#2's jitter stream differs from venus#1's");
        let f = store.footprint();
        assert_eq!(f.entries, 2);
        assert_eq!(f.events, a.len() + c.len());
        assert!(f.approx_bytes > 0);
        assert_eq!(f.spilled, 0);
        assert_eq!(f.resident_bytes, f.approx_bytes);
        assert_eq!(f.peak_bytes, f.approx_bytes);
    }

    #[test]
    fn matches_fresh_generation_exactly() {
        let store = TraceStore::new();
        let stored = store.artifact(AppKind::Ccm, 2, 9, Scale(8));
        let fresh = generate(&scaled_spec(AppKind::Ccm, 2, Scale(8)), 9);
        assert_eq!(stored.trace(), fresh);
        let fresh_events: Vec<IoEvent> = fresh.events().copied().collect();
        assert_eq!(&*stored.events(), fresh_events.as_slice());
    }

    #[test]
    fn concurrent_requests_generate_once() {
        // 8 threads hammer the same key; the store must hand every one
        // the same allocation (i.e. generation ran exactly once).
        let store = TraceStore::new();
        let hits = AtomicUsize::new(0);
        let slices: Vec<Arc<[IoEvent]>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        hits.fetch_add(1, Ordering::Relaxed);
                        store.events(AppKind::Upw, 1, 3, Scale(16))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panics")).collect()
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
        for s in &slices[1..] {
            assert!(Arc::ptr_eq(&slices[0], s));
        }
        assert_eq!(store.footprint().entries, 1);
    }

    #[test]
    fn clear_releases_entries() {
        let store = TraceStore::new();
        store.events(AppKind::Gcm, 1, 1, Scale(16));
        assert_eq!(store.footprint().entries, 1);
        store.clear();
        let f = store.footprint();
        assert_eq!(f.entries, 0);
        assert_eq!(f.resident_bytes, 0, "clear discharges every resident byte");
    }

    #[test]
    fn unbounded_feed_is_the_shared_slice() {
        let store = TraceStore::new();
        let events = store.events(AppKind::Venus, 1, 7, Scale(64));
        match store.feed(AppKind::Venus, 1, 7, Scale(64)) {
            ProcessFeed::Shared(s) => assert!(Arc::ptr_eq(&s, &events)),
            ProcessFeed::Streamed(_) => panic!("no budget, no streaming"),
        }
    }

    #[test]
    fn budget_store_streams_identical_events_with_bounded_residency() {
        let dir = test_dir("stream");
        let store = TraceStore::with_config(StoreConfig {
            mem_budget: Some(0), // everything spills
            spill_dir: Some(dir.clone()),
        });
        let baseline = TraceStore::new();

        for pid in 1..=3u32 {
            let feed = store.feed(AppKind::Venus, pid, 7, Scale(64));
            assert!(
                matches!(feed, ProcessFeed::Streamed(_)),
                "budget mode must stream replays"
            );
            let streamed = drain(feed);
            let expect = baseline.events(AppKind::Venus, pid, 7, Scale(64));
            assert_eq!(streamed.as_slice(), &*expect, "streamed replay must be identical");
        }

        let f = store.footprint();
        assert_eq!(f.entries, 3);
        assert_eq!(f.spilled, 3);
        assert_eq!(f.resident_bytes, 0, "no cursors live, no resident bytes");
        // Peak residency: at most one artifact during generation plus a
        // decoded block or two — far below three whole traces.
        let full: usize =
            (1..=3).map(|p| baseline.artifact(AppKind::Venus, p, 7, Scale(64)).approx_bytes()).sum();
        assert!(f.peak_bytes < full, "peak {} must undercut resident total {}", f.peak_bytes, full);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cursors_in_the_same_block_share_one_decode() {
        let dir = test_dir("share");
        let store = TraceStore::with_config(StoreConfig {
            mem_budget: Some(0),
            spill_dir: Some(dir.clone()),
        });
        let a = store.feed(AppKind::Ccm, 1, 3, Scale(16));
        let b = store.feed(AppKind::Ccm, 1, 3, Scale(16));
        let (ProcessFeed::Streamed(a), ProcessFeed::Streamed(b)) = (a, b) else {
            panic!("budget mode must stream")
        };
        let one_block = store.footprint().resident_bytes;
        assert!(one_block > 0, "two parked cursors hold their first block");
        assert!(
            one_block <= SPILL_BLOCK_EVENTS * std::mem::size_of::<IoEvent>(),
            "cursors in the same block share one decoded copy"
        );
        drop(a);
        drop(b);
        assert_eq!(store.footprint().resident_bytes, 0, "drop discharges the block");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spilled_artifact_reloads_exactly() {
        let dir = test_dir("reload");
        let store = TraceStore::with_config(StoreConfig {
            mem_budget: Some(0),
            spill_dir: Some(dir.clone()),
        });
        drop(store.feed(AppKind::Gcm, 1, 5, Scale(16))); // force the spill
        let reloaded = store.artifact(AppKind::Gcm, 1, 5, Scale(16));
        let fresh = generate(&scaled_spec(AppKind::Gcm, 1, Scale(16)), 5);
        assert_eq!(reloaded.trace(), fresh, "reload restores events and comments");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explicit_dir_reuses_traces_across_stores() {
        let dir = test_dir("reuse");
        let first = TraceStore::with_config(StoreConfig {
            mem_budget: None,
            spill_dir: Some(dir.clone()),
        });
        let original = first.artifact(AppKind::Venus, 1, 11, Scale(16));
        let frame = dir.join("venus-p1-s11-x16.mio2");
        assert!(frame.exists(), "explicit dir persists traces eagerly");
        assert!(frame.with_extension("comments").exists());

        // A second store (a later run) must load the same trace from
        // the file — and must survive a corrupt file by regenerating.
        let second = TraceStore::with_config(StoreConfig {
            mem_budget: None,
            spill_dir: Some(dir.clone()),
        });
        assert_eq!(second.artifact(AppKind::Venus, 1, 11, Scale(16)).trace(), original.trace());

        std::fs::write(&frame, b"not a frame file").expect("tamper");
        let third = TraceStore::with_config(StoreConfig {
            mem_budget: None,
            spill_dir: Some(dir.clone()),
        });
        assert_eq!(third.artifact(AppKind::Venus, 1, 11, Scale(16)).trace(), original.trace());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_damaged_block_in_a_persisted_file_is_regenerated() {
        // The footer and index still validate; only block 0's payload
        // is damaged, which the lazy block decode of a streamed replay
        // would otherwise meet mid-run.
        let dir = test_dir("damaged");
        let config = StoreConfig { mem_budget: Some(1), spill_dir: Some(dir.clone()) };
        let replay = |store: &TraceStore| {
            let feed = store.feed(AppKind::Venus, 1, 17, Scale(16));
            assert!(matches!(feed, ProcessFeed::Streamed(_)), "a 1-byte budget streams");
            drain(feed)
        };
        let fresh = generate(&scaled_spec(AppKind::Venus, 1, Scale(16)), 17);
        let expected: Vec<IoEvent> = fresh.events().copied().collect();
        assert_eq!(replay(&TraceStore::with_config(config.clone())), expected);

        let frame = dir.join("venus-p1-s17-x16.mio2");
        let mut bytes = std::fs::read(&frame).expect("persisted frame file");
        bytes[200] ^= 0xff;
        std::fs::write(&frame, &bytes).expect("damage");
        assert!(FrameFile::open(&frame).is_ok(), "the damage is inside a block");

        assert_eq!(replay(&TraceStore::with_config(config)), expected, "streamed reopen");
        let resident = TraceStore::with_config(StoreConfig {
            mem_budget: None,
            spill_dir: Some(dir.clone()),
        });
        std::fs::write(&frame, &bytes).expect("damage again");
        assert_eq!(resident.artifact(AppKind::Venus, 1, 17, Scale(16)).trace(), fresh, "reload");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_stores_racing_a_cold_entry_never_corrupt_the_cache() {
        // Two independent stores (think: two pool workers, or two
        // processes) share one persistent --trace-dir and hit the same
        // cold key at once. Unique temp names + atomic rename mean
        // neither can observe or publish a partially-written frame
        // file, whoever wins the final rename.
        let dir = test_dir("race");
        let reference = TraceStore::new().artifact(AppKind::Venus, 1, 13, Scale(16));
        for round in 0..4 {
            let _ = std::fs::remove_dir_all(&dir);
            let results: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        let dir = dir.clone();
                        scope.spawn(move || {
                            let store = TraceStore::with_config(StoreConfig {
                                mem_budget: None,
                                spill_dir: Some(dir),
                            });
                            store.artifact(AppKind::Venus, 1, 13, Scale(16))
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("racer")).collect()
            });
            for art in &results {
                assert_eq!(
                    art.trace(),
                    reference.trace(),
                    "round {round}: racer produced a different trace"
                );
            }
            // The published file must be complete and trusted by a
            // fresh store (a later run reading the winner's bytes).
            let reread = TraceStore::with_config(StoreConfig {
                mem_budget: None,
                spill_dir: Some(dir.clone()),
            });
            assert_eq!(
                reread.artifact(AppKind::Venus, 1, 13, Scale(16)).trace(),
                reference.trace(),
                "round {round}: published frame file does not validate"
            );
            let leftovers: Vec<_> = std::fs::read_dir(&dir)
                .expect("dir")
                .filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.ends_with(".tmp"))
                .collect();
            assert!(leftovers.is_empty(), "round {round}: temp litter {leftovers:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_spills_oldest_entry_first() {
        let dir = test_dir("lru");
        // Roomy enough for one 1/16-scale trace, not two.
        let one = TraceStore::new().artifact(AppKind::Venus, 1, 7, Scale(16)).approx_bytes();
        let budget = one + one / 2;
        let store = TraceStore::with_config(StoreConfig {
            mem_budget: Some(budget),
            spill_dir: Some(dir.clone()),
        });
        store.artifact(AppKind::Venus, 1, 7, Scale(16));
        store.artifact(AppKind::Venus, 2, 7, Scale(16));
        let f = store.footprint();
        assert_eq!(f.entries, 2);
        assert_eq!(f.spilled, 1, "over budget, the LRU entry spills");
        assert!(f.resident_bytes <= budget, "resident stays under budget");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
