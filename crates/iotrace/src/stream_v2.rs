//! Binary frame format for bounded-memory trace replay (stream v2).
//!
//! The ASCII codec ([`crate::codec`]) is the paper's archival format:
//! human-readable, one record per line, field inference by compression
//! flags. It decodes at text-parsing speed and only sequentially. This
//! module is the *storage engine* counterpart the streaming experiment
//! path replays from: a compact binary container holding the same
//! [`IoEvent`] model, built for cursor replay with O(block) memory.
//!
//! ## Layout
//!
//! ```text
//! +--------+----------+----------+-- ... --+----------+--------------+
//! | header | block 0  | block 1  |         | block N-1| index footer |
//! +--------+----------+----------+-- ... --+----------+--------------+
//!
//! header (16 B):  "MIO2" | version u32 | block_events u32 | reserved u32
//! block:          "BLK\0" | min_time u64 | count u32 | payload_len u32
//!                 | checksum u64 (FNV-1a over payload) | payload bytes
//! index footer:   "IDX\0" | block_count u32
//!                 | per block { offset u64, min_time u64,
//!                               count u32, max_file_id u32 }
//!                 | total_events u64 | checksum u64
//!                 | footer_len u32 | "MIOX"
//! ```
//!
//! All integers are little-endian. The trailing 8 bytes (`footer_len` +
//! magic) let a reader locate the footer without scanning; the `"BLK\0"` /
//! `"IDX\0"` tags let a reader check that an index offset lands on the
//! structure it claims.
//!
//! ## Event encoding
//!
//! Within a block every field is a varint (LEB128), delta-encoded against
//! the previous event *in the same block* — the per-field compression is
//! in the spirit of the ASCII codec's inference flags (offset continues
//! sequentially, ids repeat), but stateless across blocks: the delta
//! context resets at each block boundary (`start` deltas begin from the
//! block's `min_time`, everything else from zero), so any block decodes
//! independently of all others. Per event:
//!
//! 1. packed `recordType` bits (the five flag enums)
//! 2. zigzag Δ`start` vs previous start
//! 3. `completion` ticks
//! 4. zigzag Δ`offset` vs previous event's end offset (sequential → 0)
//! 5. zigzag Δ`length` (repeated sizes → 0)
//! 6. zigzag Δ`op_id`
//! 7. zigzag Δ`file_id`
//! 8. zigzag Δ`process_id`
//! 9. `process_time` ticks
//!
//! A typical sequential-read event costs ~10 bytes against 96 B in
//! memory — the varint delta coding *is* the block compression, with the
//! compressed size recorded per block in its header.
//!
//! ## Replay
//!
//! [`FrameFile::open`] validates the header and index footer, then reads
//! each block with a positioned read (`pread`) straight from the file
//! descriptor, so resident memory is one block per cursor.
//! [`FrameFile::from_bytes`] reads the same format out of an in-memory
//! buffer. [`FrameCursor`] is the zero-allocation iterator: one decoded block
//! lives in a reusable scratch `Vec<IoEvent>` (plus a byte scratch for
//! the compressed payload); advancing within a block allocates nothing,
//! and crossing a boundary only recycles the same two buffers.
//!
//! Robustness contract (pinned by `tests/proptest_frame_robustness.rs`):
//! decoding untrusted bytes returns [`TraceError`], never panics, and a
//! flipped payload byte is caught by the block checksum rather than
//! misdecoding silently.

use crate::error::TraceError;
use crate::flags::RecordType;
use crate::record::IoEvent;
use sim_core::{SimDuration, SimTime};
use std::fs::File;
use std::io::Write;
use std::path::Path;

/// File magic ("MIO2") opening every frame file.
pub const FRAME_MAGIC: [u8; 4] = *b"MIO2";
/// Footer magic ("MIOX") closing every frame file.
pub const FOOTER_MAGIC: [u8; 4] = *b"MIOX";
/// Per-block tag.
const BLOCK_TAG: [u8; 4] = *b"BLK\0";
/// Index-footer tag.
const INDEX_TAG: [u8; 4] = *b"IDX\0";
/// Format version written by this build.
pub const FRAME_VERSION: u32 = 1;
/// Default events per block: big enough that varint decode amortizes the
/// per-block header + checksum, small enough that one block (~384 KB of
/// decoded events) is a sane replay working set.
pub const DEFAULT_BLOCK_EVENTS: usize = 4096;

/// Hard ceilings a decoder enforces before trusting length fields from
/// the wire, so corrupt counts cannot drive huge allocations.
const MAX_BLOCK_EVENTS: u32 = 1 << 22;
const MAX_PAYLOAD_LEN: u32 = 1 << 30;

const HEADER_LEN: u64 = 16;
const BLOCK_HEADER_LEN: u64 = 4 + 8 + 4 + 4 + 8;
const INDEX_ENTRY_LEN: u64 = 8 + 8 + 4 + 4;

// ---- checksum ---------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[inline]
fn fnv1a_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// 64-bit FNV-1a over a byte slice; dependency-free and fast enough to be
/// invisible next to varint decode.
fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(FNV_OFFSET, bytes)
}

/// A block's checksum covers its header fields (delta origin, count,
/// payload length) as well as the payload, so a flipped header byte can
/// never silently shift every decoded timestamp.
fn block_checksum(min_time: u64, count: u32, payload: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv1a_update(h, &min_time.to_le_bytes());
    h = fnv1a_update(h, &count.to_le_bytes());
    h = fnv1a_update(h, &(payload.len() as u32).to_le_bytes());
    fnv1a_update(h, payload)
}

// ---- varint primitives ------------------------------------------------------

#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Cursor over a payload slice; every read is bounds-checked.
struct ByteCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteCursor<'a> {
    fn new(bytes: &'a [u8]) -> ByteCursor<'a> {
        ByteCursor { bytes, pos: 0 }
    }

    #[inline]
    fn varint(&mut self) -> Result<u64, TraceError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(TraceError::Truncated);
            };
            self.pos += 1;
            if shift == 63 && b > 1 {
                return Err(TraceError::BadFrame {
                    offset: self.pos as u64,
                    what: "varint overflows 64 bits",
                });
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(TraceError::BadFrame {
                    offset: self.pos as u64,
                    what: "varint longer than 10 bytes",
                });
            }
        }
    }

    fn exhausted(&self) -> bool {
        self.pos >= self.bytes.len()
    }
}

// ---- per-block event codec --------------------------------------------------

/// Delta context, reset at every block boundary so blocks decode
/// independently.
struct DeltaState {
    start: u64,
    end_offset: u64,
    length: u64,
    op_id: u32,
    file_id: u32,
    process_id: u32,
}

impl DeltaState {
    fn at_block(min_time: SimTime) -> DeltaState {
        DeltaState {
            start: min_time.ticks(),
            end_offset: 0,
            length: 0,
            op_id: 0,
            file_id: 0,
            process_id: 0,
        }
    }
}

#[inline]
fn delta_u64(new: u64, prev: u64) -> u64 {
    zigzag(new.wrapping_sub(prev) as i64)
}

#[inline]
fn apply_u64(prev: u64, encoded: u64) -> u64 {
    prev.wrapping_add(unzigzag(encoded) as u64)
}

fn encode_event(out: &mut Vec<u8>, e: &IoEvent, st: &mut DeltaState) {
    put_varint(out, e.record_type().to_bits() as u64);
    put_varint(out, delta_u64(e.start.ticks(), st.start));
    put_varint(out, e.completion.ticks());
    put_varint(out, delta_u64(e.offset, st.end_offset));
    put_varint(out, delta_u64(e.length, st.length));
    put_varint(out, delta_u64(e.op_id as u64, st.op_id as u64));
    put_varint(out, delta_u64(e.file_id as u64, st.file_id as u64));
    put_varint(out, delta_u64(e.process_id as u64, st.process_id as u64));
    put_varint(out, e.process_time.ticks());
    st.start = e.start.ticks();
    st.end_offset = e.offset.wrapping_add(e.length);
    st.length = e.length;
    st.op_id = e.op_id;
    st.file_id = e.file_id;
    st.process_id = e.process_id;
}

fn decode_event(cur: &mut ByteCursor<'_>, st: &mut DeltaState) -> Result<IoEvent, TraceError> {
    let bits = cur.varint()?;
    let Ok(bits16) = u16::try_from(bits) else {
        return Err(TraceError::BadFrame {
            offset: cur.pos as u64,
            what: "recordType exceeds 16 bits",
        });
    };
    let Some(rt) = RecordType::from_bits(bits16) else {
        return Err(TraceError::BadRecordType { line: 0, bits: bits16 });
    };
    let start = apply_u64(st.start, cur.varint()?);
    let completion = cur.varint()?;
    let offset = apply_u64(st.end_offset, cur.varint()?);
    let length = apply_u64(st.length, cur.varint()?);
    let op_id = apply_u64(st.op_id as u64, cur.varint()?) as u32;
    let file_id = apply_u64(st.file_id as u64, cur.varint()?) as u32;
    let process_id = apply_u64(st.process_id as u64, cur.varint()?) as u32;
    let process_time = cur.varint()?;
    st.start = start;
    st.end_offset = offset.wrapping_add(length);
    st.length = length;
    st.op_id = op_id;
    st.file_id = file_id;
    st.process_id = process_id;
    Ok(IoEvent {
        kind: rt.kind,
        scope: rt.scope,
        dir: rt.dir,
        sync: rt.sync,
        cache: rt.cache,
        offset,
        length,
        start: SimTime::from_ticks(start),
        completion: SimDuration::from_ticks(completion),
        op_id,
        file_id,
        process_id,
        process_time: SimDuration::from_ticks(process_time),
    })
}

// ---- index ------------------------------------------------------------------

/// One block's entry in the index footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// Byte offset of the block's `"BLK\0"` tag from the start of file.
    pub offset: u64,
    /// Smallest `start` time of any event in the block (also the delta
    /// origin its payload decodes against).
    pub min_time: SimTime,
    /// Events in the block.
    pub count: u32,
    /// Largest raw `file_id` in the block — lets a consumer validate the
    /// simulator's 16-bit namespacing without decoding anything.
    pub max_file_id: u32,
}

/// The decoded index footer of a frame file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FrameIndex {
    /// Per-block entries, in file order.
    pub blocks: Vec<BlockEntry>,
    /// Total events across all blocks.
    pub total_events: u64,
    /// The writer's events-per-block setting (the last block may be
    /// shorter).
    pub block_events: u32,
}

impl FrameIndex {
    /// Largest raw `file_id` anywhere in the file (0 when empty).
    pub fn max_file_id(&self) -> u32 {
        self.blocks.iter().map(|b| b.max_file_id).max().unwrap_or(0)
    }

    /// Approximate decoded working-set bytes of one block.
    pub fn block_bytes(&self) -> usize {
        self.block_events as usize * std::mem::size_of::<IoEvent>()
    }
}

// ---- writer -----------------------------------------------------------------

/// Streaming frame encoder over any [`Write`].
///
/// Push events in replay order; blocks flush themselves every
/// `block_events` events, and [`FrameWriter::finish`] writes the final
/// partial block plus the index footer.
#[derive(Debug)]
pub struct FrameWriter<W: Write> {
    out: W,
    block_events: usize,
    pending: Vec<IoEvent>,
    payload: Vec<u8>,
    index: FrameIndex,
    pos: u64,
}

impl<W: Write> FrameWriter<W> {
    /// A writer with the default block size; writes the file header
    /// immediately.
    pub fn new(out: W) -> Result<FrameWriter<W>, TraceError> {
        FrameWriter::with_block_events(out, DEFAULT_BLOCK_EVENTS)
    }

    /// A writer flushing a block every `block_events` events (clamped to
    /// at least 1).
    pub fn with_block_events(
        mut out: W,
        block_events: usize,
    ) -> Result<FrameWriter<W>, TraceError> {
        let block_events = block_events.clamp(1, MAX_BLOCK_EVENTS as usize);
        out.write_all(&FRAME_MAGIC)?;
        out.write_all(&FRAME_VERSION.to_le_bytes())?;
        out.write_all(&(block_events as u32).to_le_bytes())?;
        out.write_all(&0u32.to_le_bytes())?;
        Ok(FrameWriter {
            out,
            block_events,
            pending: Vec::with_capacity(block_events),
            payload: Vec::new(),
            index: FrameIndex {
                blocks: Vec::new(),
                total_events: 0,
                block_events: block_events as u32,
            },
            pos: HEADER_LEN,
        })
    }

    /// Append one event.
    pub fn push(&mut self, e: &IoEvent) -> Result<(), TraceError> {
        self.pending.push(*e);
        if self.pending.len() >= self.block_events {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<(), TraceError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let min_time = self.pending.iter().map(|e| e.start).min().unwrap_or(SimTime::ZERO);
        let max_file_id = self.pending.iter().map(|e| e.file_id).max().unwrap_or(0);
        self.payload.clear();
        let mut st = DeltaState::at_block(min_time);
        for e in &self.pending {
            encode_event(&mut self.payload, e, &mut st);
        }
        let count = self.pending.len() as u32;
        let checksum = block_checksum(min_time.ticks(), count, &self.payload);
        self.out.write_all(&BLOCK_TAG)?;
        self.out.write_all(&min_time.ticks().to_le_bytes())?;
        self.out.write_all(&count.to_le_bytes())?;
        self.out.write_all(&(self.payload.len() as u32).to_le_bytes())?;
        self.out.write_all(&checksum.to_le_bytes())?;
        self.out.write_all(&self.payload)?;
        self.index.blocks.push(BlockEntry {
            offset: self.pos,
            min_time,
            count,
            max_file_id,
        });
        self.index.total_events += count as u64;
        self.pos += BLOCK_HEADER_LEN + self.payload.len() as u64;
        self.pending.clear();
        Ok(())
    }

    /// Flush the final partial block, write the index footer, and return
    /// the writer plus the index.
    pub fn finish(mut self) -> Result<(W, FrameIndex), TraceError> {
        self.flush_block()?;
        let mut footer = Vec::with_capacity(
            4 + 4 + self.index.blocks.len() * INDEX_ENTRY_LEN as usize + 8 + 8,
        );
        footer.extend_from_slice(&INDEX_TAG);
        footer.extend_from_slice(&(self.index.blocks.len() as u32).to_le_bytes());
        for b in &self.index.blocks {
            footer.extend_from_slice(&b.offset.to_le_bytes());
            footer.extend_from_slice(&b.min_time.ticks().to_le_bytes());
            footer.extend_from_slice(&b.count.to_le_bytes());
            footer.extend_from_slice(&b.max_file_id.to_le_bytes());
        }
        footer.extend_from_slice(&self.index.total_events.to_le_bytes());
        let checksum = fnv1a(&footer[4..]);
        footer.extend_from_slice(&checksum.to_le_bytes());
        let footer_len = footer.len() as u32;
        self.out.write_all(&footer)?;
        self.out.write_all(&footer_len.to_le_bytes())?;
        self.out.write_all(&FOOTER_MAGIC)?;
        self.out.flush()?;
        Ok((self.out, self.index))
    }
}

/// Encode a whole slice into an in-memory frame buffer (benches, tests).
pub fn encode_frames(events: &[IoEvent], block_events: usize) -> Vec<u8> {
    let mut w = FrameWriter::with_block_events(Vec::new(), block_events)
        .expect("Vec<u8> writes are infallible");
    for e in events {
        w.push(e).expect("Vec<u8> writes are infallible");
    }
    w.finish().expect("Vec<u8> writes are infallible").0
}

/// Encode an event iterator to a file at `path`, returning the index.
pub fn write_frame_file<'a, I>(path: &Path, events: I) -> Result<FrameIndex, TraceError>
where
    I: IntoIterator<Item = &'a IoEvent>,
{
    write_frame_file_with(path, events, DEFAULT_BLOCK_EVENTS)
}

/// [`write_frame_file`] with an explicit events-per-block setting.
/// Smaller blocks shrink the decoded working set of a streaming reader
/// at the cost of more per-block overhead (28 B header per block).
pub fn write_frame_file_with<'a, I>(
    path: &Path,
    events: I,
    block_events: usize,
) -> Result<FrameIndex, TraceError>
where
    I: IntoIterator<Item = &'a IoEvent>,
{
    let file = File::create(path)?;
    let mut w = FrameWriter::with_block_events(std::io::BufWriter::new(file), block_events)?;
    for e in events {
        w.push(e)?;
    }
    let (out, index) = w.finish()?;
    out.into_inner().map_err(|e| TraceError::Io(e.into_error()))?.sync_data()?;
    Ok(index)
}

// ---- random-access reader ---------------------------------------------------

#[derive(Debug)]
enum Backing {
    /// The whole frame held in memory ([`FrameFile::from_bytes`]).
    Mem(Vec<u8>),
    /// Blocks fetched on demand with positioned reads; resident memory
    /// stays one block per cursor.
    File(File),
}

impl Backing {
    fn len(&self) -> Result<u64, TraceError> {
        Ok(match self {
            Backing::Mem(b) => b.len() as u64,
            Backing::File(f) => f.metadata()?.len(),
        })
    }

    /// Read `buf.len()` bytes at `offset`, erroring (never panicking) on
    /// short files.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> Result<(), TraceError> {
        match self {
            Backing::Mem(b) => {
                let start = usize::try_from(offset).map_err(|_| TraceError::Truncated)?;
                let end = start.checked_add(buf.len()).ok_or(TraceError::Truncated)?;
                let src = b.get(start..end).ok_or(TraceError::Truncated)?;
                buf.copy_from_slice(src);
                Ok(())
            }
            Backing::File(f) => {
                #[cfg(unix)]
                let read = std::os::unix::fs::FileExt::read_exact_at(f, buf, offset);
                #[cfg(not(unix))]
                let read = {
                    use std::io::{Read, Seek, SeekFrom};
                    let mut f = f;
                    f.seek(SeekFrom::Start(offset)).and_then(|_| f.read_exact(buf))
                };
                read.map_err(|e| {
                    if e.kind() == std::io::ErrorKind::UnexpectedEof {
                        TraceError::Truncated
                    } else {
                        TraceError::Io(e)
                    }
                })
            }
        }
    }
}

/// An opened frame file: validated header + index, plus a backing to
/// fetch blocks from. Immutable and sharable across threads; every
/// decode goes through caller-owned scratch buffers.
#[derive(Debug)]
pub struct FrameFile {
    backing: Backing,
    index: FrameIndex,
}

impl FrameFile {
    /// Open in positioned-read mode: the file descriptor is kept and
    /// blocks are `pread` on demand — the bounded-memory replay path.
    pub fn open(path: &Path) -> Result<FrameFile, TraceError> {
        FrameFile::from_backing(Backing::File(File::open(path)?))
    }

    /// Treat an in-memory buffer as a frame file (tests, benches).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<FrameFile, TraceError> {
        FrameFile::from_backing(Backing::Mem(bytes))
    }

    fn from_backing(backing: Backing) -> Result<FrameFile, TraceError> {
        let len = backing.len()?;
        if len < HEADER_LEN + 8 {
            return Err(TraceError::Truncated);
        }
        let mut header = [0u8; HEADER_LEN as usize];
        backing.read_exact_at(&mut header, 0)?;
        if header[0..4] != FRAME_MAGIC {
            return Err(TraceError::BadFrame { offset: 0, what: "bad file magic" });
        }
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if version != FRAME_VERSION {
            return Err(TraceError::BadFrame { offset: 4, what: "unsupported frame version" });
        }
        let block_events = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if block_events == 0 || block_events > MAX_BLOCK_EVENTS {
            return Err(TraceError::BadFrame { offset: 8, what: "bad block_events" });
        }

        // Locate and verify the footer from the 8-byte tail.
        let mut tail = [0u8; 8];
        backing.read_exact_at(&mut tail, len - 8)?;
        if tail[4..8] != FOOTER_MAGIC {
            return Err(TraceError::BadFrame { offset: len - 4, what: "bad footer magic" });
        }
        let footer_len = u32::from_le_bytes(tail[0..4].try_into().expect("4 bytes")) as u64;
        let footer_start = len
            .checked_sub(8 + footer_len)
            .filter(|&s| s >= HEADER_LEN)
            .ok_or(TraceError::Truncated)?;
        if footer_len < 4 + 4 + 8 + 8 || footer_len > len {
            return Err(TraceError::BadFrame { offset: footer_start, what: "bad footer length" });
        }
        let mut footer = vec![0u8; footer_len as usize];
        backing.read_exact_at(&mut footer, footer_start)?;
        if footer[0..4] != INDEX_TAG {
            return Err(TraceError::BadFrame { offset: footer_start, what: "bad index tag" });
        }
        let body_end = footer.len() - 8;
        let want = u64::from_le_bytes(footer[body_end..].try_into().expect("8 bytes"));
        if fnv1a(&footer[4..body_end]) != want {
            return Err(TraceError::ChecksumMismatch { block: usize::MAX });
        }
        let block_count =
            u32::from_le_bytes(footer[4..8].try_into().expect("4 bytes")) as usize;
        let entries_len = (block_count as u64)
            .checked_mul(INDEX_ENTRY_LEN)
            .ok_or(TraceError::Truncated)?;
        if 8 + entries_len + 8 != body_end as u64 {
            return Err(TraceError::BadFrame {
                offset: footer_start,
                what: "footer length disagrees with block count",
            });
        }
        let mut blocks = Vec::with_capacity(block_count);
        let mut total_check = 0u64;
        for i in 0..block_count {
            let at = 8 + i * INDEX_ENTRY_LEN as usize;
            let e = BlockEntry {
                offset: u64::from_le_bytes(footer[at..at + 8].try_into().expect("8 bytes")),
                min_time: SimTime::from_ticks(u64::from_le_bytes(
                    footer[at + 8..at + 16].try_into().expect("8 bytes"),
                )),
                count: u32::from_le_bytes(footer[at + 16..at + 20].try_into().expect("4 bytes")),
                max_file_id: u32::from_le_bytes(
                    footer[at + 20..at + 24].try_into().expect("4 bytes"),
                ),
            };
            if e.offset < HEADER_LEN || e.offset >= footer_start || e.count == 0 {
                return Err(TraceError::BadFrame {
                    offset: e.offset,
                    what: "index entry out of range",
                });
            }
            total_check = total_check.saturating_add(e.count as u64);
            blocks.push(e);
        }
        let total_events =
            u64::from_le_bytes(footer[body_end - 8..body_end].try_into().expect("8 bytes"));
        if total_events != total_check {
            return Err(TraceError::BadFrame {
                offset: footer_start,
                what: "total_events disagrees with block counts",
            });
        }
        Ok(FrameFile { backing, index: FrameIndex { blocks, total_events, block_events } })
    }

    /// The validated index footer.
    pub fn index(&self) -> &FrameIndex {
        &self.index
    }

    /// Total events in the file.
    pub fn total_events(&self) -> u64 {
        self.index.total_events
    }

    /// Decode block `i` into `out`, using `bytes` as compressed-payload
    /// scratch. Both buffers are cleared and reused — after warm-up no
    /// allocation happens on this path.
    pub fn decode_block_into(
        &self,
        i: usize,
        bytes: &mut Vec<u8>,
        out: &mut Vec<IoEvent>,
    ) -> Result<(), TraceError> {
        let entry = *self.index.blocks.get(i).ok_or(TraceError::Truncated)?;
        let mut header = [0u8; BLOCK_HEADER_LEN as usize];
        self.backing.read_exact_at(&mut header, entry.offset)?;
        if header[0..4] != BLOCK_TAG {
            return Err(TraceError::BadFrame { offset: entry.offset, what: "bad block tag" });
        }
        let min_time =
            SimTime::from_ticks(u64::from_le_bytes(header[4..12].try_into().expect("8 bytes")));
        let count = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes"));
        let payload_len = u32::from_le_bytes(header[16..20].try_into().expect("4 bytes"));
        let want = u64::from_le_bytes(header[20..28].try_into().expect("8 bytes"));
        if count != entry.count || count == 0 || count > MAX_BLOCK_EVENTS {
            return Err(TraceError::BadFrame {
                offset: entry.offset,
                what: "block count disagrees with index",
            });
        }
        if payload_len > MAX_PAYLOAD_LEN {
            return Err(TraceError::BadFrame { offset: entry.offset, what: "payload too long" });
        }
        bytes.clear();
        bytes.resize(payload_len as usize, 0);
        self.backing.read_exact_at(bytes, entry.offset + BLOCK_HEADER_LEN)?;
        if block_checksum(min_time.ticks(), count, bytes) != want {
            return Err(TraceError::ChecksumMismatch { block: i });
        }
        out.clear();
        out.reserve(count as usize);
        let mut cur = ByteCursor::new(bytes);
        let mut st = DeltaState::at_block(min_time);
        for _ in 0..count {
            out.push(decode_event(&mut cur, &mut st)?);
        }
        if !cur.exhausted() {
            return Err(TraceError::BadFrame {
                offset: entry.offset,
                what: "trailing bytes after last event in block",
            });
        }
        Ok(())
    }

    /// A zero-allocation replay cursor from the first event.
    pub fn cursor(&self) -> FrameCursor<'_> {
        FrameCursor {
            file: self,
            block: 0,
            pos: 0,
            bytes: Vec::new(),
            events: Vec::new(),
            primed: false,
        }
    }

    /// Decode the entire file into one vector.
    pub fn decode_all(&self) -> Result<Vec<IoEvent>, TraceError> {
        let mut out = Vec::with_capacity(self.index.total_events as usize);
        let mut bytes = Vec::new();
        let mut block = Vec::new();
        for i in 0..self.index.blocks.len() {
            self.decode_block_into(i, &mut bytes, &mut block)?;
            out.extend_from_slice(&block);
        }
        Ok(out)
    }
}

/// Replay cursor over a [`FrameFile`]: one decoded block at a time in a
/// reusable scratch buffer. After the first block, advancing allocates
/// nothing (the scratch vectors are recycled at block boundaries).
#[derive(Debug)]
pub struct FrameCursor<'a> {
    file: &'a FrameFile,
    /// Index of the block currently decoded into `events`.
    block: usize,
    /// Position of the next event within `events`.
    pos: usize,
    bytes: Vec<u8>,
    events: Vec<IoEvent>,
    primed: bool,
}

impl FrameCursor<'_> {
    /// The next event, or `None` at end of file.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<IoEvent>, TraceError> {
        loop {
            if self.primed {
                if let Some(e) = self.events.get(self.pos) {
                    self.pos += 1;
                    return Ok(Some(*e));
                }
                self.block += 1;
            }
            if self.block >= self.file.index.blocks.len() {
                return Ok(None);
            }
            self.file.decode_block_into(self.block, &mut self.bytes, &mut self.events)?;
            self.pos = 0;
            self.primed = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::{CacheOutcome, DataKind, Direction, Scope, Synchrony};

    fn mixed_events(n: u64) -> Vec<IoEvent> {
        (0..n)
            .map(|i| {
                let mut e = IoEvent::logical(
                    if i % 3 == 0 { Direction::Write } else { Direction::Read },
                    (i % 5) as u32 + 1,
                    (i % 7) as u32,
                    i * 4096,
                    4096 + (i % 4) * 512,
                    SimTime::from_ticks(i * 137),
                    SimDuration::from_ticks(i % 50),
                );
                e.completion = SimDuration::from_ticks(i % 23);
                e.op_id = (i % 11) as u32;
                if i % 4 == 0 {
                    e.kind = DataKind::MetaData;
                    e.scope = Scope::Physical;
                    e.sync = Synchrony::Async;
                    e.cache = CacheOutcome::Miss;
                }
                e
            })
            .collect()
    }

    #[test]
    fn roundtrip_via_memory_cursor() {
        let events = mixed_events(10_000);
        let bytes = encode_frames(&events, 512);
        let file = FrameFile::from_bytes(bytes).expect("valid frame");
        assert_eq!(file.total_events(), 10_000);
        assert_eq!(file.index().blocks.len(), 10_000usize.div_ceil(512));
        let mut cursor = file.cursor();
        let mut got = Vec::new();
        while let Some(e) = cursor.next().expect("decodes") {
            got.push(e);
        }
        assert_eq!(got, events);
    }

    #[test]
    fn roundtrip_via_file() {
        let events = mixed_events(5_000);
        let dir = std::env::temp_dir().join(format!("miof-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("roundtrip.miof");
        let index = write_frame_file(&path, events.iter()).expect("writes");
        assert_eq!(index.total_events, 5_000);
        let file = FrameFile::open(&path).expect("opens");
        assert_eq!(file.decode_all().expect("decodes"), events);
        assert_eq!(file.index(), &index);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_records_max_file_id() {
        let mut events = mixed_events(100);
        events[42].file_id = 70_000;
        let file = FrameFile::from_bytes(encode_frames(&events, 16)).expect("valid");
        assert_eq!(file.index().max_file_id(), 70_000);
    }

    #[test]
    fn empty_input_roundtrips() {
        let bytes = encode_frames(&[], 4096);
        let file = FrameFile::from_bytes(bytes).expect("valid");
        assert_eq!(file.total_events(), 0);
        assert!(file.decode_all().expect("decodes").is_empty());
    }

    #[test]
    fn flipped_payload_byte_is_a_checksum_error() {
        let events = mixed_events(300);
        let bytes = encode_frames(&events, 256);
        // Flip one byte inside the first block's payload.
        let mut corrupt = bytes.clone();
        let payload_at = HEADER_LEN as usize + BLOCK_HEADER_LEN as usize + 3;
        corrupt[payload_at] ^= 0x40;
        let file = FrameFile::from_bytes(corrupt).expect("index still valid");
        assert!(matches!(
            file.decode_all(),
            Err(TraceError::ChecksumMismatch { block: 0 })
        ));
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let events = mixed_events(2_000);
        let bytes = encode_frames(&events, 256);
        for cut in [0, 3, HEADER_LEN as usize, bytes.len() / 2, bytes.len() - 1] {
            let r = FrameFile::from_bytes(bytes[..cut].to_vec());
            if let Ok(f) = r {
                // The footer happened to survive; block decode must fail
                // cleanly instead.
                assert!(f.decode_all().is_err(), "cut at {cut} must not decode fully");
            }
        }
    }

    #[test]
    fn zigzag_roundtrips_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 42, -42] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            assert_eq!(ByteCursor::new(&buf).varint().expect("valid"), v);
        }
    }

    #[test]
    fn compression_beats_raw_events() {
        // Sequential same-size reads — the dominant pattern in the paper —
        // must compress far below the 96 B in-memory representation.
        let events: Vec<IoEvent> = (0..4096u64)
            .map(|i| {
                IoEvent::logical(
                    Direction::Read,
                    1,
                    1,
                    i * 4096,
                    4096,
                    SimTime::from_ticks(i * 100),
                    SimDuration::from_ticks(100),
                )
            })
            .collect();
        let bytes = encode_frames(&events, 4096);
        let raw = events.len() * std::mem::size_of::<IoEvent>();
        assert!(
            bytes.len() * 5 < raw,
            "expected ≥5x compression, got {} vs {raw}",
            bytes.len()
        );
    }
}
