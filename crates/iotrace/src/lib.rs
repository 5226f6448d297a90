//! The trace format from the appendix of Miller's *Input/Output Behavior of
//! Supercomputing Applications* (UCB/CSD 91/616), implemented in full.
//!
//! The format's salient properties (§4.2 and the appendix):
//!
//! * **ASCII, machine independent** — variable-length printed integers beat
//!   fixed-width binary for these traces because most deltas are 1–2 digits.
//! * **Delta timestamps in 10 µs ticks** — `startTime` is relative to the
//!   previous record *in the trace*, `completionTime` is relative to the
//!   record's own start, and `processTime` is CPU time elapsed since the same
//!   process's previous I/O.
//! * **Field inference** — compression flags mark fields omitted from a
//!   record because they can be recomputed: the process id repeats the
//!   previous record's, the file id repeats the same process's previous
//!   record, the offset continues sequentially from the same file's previous
//!   access, and the length/operation id repeat the same file's previous
//!   record.
//! * **Block scaling** — offsets and lengths that are multiples of the
//!   512-byte `TRACE_BLOCK_SIZE` may be stored divided by it.
//! * **Logical and physical records** share one format; **comment records**
//!   (`recordType 0xff`) carry free text such as file-name correspondences.
//!
//! The crate exposes three layers:
//!
//! * [`flags`] — the raw `recordType` / `compression` bit definitions,
//!   verbatim from the appendix's `iotrace.h`;
//! * [`record`] — the decoded, absolute-time event model ([`IoEvent`]) the
//!   rest of the reproduction consumes;
//! * [`codec`] + [`stream`] — the ASCII encoder/decoder with full
//!   compression, plus in-memory [`Trace`] containers and multi-trace
//!   merging.
//!
//! ```
//! use iotrace::{read_trace, write_trace, Direction, IoEvent, Trace};
//! use sim_core::{SimDuration, SimTime};
//!
//! let mut trace = Trace::new();
//! trace.push_comment("fileId 1 = /scratch/data");
//! for i in 0..3u64 {
//!     trace.push(IoEvent::logical(
//!         Direction::Read, 1, 1, i * 4096, 4096,
//!         SimTime::from_ticks(i * 100), SimDuration::from_ticks(100),
//!     ));
//! }
//! let mut bytes = Vec::new();
//! write_trace(&trace, &mut bytes).unwrap();
//! // Sequential same-size records compress to 5 fields each.
//! let decoded = read_trace(std::io::Cursor::new(bytes)).unwrap();
//! assert_eq!(decoded, trace);
//! ```

pub mod codec;
pub mod compression;
pub mod error;
pub mod flags;
pub mod record;
pub mod stream;
pub mod stream_v2;

pub use codec::{TraceDecoder, TraceEncoder};
pub use compression::{measure as measure_compression, CompressionReport};
pub use error::TraceError;
pub use flags::{CacheOutcome, Compression, DataKind, Direction, RecordType, Scope, Synchrony};
pub use record::{IoEvent, TraceItem};
pub use stream::{merge_traces, read_trace, write_trace, Trace};
pub use stream_v2::{
    encode_frames, write_frame_file, write_frame_file_with, BlockEntry, FrameCursor, FrameFile,
    FrameIndex, FrameWriter,
};
