//! Frame-codec (stream_v2) robustness and round-trip properties,
//! mirroring `proptest_decoder_robustness.rs` for the binary container:
//!
//! * any event stream the ASCII codec's model can express round-trips
//!   bit-exactly through the frame format, from memory and from a file;
//! * arbitrary bytes, truncations, and single-byte corruptions of valid
//!   frames decode to a clean [`iotrace::TraceError`] or to the original
//!   events — never a panic, and (for payload corruption) never a silent
//!   misdecode past the block checksum. Truncated and corrupted frames
//!   also go through a real file opened with [`FrameFile::open`], the
//!   positioned-read path spilled traces replay from.

use iotrace::stream_v2::{encode_frames, FrameFile};
use iotrace::{
    CacheOutcome, DataKind, Direction, IoEvent, Scope, Synchrony, TraceError,
};
use proptest::prelude::*;
use sim_core::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};

/// Decode `bytes` the way a spilled trace is replayed: write them to a
/// fresh temp file and read it back through [`FrameFile::open`].
fn decode_via_file(bytes: &[u8]) -> Result<Vec<IoEvent>, TraceError> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("frame-robustness-{}-{n}.miof", std::process::id()));
    std::fs::write(&path, bytes).expect("temp frame file writes");
    let got = FrameFile::open(&path).and_then(|f| f.decode_all());
    std::fs::remove_file(&path).ok();
    got
}

/// The robustness contract for one decode of damaged bytes: the original
/// events, or a format error. An I/O error would mean a short read was
/// not mapped to [`TraceError::Truncated`].
fn original_or_format_error(
    got: Result<Vec<IoEvent>, TraceError>,
    events: &[IoEvent],
) -> Result<(), TestCaseError> {
    match got {
        Ok(got) => prop_assert_eq!(got, events),
        Err(e) => prop_assert!(
            !matches!(e, TraceError::Io(_)),
            "damage must map to a format error, not I/O: {}",
            e
        ),
    }
    Ok(())
}

/// An arbitrary event covering the full flag space and wide numeric
/// ranges — the same model the ASCII codec encodes, minus the fields it
/// cannot (the ASCII format caps offset/length at 32 bits; the frame
/// format has no such limit, so we exercise the full u64 range too).
fn arb_event() -> impl Strategy<Value = IoEvent> {
    (
        (0usize..4, any::<bool>(), any::<bool>(), any::<bool>(), 0usize..3),
        (any::<u64>(), 0u64..(1 << 40), any::<u64>(), 0u64..(1 << 32)),
        (any::<u32>(), any::<u32>(), any::<u32>(), 0u64..(1 << 32)),
    )
        .prop_map(
            |(
                (kind, logical, write, is_async, cache),
                (offset, length, start, completion),
                (op_id, file_id, process_id, process_time),
            )| {
                IoEvent {
                    kind: [
                        DataKind::FileData,
                        DataKind::MetaData,
                        DataKind::ReadAhead,
                        DataKind::VirtualMem,
                    ][kind],
                    scope: if logical { Scope::Logical } else { Scope::Physical },
                    dir: if write { Direction::Write } else { Direction::Read },
                    sync: if is_async { Synchrony::Async } else { Synchrony::Sync },
                    cache: [CacheOutcome::Hit, CacheOutcome::ReadAheadHit, CacheOutcome::Miss]
                        [cache],
                    offset,
                    length,
                    start: SimTime::from_ticks(start),
                    completion: SimDuration::from_ticks(completion),
                    op_id,
                    file_id,
                    process_id,
                    process_time: SimDuration::from_ticks(process_time),
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn roundtrip_all_replay_modes(
        events in proptest::collection::vec(arb_event(), 0..300),
        block_events in 1usize..96,
    ) {
        let bytes = encode_frames(&events, block_events);

        // Indexed random-access replay from an in-memory buffer.
        let file = FrameFile::from_bytes(bytes.clone()).expect("valid frame");
        prop_assert_eq!(file.total_events(), events.len() as u64);
        prop_assert_eq!(file.decode_all().expect("decodes"), events.clone());

        // Zero-allocation cursor replay.
        let mut cursor = file.cursor();
        let mut got = Vec::new();
        while let Some(e) = cursor.next().expect("decodes") {
            got.push(e);
        }
        prop_assert_eq!(got, events.clone());

        // Positioned-read replay from a file.
        prop_assert_eq!(decode_via_file(&bytes).expect("decodes"), events);
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let _ = FrameFile::from_bytes(bytes).map(|f| f.decode_all());
    }

    #[test]
    fn truncations_never_panic(
        events in proptest::collection::vec(arb_event(), 1..200),
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = encode_frames(&events, 32);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let trunc = bytes[..cut.min(bytes.len().saturating_sub(1))].to_vec();
        // A truncated frame either fails to open or fails during decode;
        // it never yields anything but the original events.
        original_or_format_error(decode_via_file(&trunc), &events)?;
        original_or_format_error(
            FrameFile::from_bytes(trunc).and_then(|f| f.decode_all()),
            &events,
        )?;
    }

    #[test]
    fn payload_corruption_is_caught_by_the_checksum(
        events in proptest::collection::vec(arb_event(), 1..200),
        corrupt_at in any::<usize>(),
        flip in 1u8..=255,
    ) {
        // Flip one byte anywhere in a valid frame: decode must either
        // error or still produce the original events (flips in dead bytes
        // such as the reserved header word). A silent misdecode — Ok with
        // different events — is the one forbidden outcome.
        let bytes = encode_frames(&events, 32);
        let mut corrupt = bytes.clone();
        let at = corrupt_at % corrupt.len();
        corrupt[at] ^= flip;
        original_or_format_error(decode_via_file(&corrupt), &events)?;
        original_or_format_error(
            FrameFile::from_bytes(corrupt).and_then(|f| f.decode_all()),
            &events,
        )?;
    }
}
