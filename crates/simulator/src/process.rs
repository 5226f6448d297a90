//! Trace-driven process state.
//!
//! A process replays a **shared** `Arc<[IoEvent]>` by cursor. The slice
//! is immutable and may be handed to many processes (and many concurrent
//! simulations) at once; the per-process pid/file-id namespacing
//! (`file_id |= pid << 16`, `process_id = pid`) is applied on the fly in
//! [`ProcessState::advance`] instead of materializing a remapped copy of
//! the trace. This is what makes sweep replay zero-copy: one generated
//! event slice per (app, scale, seed) serves every sweep point.
//!
//! For workloads too large to hold resident, a process can instead pull
//! events from an [`EventSource`] — a streaming cursor (e.g. over a
//! binary frame file on disk) that keeps only the current decode block
//! in memory. The engine drives both feeds through the same
//! [`ProcessState`] API, so replay order — and therefore every report
//! byte — is identical between the two.

use iotrace::IoEvent;
use sim_core::{SimDuration, SimTime};
use std::sync::Arc;

/// A pull-based stream of trace events, decoded one at a time with
/// bounded memory.
///
/// The contract mirrors a peekable cursor: [`EventSource::current`]
/// returns the event at the cursor without consuming it (`None` once
/// exhausted; the source must hold it decoded so the engine can borrow
/// it between scheduling decisions), and [`EventSource::advance`] moves
/// past it. Events must come out in exactly the order a shared-slice
/// replay of the same trace would produce — the simulator's determinism
/// guarantee rides on it.
///
/// Implementations live with the storage layer (e.g. the experiment
/// crate's spilled-trace cursors); a decode failure mid-run has no
/// recovery path in the engine, so implementations should panic with a
/// descriptive message rather than silently truncate.
pub trait EventSource: Send + std::fmt::Debug {
    /// The event at the cursor, or `None` when the stream is exhausted.
    fn current(&self) -> Option<&IoEvent>;

    /// Move the cursor past the current event. Calling this when
    /// [`EventSource::current`] is `None` is a bug in the caller.
    fn advance(&mut self);

    /// Upper bound on `file_id` across the *entire* stream, including
    /// events not yet decoded — used to validate the 16-bit file-id
    /// namespace without a full decode (frame files carry this in their
    /// index footer). Return 0 for an empty stream.
    fn max_file_id(&self) -> u32;

    /// Total number of events in the stream (issued and pending).
    fn len(&self) -> u64;

    /// True when the stream has no events at all.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What a process replays: a resident shared slice or a streaming
/// source. Handed to `Simulation::add_process_feed` or
/// `ShardedSimulation::add_process_feed`.
#[derive(Debug)]
pub enum ProcessFeed {
    /// A resident, immutable, shareable event slice.
    Shared(Arc<[IoEvent]>),
    /// A streaming cursor decoding events on demand.
    Streamed(Box<dyn EventSource>),
}

impl ProcessFeed {
    /// First event whose `file_id` overflows the 16-bit namespace, if
    /// any — the shared arm reports the first offender exactly as the
    /// historical validation did; the streamed arm consults the source's
    /// index-backed bound instead of decoding.
    pub(crate) fn oversized_file_id(&self) -> Option<u32> {
        match self {
            ProcessFeed::Shared(events) => {
                events.iter().map(|e| e.file_id).find(|&id| id >= 1 << 16)
            }
            ProcessFeed::Streamed(src) => {
                Some(src.max_file_id()).filter(|&id| id >= 1 << 16)
            }
        }
    }
}

/// Where a process is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// Runnable, waiting for the CPU.
    Ready,
    /// Currently holding the CPU.
    Running,
    /// Suspended awaiting an I/O completion.
    Blocked,
    /// Trace exhausted.
    Done,
}

/// One simulated process replaying a logical trace.
#[derive(Debug)]
pub struct ProcessState {
    /// Process id (namespaces file ids at replay time).
    pub pid: u32,
    /// Human-readable name for reports.
    pub name: String,
    /// The I/O events to replay, in order: a shared slice walked by
    /// cursor, or a streaming source. Never copied or mutated; remapping
    /// happens per event in [`ProcessState::advance`].
    feed: Feed,
    /// Compute remaining before the next event may issue.
    pub compute_remaining: SimDuration,
    /// Lifecycle state.
    pub state: ProcState,
    /// Total CPU consumed so far (compute + charged overheads).
    pub cpu_used: SimDuration,
    /// Total time spent blocked on I/O.
    pub blocked_time: SimDuration,
    /// When the process finished (valid once `Done`).
    pub finished_at: SimTime,
    /// When the process last became blocked (internal bookkeeping).
    pub blocked_since: SimTime,
    /// Number of I/O requests issued.
    pub ios_issued: u64,
}

/// Internal feed state: the shared arm carries its own cursor, the
/// streamed arm delegates to the source's.
#[derive(Debug)]
enum Feed {
    Shared { events: Arc<[IoEvent]>, cursor: usize },
    Streamed(Box<dyn EventSource>),
}

impl Feed {
    fn current(&self) -> Option<&IoEvent> {
        match self {
            Feed::Shared { events, cursor } => events.get(*cursor),
            Feed::Streamed(src) => src.current(),
        }
    }

    fn advance(&mut self) {
        match self {
            Feed::Shared { cursor, .. } => *cursor += 1,
            Feed::Streamed(src) => src.advance(),
        }
    }
}

impl ProcessState {
    /// Build from a shared event slice; the process starts Ready with the
    /// first event's `processTime` as its initial compute.
    pub fn new(pid: u32, name: impl Into<String>, events: Arc<[IoEvent]>) -> ProcessState {
        ProcessState::from_feed(pid, name, ProcessFeed::Shared(events))
    }

    /// Build from either feed kind; the process starts Ready with the
    /// first event's `processTime` as its initial compute (Done when the
    /// feed is empty).
    pub fn from_feed(pid: u32, name: impl Into<String>, feed: ProcessFeed) -> ProcessState {
        let feed = match feed {
            ProcessFeed::Shared(events) => Feed::Shared { events, cursor: 0 },
            ProcessFeed::Streamed(src) => Feed::Streamed(src),
        };
        let first_compute =
            feed.current().map(|e| e.process_time).unwrap_or(SimDuration::ZERO);
        let state = if feed.current().is_none() { ProcState::Done } else { ProcState::Ready };
        ProcessState {
            pid,
            name: name.into(),
            feed,
            compute_remaining: first_compute,
            state,
            cpu_used: SimDuration::ZERO,
            blocked_time: SimDuration::ZERO,
            finished_at: SimTime::ZERO,
            blocked_since: SimTime::ZERO,
            ios_issued: 0,
        }
    }

    /// Namespace an event into this process: file ids get the pid tag so
    /// two processes replaying the same slice never share cached data.
    #[inline]
    fn remap(&self, mut e: IoEvent) -> IoEvent {
        e.file_id |= self.pid << 16;
        e.process_id = self.pid;
        e
    }

    /// The event the process will issue once its compute drains, **as
    /// stored** (un-remapped: `file_id`/`process_id` are the generator's).
    /// Use only fields the remap does not touch (length, direction,
    /// timing); [`ProcessState::advance`] returns the namespaced event.
    pub fn next_event(&self) -> Option<&IoEvent> {
        self.feed.current()
    }

    /// Consume the next event (it has just been issued) and load the
    /// compute gap preceding the following one. Returns the issued event
    /// with the pid/file-id remap applied.
    pub fn advance(&mut self) -> IoEvent {
        let ev = self.remap(*self.feed.current().expect("advance past trace end"));
        self.feed.advance();
        self.ios_issued += 1;
        self.compute_remaining =
            self.feed.current().map(|e| e.process_time).unwrap_or(SimDuration::ZERO);
        ev
    }

    /// True when every event has been issued.
    pub fn exhausted(&self) -> bool {
        self.feed.current().is_none()
    }

    /// Total CPU demand of the remaining trace (diagnostics). Exact for
    /// shared-slice feeds; a streamed feed reports only the compute
    /// already loaded at the cursor (summing the tail would force a full
    /// decode, defeating the bounded-memory point).
    pub fn remaining_cpu_demand(&self) -> SimDuration {
        match &self.feed {
            Feed::Shared { events, cursor } => {
                let tail: u64 = events[(*cursor).min(events.len())..]
                    .iter()
                    .map(|e| e.process_time.ticks())
                    .sum();
                self.compute_remaining + SimDuration::from_ticks(tail)
                    - events.get(*cursor).map(|e| e.process_time).unwrap_or(SimDuration::ZERO)
            }
            Feed::Streamed(_) => self.compute_remaining,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotrace::Direction;

    fn events() -> Arc<[IoEvent]> {
        (0..3u64)
            .map(|i| {
                IoEvent::logical(
                    Direction::Read,
                    1,
                    1,
                    i * 512,
                    512,
                    SimTime::from_ticks(i * 1000),
                    SimDuration::from_ticks(100 * (i + 1)),
                )
            })
            .collect()
    }

    #[test]
    fn replays_in_order_with_compute_gaps() {
        let mut p = ProcessState::new(1, "t", events());
        assert_eq!(p.state, ProcState::Ready);
        assert_eq!(p.compute_remaining, SimDuration::from_ticks(100));
        let e1 = p.advance();
        assert_eq!(e1.offset, 0);
        assert_eq!(p.compute_remaining, SimDuration::from_ticks(200));
        p.advance();
        assert_eq!(p.compute_remaining, SimDuration::from_ticks(300));
        assert!(!p.exhausted());
        p.advance();
        assert!(p.exhausted());
        assert_eq!(p.ios_issued, 3);
    }

    #[test]
    fn empty_trace_is_born_done() {
        let p = ProcessState::new(1, "empty", Arc::from(Vec::new()));
        assert_eq!(p.state, ProcState::Done);
        assert!(p.exhausted());
        assert!(p.next_event().is_none());
    }

    #[test]
    fn advance_namespaces_file_and_process_ids() {
        let shared = events();
        let mut a = ProcessState::new(2, "a", shared.clone());
        let mut b = ProcessState::new(3, "b", shared.clone());
        let ea = a.advance();
        let eb = b.advance();
        assert_eq!(ea.file_id, 1 | 2 << 16);
        assert_eq!(ea.process_id, 2);
        assert_eq!(eb.file_id, 1 | 3 << 16);
        assert_eq!(eb.process_id, 3);
        // The shared slice itself is untouched.
        assert_eq!(shared[0].file_id, 1);
        assert_eq!(shared[0].process_id, 1);
    }

    #[test]
    fn next_event_is_unremapped() {
        let p = ProcessState::new(5, "t", events());
        assert_eq!(p.next_event().unwrap().file_id, 1);
    }

    #[test]
    fn remaining_demand_counts_tail() {
        let p = ProcessState::new(1, "t", events());
        // 100 + 200 + 300 ticks total.
        assert_eq!(p.remaining_cpu_demand(), SimDuration::from_ticks(600));
    }

    /// A minimal in-memory [`EventSource`] for exercising the streamed
    /// feed without a frame file.
    #[derive(Debug)]
    struct VecSource {
        events: Vec<IoEvent>,
        pos: usize,
    }

    impl EventSource for VecSource {
        fn current(&self) -> Option<&IoEvent> {
            self.events.get(self.pos)
        }

        fn advance(&mut self) {
            self.pos += 1;
        }

        fn max_file_id(&self) -> u32 {
            self.events.iter().map(|e| e.file_id).max().unwrap_or(0)
        }

        fn len(&self) -> u64 {
            self.events.len() as u64
        }
    }

    #[test]
    fn streamed_feed_replays_identically_to_shared() {
        let shared = events();
        let mut a = ProcessState::new(4, "shared", shared.clone());
        let mut b = ProcessState::from_feed(
            4,
            "streamed",
            ProcessFeed::Streamed(Box::new(VecSource { events: shared.to_vec(), pos: 0 })),
        );
        assert_eq!(a.compute_remaining, b.compute_remaining);
        while !a.exhausted() {
            assert_eq!(a.next_event(), b.next_event());
            assert_eq!(a.advance(), b.advance());
            assert_eq!(a.compute_remaining, b.compute_remaining);
        }
        assert!(b.exhausted());
    }

    #[test]
    fn empty_streamed_feed_is_born_done() {
        let p = ProcessState::from_feed(
            1,
            "empty",
            ProcessFeed::Streamed(Box::new(VecSource { events: Vec::new(), pos: 0 })),
        );
        assert_eq!(p.state, ProcState::Done);
        assert!(p.exhausted());
    }
}
