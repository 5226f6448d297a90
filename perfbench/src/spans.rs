//! The benchmark's own span log: name, start, end, parent and the id of
//! the point or request a span belongs to, kept in memory and written
//! once at exit as Chrome trace-event JSON — the envelope
//! `obs::perfetto` emits, so the file opens in the same viewer.
//!
//! Spans are recorded only around the benchmark's calls into the
//! program; the program's own flight recorder is not involved. A
//! disabled log records nothing, so untraced runs pay one branch per
//! span.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Handle of an open span; `NONE` when the log is disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// The handle a disabled log returns, and the "no parent" marker.
    pub const NONE: SpanId = SpanId(usize::MAX);
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    id: u64,
    tid: u32,
}

/// In-memory span log shared by the benchmark's threads.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl SpanLog {
    /// A log that records when `enabled`.
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open span `name` under `parent` for point or request `id`.
    pub fn open(&self, name: &'static str, parent: SpanId, id: u64) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let tid = TID.with(|t| *t);
        let mut spans = self.spans.lock().expect("span log lock");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
            tid,
        });
        SpanId(spans.len() - 1)
    }

    /// Close an open span.
    pub fn close(&self, span: SpanId) {
        if span == SpanId::NONE {
            return;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        if let Some(s) = self.spans.lock().expect("span log lock").get_mut(span.0) {
            s.end_ns = end_ns;
        }
    }

    /// Run `f` inside span `name`.
    pub fn scope<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        id: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let span = self.open(name, parent, id);
        let out = f(span);
        self.close(span);
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log lock").len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render every span as Chrome trace-event JSON: one `ph:"X"` event
    /// per span on host-clock thread rows, with the span's point or
    /// request id and its parent's index in `args`.
    pub fn chrome_json(&self) -> String {
        let spans = self.spans.lock().expect("span log lock");
        let mut out = String::with_capacity(spans.len() * 140 + 256);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(
            "{\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"perfbench host\"}}",
        );
        let mut tids: Vec<u32> = spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            out.push_str(&format!(
                ",\n{{\"ph\":\"M\",\"pid\":2,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"bench{tid}\"}}}}"
            ));
        }
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == SpanId::NONE {
                -1
            } else {
                s.parent.0 as i64
            };
            out.push_str(&format!(
                ",\n{{\"ph\":\"X\",\"pid\":2,\"tid\":{},\"name\":\"{}\",\"cat\":\"perfbench\",\"ts\":{},\"dur\":{},\"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}",
                s.tid,
                s.name,
                micros(s.start_ns),
                micros(s.end_ns.saturating_sub(s.start_ns)),
                s.id,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Nanoseconds as microseconds with a three-digit fraction.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}
