//! Deterministic in-sim gauge timelines.
//!
//! Miller's central findings are *temporal* — cyclic request streams and
//! bursty I/O (paper §4, Figures 3–4) — but `SimReport` only carries
//! end-of-run aggregates. This module adds the missing axis: a periodic
//! sampler driven by **simulated time** that snapshots engine gauges
//! (cache occupancy, dirty bytes, per-device queue depth and busy
//! fraction, tier promotions, wheel occupancy, runnable/blocked process
//! counts) into fixed-capacity, preallocated series.
//!
//! Design constraints, in priority order:
//!
//! 1. **Invisible to results.** The sampler never touches the event
//!    queue — the engine checks a plain tick deadline between event pops,
//!    where simulation state is constant, so `QueueStats` and every other
//!    serialized counter are byte-identical with timelines on or off, at
//!    any shard count. (The obvious alternative — a repeating timer event
//!    on the timing wheel — would perturb the wheel's serialized
//!    insert/cascade counters and is exactly what this module avoids.)
//! 2. **Allocation-free while sampling.** Tick and value vectors are
//!    preallocated at [`TIMELINE_CAPACITY`]; a committed sample is a few
//!    bounded pushes. Overflow is *counted and dropped*, never grown.
//! 3. **Deterministic export.** Series are committed on the fixed grid
//!    `k × interval` of simulated ticks; the sharded engine's per-group
//!    timelines [`merge`] by series name in group order with value
//!    summing at aligned grid indices, so the merged timeline is a pure
//!    function of the simulated cluster.
//!
//! The sample interval is part of the simulator's configuration (the
//! `timeline_ns` field of `iosim::SimConfig`, set from `--timeline NS`);
//! `--timeline-out PATH` writes the collected timelines as standalone
//! JSON (see [`finish_timelines`]). When the span recorder is enabled
//! the same samples are also emitted as Perfetto counter tracks
//! (`ph:"C"`).

use crate::recorder::{self, Track};
use sim_core::TICK_NANOS;
use std::sync::{Mutex, OnceLock};

/// Fixed per-series sample capacity. At the default-ish 1 ms interval
/// this covers 4 s of simulated time per run; longer runs truncate the
/// tail and count it rather than allocate.
pub const TIMELINE_CAPACITY: usize = 4096;

/// Intern a gauge/series name to `&'static str` so the recorder's
/// fixed-size [`crate::recorder::RawEvent`] can carry it. Deduplicated —
/// the engine re-creates the same few dozen names per simulation, so
/// the leak is bounded by the name vocabulary, not the run count. Takes
/// a lock; call at timeline setup, never per sample.
pub fn intern_name(name: &str) -> &'static str {
    static NAMES: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let mut names =
        NAMES.get_or_init(|| Mutex::new(Vec::new())).lock().expect("name intern lock");
    if let Some(s) = names.iter().find(|s| ***s == *name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    names.push(leaked);
    leaked
}

/// One gauge's sampled values, aligned to its timeline's tick grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineSeries {
    /// Interned gauge name (e.g. `cache_resident_blocks`).
    pub name: &'static str,
    /// One value per grid tick, index-aligned with [`TimelineData::ticks`].
    pub values: Vec<u64>,
}

/// A finished timeline: the sample grid plus every series on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineData {
    /// Grid spacing in simulated ticks.
    pub interval_ticks: u64,
    /// Sample timestamps in simulated ticks (`k × interval`, ascending).
    pub ticks: Vec<u64>,
    /// Sampled gauges.
    pub series: Vec<TimelineSeries>,
    /// Grid points past [`TIMELINE_CAPACITY`] that were counted, not kept.
    pub truncated: u64,
}

/// An in-progress sampler owned by one engine (or one sharded group).
///
/// Usage: [`Timeline::add_series`] once per gauge at setup, then on the
/// engine's pop loop — whenever [`Timeline::due`] — fill
/// [`Timeline::scratch`] (index-aligned with the series) and call
/// [`Timeline::commit_until`]. Finish with [`Timeline::finish`].
#[derive(Debug)]
pub struct Timeline {
    interval: u64,
    /// Next un-sampled grid tick.
    next: u64,
    ticks: Vec<u64>,
    series: Vec<TimelineSeries>,
    truncated: u64,
    /// Perfetto counter track to mirror samples onto (optional).
    track: Option<Track>,
    /// Caller-filled gauge values, index-aligned with the series.
    pub scratch: Vec<u64>,
}

impl Timeline {
    /// A sampler on the grid `interval_ticks, 2×interval_ticks, …`.
    pub fn new(interval_ticks: u64) -> Timeline {
        let interval = interval_ticks.max(1);
        Timeline {
            interval,
            next: interval,
            ticks: Vec::with_capacity(TIMELINE_CAPACITY),
            series: Vec::new(),
            truncated: 0,
            track: None,
            scratch: Vec::new(),
        }
    }

    /// Register a gauge; returns its index into [`Timeline::scratch`].
    /// Allocates the full-capacity value vector up front so sampling
    /// never does.
    pub fn add_series(&mut self, name: &'static str) -> usize {
        self.series.push(TimelineSeries { name, values: Vec::with_capacity(TIMELINE_CAPACITY) });
        self.scratch.push(0);
        self.series.len() - 1
    }

    /// Mirror committed samples onto a Perfetto counter track (only
    /// emits while the span recorder is enabled).
    pub fn set_track(&mut self, track: Track) {
        self.track = Some(track);
    }

    /// Grid spacing in ticks.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// True when at least one grid point at or before `now_tick` is
    /// still un-sampled. One compare — cheap enough for the pop loop.
    #[inline(always)]
    pub fn due(&self, now_tick: u64) -> bool {
        self.next <= now_tick
    }

    /// Commit the current [`Timeline::scratch`] values at every grid
    /// point ≤ `now_tick`. The caller guarantees state has been constant
    /// since the previous commit (the engine calls this *between* event
    /// pops), so repeating the same values over a gap is exact.
    pub fn commit_until(&mut self, now_tick: u64) {
        while self.next <= now_tick {
            if self.ticks.len() >= TIMELINE_CAPACITY {
                // Count the whole remaining gap arithmetically instead of
                // spinning one loop iteration per dropped grid point.
                let remaining = (now_tick - self.next) / self.interval + 1;
                self.truncated += remaining;
                self.next += remaining * self.interval;
                return;
            }
            let t = self.next;
            self.next += self.interval;
            self.ticks.push(t);
            for (i, s) in self.series.iter_mut().enumerate() {
                let v = self.scratch[i];
                s.values.push(v);
                if let Some(track) = self.track {
                    recorder::counter(track, s.name, t, v);
                }
            }
        }
    }

    /// Commit through `end_tick` and convert into an immutable
    /// [`TimelineData`].
    pub fn finish(mut self, end_tick: u64) -> TimelineData {
        self.commit_until(end_tick);
        TimelineData {
            interval_ticks: self.interval,
            ticks: self.ticks,
            series: self.series,
            truncated: self.truncated,
        }
    }
}

/// Merge per-group timelines (sharded engine) into one cluster
/// timeline: series match by name in first-seen group order, values sum
/// at aligned grid indices, and shorter series pad with their last value
/// (gauges persist between samples). Deterministic given deterministic
/// inputs in a deterministic order.
pub fn merge(parts: Vec<TimelineData>) -> Option<TimelineData> {
    let mut parts = parts.into_iter();
    let first = parts.next()?;
    let mut interval = first.interval_ticks;
    let mut ticks = first.ticks;
    let mut series = first.series;
    let mut truncated = first.truncated;
    for part in parts {
        interval = interval.min(part.interval_ticks);
        if part.ticks.len() > ticks.len() {
            ticks = part.ticks;
        }
        truncated = truncated.max(part.truncated);
        for ps in part.series {
            match series.iter_mut().find(|s| s.name == ps.name) {
                Some(s) => {
                    let n = s.values.len().max(ps.values.len());
                    let pad = *s.values.last().unwrap_or(&0);
                    while s.values.len() < n {
                        s.values.push(pad);
                    }
                    let ps_pad = *ps.values.last().unwrap_or(&0);
                    for (i, v) in s.values.iter_mut().enumerate() {
                        *v = v.saturating_add(*ps.values.get(i).unwrap_or(&ps_pad));
                    }
                }
                None => series.push(ps),
            }
        }
    }
    for s in &mut series {
        let pad = *s.values.last().unwrap_or(&0);
        while s.values.len() < ticks.len() {
            s.values.push(pad);
        }
        s.values.truncate(ticks.len());
    }
    Some(TimelineData { interval_ticks: interval, ticks, series, truncated })
}

static PUBLISHED: Mutex<Vec<TimelineData>> = Mutex::new(Vec::new());

/// Hand a finished timeline to the process-wide store for
/// [`finish_timelines`] / [`drain`]. Engines publish in completion
/// order, which depends on thread scheduling; [`drain`] hides it.
pub fn publish(data: TimelineData) {
    PUBLISHED.lock().expect("timeline store lock").push(data);
}

/// Take every published timeline, leaving the store empty. They come
/// back sorted by their rendered JSON, so the result does not depend on
/// the order parallel runs finished in.
pub fn drain() -> Vec<TimelineData> {
    let mut timelines = std::mem::take(&mut *PUBLISHED.lock().expect("timeline store lock"));
    timelines.sort_by_cached_key(|tl| render_json(std::slice::from_ref(tl)));
    timelines
}

/// Render timelines as a deterministic standalone JSON document
/// (integer formatting only — a given input always renders
/// byte-identical bytes).
pub fn render_json(timelines: &[TimelineData]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"timelines\":[");
    for (ti, tl) in timelines.iter().enumerate() {
        if ti > 0 {
            out.push(',');
        }
        out.push_str("\n{\"interval_ns\":");
        out.push_str(&(tl.interval_ticks * TICK_NANOS).to_string());
        out.push_str(",\"samples\":");
        out.push_str(&tl.ticks.len().to_string());
        out.push_str(",\"truncated\":");
        out.push_str(&tl.truncated.to_string());
        out.push_str(",\"ticks\":[");
        for (i, t) in tl.ticks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&t.to_string());
        }
        out.push_str("],\"series\":[");
        for (si, s) in tl.series.iter().enumerate() {
            if si > 0 {
                out.push(',');
            }
            out.push_str("\n{\"name\":\"");
            crate::perfetto::escape_into(&mut out, s.name);
            out.push_str("\",\"values\":[");
            for (i, v) in s.values.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&v.to_string());
            }
            out.push_str("]}");
        }
        out.push_str("]}");
    }
    out.push_str("\n]}\n");
    out
}

/// Drain the published timelines and write them to `path` as standalone
/// JSON, reporting the outcome on stderr. Export failure is reported,
/// not fatal — a missing timeline must never fail the run that produced
/// the results. Call once per binary, after all simulations have
/// finished (next to `finish_profile`).
pub fn finish_timelines(path: &str) {
    let timelines = drain();
    let samples: usize = timelines.iter().map(|t| t.ticks.len()).sum();
    let series: usize = timelines.iter().map(|t| t.series.len()).sum();
    let truncated: u64 = timelines.iter().map(|t| t.truncated).sum();
    let json = render_json(&timelines);
    match std::fs::write(path, json) {
        Ok(()) => {
            let cut = if truncated > 0 {
                format!(" ({truncated} samples past capacity dropped)")
            } else {
                String::new()
            };
            eprintln!(
                "timeline: wrote {path}: {} timelines, {series} series, {samples} samples{cut}",
                timelines.len()
            );
        }
        Err(e) => eprintln!("timeline: failed to write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(interval: u64, names: &[(&'static str, &[u64])]) -> TimelineData {
        let n = names.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
        TimelineData {
            interval_ticks: interval,
            ticks: (1..=n as u64).map(|k| k * interval).collect(),
            series: names
                .iter()
                .map(|(name, v)| TimelineSeries { name, values: v.to_vec() })
                .collect(),
            truncated: 0,
        }
    }

    #[test]
    fn sampler_commits_on_the_grid_and_repeats_constant_state() {
        let mut tl = Timeline::new(10);
        let a = tl.add_series("a");
        assert!(!tl.due(9));
        tl.scratch[a] = 7;
        assert!(tl.due(10));
        tl.commit_until(10); // exactly one grid point
        tl.scratch[a] = 9;
        tl.commit_until(45); // grid points 20, 30, 40 all see 9
        let d = tl.finish(60); // 50, 60 pad out with the last state
        assert_eq!(d.ticks, [10, 20, 30, 40, 50, 60]);
        assert_eq!(d.series[0].values, [7, 9, 9, 9, 9, 9]);
        assert_eq!(d.truncated, 0);
    }

    #[test]
    fn sampler_truncates_past_capacity_without_growing() {
        let mut tl = Timeline::new(1);
        tl.add_series("x");
        let far = TIMELINE_CAPACITY as u64 + 1000;
        tl.commit_until(far);
        let d = tl.finish(far + 500);
        assert_eq!(d.ticks.len(), TIMELINE_CAPACITY);
        assert_eq!(d.series[0].values.len(), TIMELINE_CAPACITY);
        assert_eq!(d.truncated, 1500);
        assert_eq!(d.ticks.capacity(), TIMELINE_CAPACITY, "never reallocates");
    }

    #[test]
    fn merge_sums_by_name_and_pads_short_series() {
        let a = data(10, &[("cache", &[1, 2, 3]), ("disk0", &[5])]);
        let b = data(10, &[("cache", &[10, 10]), ("procs", &[4, 4, 4])]);
        let m = merge(vec![a, b]).expect("non-empty");
        assert_eq!(m.interval_ticks, 10);
        assert_eq!(m.ticks, [10, 20, 30]);
        let by_name: Vec<_> = m.series.iter().map(|s| (s.name, s.values.clone())).collect();
        assert_eq!(
            by_name,
            [
                ("cache", vec![11, 12, 13]), // b pads its last value (10)
                ("disk0", vec![5, 5, 5]),    // padded to the grid
                ("procs", vec![4, 4, 4]),
            ]
        );
        assert_eq!(merge(Vec::new()), None);
    }

    #[test]
    fn render_json_is_deterministic_and_parses() {
        use serde::Value;
        let d = data(100, &[("cache_resident", &[3, 1]), ("q\"d\"", &[0, 2])]);
        let json = render_json(std::slice::from_ref(&d));
        assert_eq!(json, render_json(&[d]), "byte-identical re-render");
        let v: Value = serde_json::from_str(&json).expect("valid JSON");
        let tl = &v.get("timelines").and_then(Value::as_seq).expect("timelines array")[0];
        assert_eq!(tl.get("interval_ns"), Some(&Value::U64(100 * TICK_NANOS)));
        assert_eq!(tl.get("samples"), Some(&Value::U64(2)));
        let series = tl.get("series").and_then(Value::as_seq).expect("series array");
        assert_eq!(series[0].get("name"), Some(&Value::Str("cache_resident".into())));
        assert_eq!(series[1].get("name"), Some(&Value::Str("q\"d\"".into())));
        assert_eq!(
            series[0].get("values").and_then(Value::as_seq),
            Some(&[Value::U64(3), Value::U64(1)][..])
        );
    }

    #[test]
    fn drain_order_does_not_depend_on_publish_order() {
        let a = data(10, &[("cache", &[1, 2])]);
        let b = data(10, &[("disk0", &[3])]);
        publish(a.clone());
        publish(b.clone());
        let first = drain();
        publish(b);
        publish(a);
        assert_eq!(drain(), first);
        assert!(drain().is_empty());
    }

    #[test]
    fn intern_dedupes() {
        let a = intern_name("gauge_intern_test");
        let b = intern_name("gauge_intern_test");
        assert!(std::ptr::eq(a, b));
    }
}
