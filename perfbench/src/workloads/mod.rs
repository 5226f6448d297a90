//! The four workloads, the inputs they share, and the timed-window
//! bookkeeping every one of them reports through.
//!
//! Every input is a pure function of the run's `--seed`; the program
//! under test only ever sees the generated inputs.

pub mod campaign;
pub mod fig8;
pub mod serve;

use crate::check::{Checker, Golden};
use crate::host::Kernel;
use crate::metrics::Values;
use crate::spans::{SpanId, SpanLog};
use crate::stats::{median, Summary};
use experiments::{Scale, TraceStore};
use iosim::{ProcessFeed, SimConfig, SimReport, Simulation};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::AppKind;

/// Set-up repetitions per run.
pub(crate) const SETUP_REPS: usize = 30;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Figure 8 grid on the paper's Y-MP disks.
    Fig8Paper,
    /// The Figure 8 cache sizes on the 2026 tiered hierarchy.
    Fig8Modern,
    /// A sharded datacenter campaign replayed from spilled frame files.
    CampaignStreamed,
    /// A closed-loop request mix against the serving daemon.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig8Paper,
        Workload::Fig8Modern,
        Workload::CampaignStreamed,
        Workload::ServeMixed,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig8Paper => "fig8_paper",
            Workload::Fig8Modern => "fig8_modern",
            Workload::CampaignStreamed => "campaign_streamed",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Look a workload up by its `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one run is asked to do.
#[derive(Debug)]
pub struct RunOptions {
    /// The input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// The span log; enabled for a traced run.
    pub spans: SpanLog,
    /// Scratch directory for spill files, the daemon socket and its log.
    pub run_dir: PathBuf,
    /// Golden digests, applied at the golden seed.
    pub golden: Golden,
    /// The executable started as `<exe> serve-daemon` for `serve_mixed`.
    pub daemon_exe: PathBuf,
}

impl RunOptions {
    /// Whether this is a traced run.
    pub fn traced(&self) -> bool {
        self.spans.enabled()
    }
}

/// One simulated process of a point: which trace it replays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Proc {
    /// Simulator pid (also the trace's pid).
    pub pid: u32,
    /// Process name in the report.
    pub name: String,
    /// Application the trace models.
    pub kind: AppKind,
    /// Trace seed.
    pub seed: u64,
}

/// One single-node simulation: a config and the processes it replays.
#[derive(Debug, Clone)]
pub struct Point {
    /// Input key used by the output checks.
    pub key: String,
    /// Simulator configuration.
    pub config: SimConfig,
    /// Processes, added in order.
    pub procs: Vec<Proc>,
    /// Trace scale divisor.
    pub scale: Scale,
}

/// A point's result with the host time of each step.
#[derive(Debug)]
pub struct PointRun {
    /// The report.
    pub report: SimReport,
    /// Its compact JSON.
    pub json: String,
    /// `Simulation::new` plus every `add_process_feed`.
    pub build: Duration,
    /// `Simulation::run`.
    pub run: Duration,
    /// `serde_json::to_string` of the report.
    pub serialize: Duration,
}

impl PointRun {
    /// Build, run and serialize: the time to one result.
    pub fn total(&self) -> Duration {
        self.build + self.run + self.serialize
    }

    /// Simulated I/O requests issued.
    pub fn ios(&self) -> u64 {
        self.report.processes.iter().map(|p| p.ios_issued).sum()
    }
}

impl Point {
    /// Build, run and serialize this point against `store`, inside spans
    /// of `spans` under `parent`.
    pub fn run(
        &self,
        store: &TraceStore,
        spans: &SpanLog,
        parent: crate::spans::SpanId,
        id: u64,
    ) -> PointRun {
        let t = Instant::now();
        let span = spans.open("build", parent, id);
        let mut sim = Simulation::new(self.config.clone());
        for p in &self.procs {
            sim.add_process_feed(
                p.pid,
                p.name.clone(),
                store.feed(p.kind, p.pid, p.seed, self.scale),
            )
            .expect("benchmark pids and trace file ids fit the simulator's namespace");
        }
        spans.close(span);
        let build = t.elapsed();
        let t = Instant::now();
        let report = spans.scope("run", parent, id, |_| sim.run());
        let run = t.elapsed();
        let t = Instant::now();
        let json = spans.scope("serialize", parent, id, |_| {
            serde_json::to_string(&report).expect("report serializes")
        });
        PointRun {
            report,
            json,
            build,
            run,
            serialize: t.elapsed(),
        }
    }

    /// Trace events this point replays, generating them in `store` if
    /// needed: the I/O count every run of the point must issue.
    pub fn events(&self, store: &TraceStore) -> u64 {
        self.procs
            .iter()
            .map(|p| feed_len(&store.feed(p.kind, p.pid, p.seed, self.scale)))
            .sum()
    }
}

/// Events a replay feed holds, read from its slice or its frame index
/// without decoding.
pub(crate) fn feed_len(feed: &ProcessFeed) -> u64 {
    match feed {
        ProcessFeed::Shared(events) => events.len() as u64,
        ProcessFeed::Streamed(source) => source.len(),
    }
}

/// The invariants every single-node report must hold: CPU time
/// conservation, one issued I/O per trace event, and every accessed
/// cache block either a hit or a miss.
pub(crate) fn point_invariants(report: &SimReport, expected_ios: u64) -> Result<(), String> {
    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        report.check_time_conservation()
    }))
    .is_err()
    {
        return Err("CPU busy + idle does not equal CPUs x wall".into());
    }
    let ios: u64 = report.processes.iter().map(|p| p.ios_issued).sum();
    if ios != expected_ios {
        return Err(format!("{ios} I/Os issued for {expected_ios} trace events"));
    }
    let c = &report.cache;
    if c.hit_blocks + c.miss_blocks != c.accessed_blocks {
        return Err(format!(
            "{} hits + {} misses != {} accessed blocks",
            c.hit_blocks, c.miss_blocks, c.accessed_blocks
        ));
    }
    Ok(())
}

/// Every distinct trace `points` replay, as store keys.
pub(crate) fn trace_keys(points: &[Point]) -> Vec<(AppKind, u32, u64, Scale)> {
    let mut keys: Vec<_> = points
        .iter()
        .flat_map(|p| p.procs.iter().map(|q| (q.kind, q.pid, q.seed, p.scale)))
        .collect();
    keys.sort_by_key(|&(k, pid, seed, scale)| (k.name(), pid, seed, scale.0));
    keys.dedup();
    keys
}

/// One result: a point's, a campaign's or a served request's.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Sample {
    /// Time to the result, seconds.
    pub latency_s: f64,
    /// Simulated I/Os the result stands for.
    pub ios: u64,
    /// Time of the calibration kernel run just before it, seconds.
    pub kernel_s: f64,
}

/// One input's figures over its repetitions in a window.
#[derive(Debug, Clone, Copy)]
struct Input {
    /// Fastest time, seconds.
    latency_s: f64,
    /// Median simulated I/Os.
    ios: f64,
    /// Fastest time of the kernel run before it, seconds.
    kernel_s: f64,
}

/// What a timed window measured. Each input's time is its fastest
/// repetition. On the shared host the simulator runs up to twice as slow
/// in spells covering most of the time, broken by fast spells of tens of
/// milliseconds; the fastest of many short repetitions lands in a fast
/// spell and repeats from run to run, where a median would follow the
/// share of slow spells. The calibration [`Kernel`] runs before every
/// input and is kept the same way, as one more input; every time is
/// then mapped onto the recording host by [`crate::host::scale`] of the
/// kernel's mean over inputs. A run that met few fast spells reads both
/// slower, and the two cancel.
#[derive(Debug, Default)]
pub(crate) struct Window {
    /// The completed units, in order. A unit is one pass over the
    /// workload's inputs: a sweep, a rotation of campaigns over the trace
    /// seeds, or an epoch of requests. Every unit holds the same inputs in
    /// the same order, so sample `i` of each unit repeats the same input
    /// (for serve, a request of the same shape and place in the epoch).
    pub units: Vec<Vec<Sample>>,
    /// The calibration kernel.
    pub kernel: Kernel,
}

impl Window {
    fn per_input(&self) -> Vec<Input> {
        let inputs = self.units.iter().map(Vec::len).max().unwrap_or(0);
        (0..inputs)
            .map(|i| {
                let reps: Vec<&Sample> = self.units.iter().filter_map(|u| u.get(i)).collect();
                let fastest = |f: &dyn Fn(&Sample) -> f64| {
                    reps.iter().map(|s| f(s)).fold(f64::INFINITY, f64::min)
                };
                Input {
                    latency_s: fastest(&|s| s.latency_s),
                    ios: median(&reps.iter().map(|s| s.ios as f64).collect::<Vec<_>>()),
                    kernel_s: fastest(&|s| s.kernel_s),
                }
            })
            .collect()
    }

    /// Simulated I/Os answered per second by a unit whose every input
    /// takes its fastest time.
    fn rate(inputs: &[Input], scale: f64) -> Option<f64> {
        let time: f64 = inputs.iter().map(|x| x.latency_s).sum::<f64>() * scale;
        let ios: f64 = inputs.iter().map(|x| x.ios).sum();
        (time > 0.0).then(|| ios / time)
    }

    /// Distribution of the inputs' fastest latencies, ms.
    fn latency(inputs: &[Input], scale: f64) -> Option<Summary> {
        Summary::of(
            &inputs
                .iter()
                .map(|x| x.latency_s * scale * 1e3)
                .collect::<Vec<_>>(),
        )
    }

    /// The kernel's time in this window, seconds: the mean over inputs
    /// of its fastest time before each.
    fn kernel_s(inputs: &[Input]) -> Option<f64> {
        let k = inputs.iter().map(|x| x.kernel_s).sum::<f64>() / inputs.len() as f64;
        (k.is_finite() && k > 0.0).then(|| {
            eprintln!(
                "perfbench: calibration kernel {:.1} us; timings scaled by {:.4}",
                k * 1e6,
                crate::host::scale(k)
            );
            k
        })
    }

    /// The end-to-end metrics of an untraced run; `peak_heap_bytes` is
    /// the working process's heap high-water mark.
    pub fn end_to_end<F>(&self, setup: &Setup<F>, peak_heap_bytes: Option<usize>) -> Values {
        let mut v = Values::default();
        let inputs = self.per_input();
        let Some(scale) = Window::kernel_s(&inputs).map(crate::host::scale) else {
            return v;
        };
        if let Some(rate) = Window::rate(&inputs, scale) {
            v.set("answered_ios_per_s", rate);
        }
        if let Some(s) = Window::latency(&inputs, scale) {
            v.set_summary("result_p50_ms", s.median, s);
            // Below 20 inputs no percentile above the median has ten beyond it.
            let tail = s.tail.map_or(s.median, |(_, t)| t);
            v.set_summary("result_tail_ms", tail, s);
        }
        if let Some(fastest) = setup.fastest_s() {
            v.set("setup_s", fastest * scale);
        }
        if let Some(bytes) = peak_heap_bytes.filter(|&b| b > 0) {
            v.set("peak_heap_mb", bytes as f64 / (1024.0 * 1024.0));
        }
        v
    }

    /// The traced run's own throughput and median latency, and the
    /// calibration kernel's time.
    pub fn traced(&self) -> Values {
        let mut v = Values::default();
        let inputs = self.per_input();
        let Some(kernel_s) = Window::kernel_s(&inputs) else {
            return v;
        };
        let scale = crate::host::scale(kernel_s);
        if let Some(rate) = Window::rate(&inputs, scale) {
            v.set("traced.answered_ios_per_s", rate);
        }
        if let Some(s) = Window::latency(&inputs, scale) {
            v.set_summary("traced.result_p50_ms", s.median, s);
        }
        v.set("host.kernel_us", kernel_s * 1e6);
        v
    }
}

/// The host times of one set-up repetition's steps, in order.
#[derive(Debug, Default)]
pub(crate) struct Steps(Vec<f64>);

impl Steps {
    /// Run and time the next step.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let value = f();
        self.0.push(t.elapsed().as_secs_f64());
        value
    }
}

/// A workload's set-up, repeated [`SETUP_REPS`] times per run. The first
/// repetition runs before the timed window, and the window uses its
/// value; the others run between units at even intervals across the
/// window, and their values are dropped. Every repetition times the
/// same steps in the same order; `setup_s` is the sum of each step's
/// fastest time, taken across the run for the reason [`Window`] takes
/// each input's fastest time.
pub(crate) struct Setup<F> {
    f: F,
    reps: Vec<Vec<f64>>,
}

impl<T, F: FnMut(usize, &mut Steps, &mut Checker, SpanId) -> T> Setup<F> {
    pub fn new(f: F) -> Setup<F> {
        Setup {
            f,
            reps: Vec::with_capacity(SETUP_REPS),
        }
    }

    /// Run the next repetition.
    pub fn rep(&mut self, spans: &SpanLog, checker: &mut Checker) -> T {
        let rep = self.reps.len();
        let mut steps = Steps::default();
        let value = spans.scope("setup", SpanId::NONE, rep as u64, |span| {
            (self.f)(rep, &mut steps, checker, span)
        });
        self.reps.push(steps.0);
        value
    }

    /// Whether the next repetition is due `elapsed` seconds into a window
    /// of `seconds`: repetition `k` is due `k / SETUP_REPS` of the way
    /// through, and every pending one at `f64::INFINITY`.
    pub fn due(&self, elapsed: f64, seconds: f64) -> bool {
        let done = self.reps.len();
        done < SETUP_REPS && elapsed >= seconds * done as f64 / SETUP_REPS as f64
    }
}

impl<F> Setup<F> {
    /// The sum over steps of each step's fastest time, seconds; `None`
    /// before any repetition or when repetitions took different steps.
    pub fn fastest_s(&self) -> Option<f64> {
        let first = self.reps.first()?;
        if self.reps.iter().any(|r| r.len() != first.len()) {
            return None;
        }
        Some(
            (0..first.len())
                .map(|i| self.reps.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
                .sum(),
        )
    }
}

/// Trace seed `k` of a run: the run seed itself first (so seed 42 runs
/// the points `repro-sim` runs), then seeds derived from it. All stay
/// below 2^32, so `seed + 1` never overflows.
pub fn trace_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        seed & 0xffff_ffff
    } else {
        mix(seed ^ mix(k as u64)) >> 32
    }
}

/// A SplitMix64 step: derives independent sub-seeds from the run seed.
pub(crate) fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
