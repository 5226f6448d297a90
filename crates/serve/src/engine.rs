//! The serving engine: a persistent worker pool over one warm
//! [`TraceStore`], with request canonicalization, single-flight
//! coalescing, a bounded LRU result cache, deficit-round-robin fair
//! queueing, and admission control.
//!
//! ## Why requests get cheap
//!
//! A one-shot `mio sim` run pays trace generation every time it
//! starts. The engine keeps one [`TraceStore`] alive across requests
//! (configured by [`EngineConfig::store`], which `mio serve` fills from
//! `--trace-dir` / `--trace-mem-budget`), so the first request for a workload
//! generates its traces and every later request replays them zero-copy.
//! On top of that:
//!
//! * **Canonicalization** ([`crate::canon`]): each runnable request is
//!   keyed by the stable canonical hash of its body, so semantically
//!   identical requests — regardless of wire field order — share a key.
//! * **Single-flight**: concurrent duplicates of an in-flight key await
//!   the one execution instead of queueing their own.
//! * **Result cache**: completed results are kept in a bounded LRU
//!   (entry-count cap); a repeat of a cached key is answered without
//!   touching the queue at all.
//! * **Fair queueing**: distinct keys are queued per client and drained
//!   deficit-round-robin, so one client's 1000-point sweep cannot
//!   starve another's single request. Costs are proportional to
//!   simulated size (a campaign counts as many quanta, a figure point
//!   as one).
//! * **Admission control**: at most `max_inflight` distinct jobs may be
//!   queued or running; past that, [`Engine::submit`] returns
//!   [`SubmitError::QueueFull`] instead of buffering unboundedly
//!   (coalesced duplicates and cache hits are always admitted — they
//!   add no work).
//! * **Panic containment**: a job whose simulation panics answers its
//!   submitter and every coalesced waiter with an error, caches
//!   nothing, leaves the in-flight count, and the worker goes on
//!   serving.
//!
//! ## Determinism
//!
//! Every runnable request is a pure function of its body: the
//! simulations it triggers derive all randomness from per-request seeds
//! and the [`TraceStore`] memoizes byte-identical traces regardless of
//! which worker generated them first. So the result for a key is
//! byte-identical no matter the worker count, the queue order, or
//! whether it was computed, coalesced, or cached — the property the
//! proptest suite and the CI socket guard pin.
//!
//! A result is kept as the compact JSON bytes of its report, serialized
//! once by the worker that computed it: every ticket sharing the result,
//! and every later cache hit, hands out the same bytes, and the server
//! splices them into its `done` line without parsing or printing the
//! report again.

use crate::canon::canonical_hash;
use crate::protocol::{CampaignPointSpec, Fig8PointSpec, RequestBody};
use buffer_cache::lru::LruIndex;
use buffer_cache::WritePolicy;
use experiments::figures::two_venus_report;
use experiments::{run_campaign_in, CampaignSpec, Scale, StoreConfig, TraceStore};
use serde::{Serialize, Value};
use sim_core::units::MB;
use std::any::Any;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads. `0` is allowed (nothing executes — the admission
    /// tests use it to observe queue behavior deterministically).
    pub workers: usize,
    /// Max distinct jobs queued or running before submissions bounce
    /// with [`SubmitError::QueueFull`].
    pub max_inflight: usize,
    /// Result-cache capacity in entries.
    pub result_cache: usize,
    /// Trace-store configuration (memory budget / persistent frame
    /// cache directory).
    pub store: StoreConfig,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            max_inflight: 256,
            result_cache: 512,
            store: StoreConfig::default(),
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission control: `max_inflight` distinct jobs are already
    /// queued or running. Back off and retry.
    QueueFull,
    /// The engine is draining; no new work is accepted.
    ShuttingDown,
    /// The request body is malformed (zero sizes/counts) or not
    /// runnable ([`RequestBody::Stats`]/[`RequestBody::Shutdown`] are
    /// handled by the server, not the pool).
    Invalid(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "queue full"),
            SubmitError::ShuttingDown => write!(f, "shutting down"),
            SubmitError::Invalid(msg) => write!(f, "invalid request: {msg}"),
        }
    }
}

/// How long one execution spent queued and running, recorded by the
/// worker and surfaced on every ticket sharing the flight (the server's
/// per-request completion log line reports both).
#[derive(Debug, Clone, Copy, Default)]
pub struct FlightTiming {
    /// Enqueue → worker pickup.
    pub queue_wait: Duration,
    /// Worker pickup → result published.
    pub service: Duration,
}

/// A finished execution: the report's compact JSON, or why there is none.
type FlightResult = Result<Arc<str>, String>;

/// One execution, shared by every ticket coalesced onto it.
#[derive(Debug)]
struct Flight {
    done: Mutex<Option<FlightResult>>,
    cv: Condvar,
    /// Set by the worker just before `complete`; stays `None` for
    /// cache-hit flights (nothing ran) and abandoned jobs.
    timing: Mutex<Option<FlightTiming>>,
}

impl Flight {
    fn new() -> Arc<Flight> {
        Arc::new(Flight { done: Mutex::new(None), cv: Condvar::new(), timing: Mutex::new(None) })
    }

    fn completed(value: Arc<str>) -> Arc<Flight> {
        Arc::new(Flight {
            done: Mutex::new(Some(Ok(value))),
            cv: Condvar::new(),
            timing: Mutex::new(None),
        })
    }

    fn complete(&self, result: FlightResult) {
        *self.done.lock().expect("flight lock") = Some(result);
        self.cv.notify_all();
    }
}

/// A handle to one submitted request's eventual result.
#[derive(Debug)]
pub struct Ticket {
    flight: Arc<Flight>,
    /// Whether the result is shared rather than freshly computed for
    /// this ticket: a result-cache hit or a coalesced duplicate.
    pub cached: bool,
    /// Whether the sharing was single-flight coalescing onto an
    /// in-flight execution (as opposed to a completed result-cache hit).
    pub coalesced: bool,
}

impl Ticket {
    /// Block until the result is ready: the report's compact JSON bytes.
    /// `Err` means the engine stopped before running the job (drain
    /// timeout exceeded) or the job panicked.
    pub fn wait(&self) -> Result<Arc<str>, String> {
        let mut done = self.flight.done.lock().expect("flight lock");
        loop {
            if let Some(r) = done.as_ref() {
                return r.clone();
            }
            done = self.flight.cv.wait(done).expect("flight lock");
        }
    }

    /// Queue-wait and service durations of the execution that produced
    /// this ticket's result, once resolved. `None` for cache hits (no
    /// execution) and abandoned jobs.
    pub fn timing(&self) -> Option<FlightTiming> {
        *self.flight.timing.lock().expect("flight lock")
    }

    /// The result if the ticket is resolved already — always so for a
    /// cache hit — without blocking; `None` while it is pending.
    pub fn try_result(&self) -> Option<Result<Arc<str>, String>> {
        self.flight.done.lock().expect("flight lock").clone()
    }

    /// [`Ticket::wait`] bounded by `timeout`; `None` means still
    /// pending — the server's heartbeat loop polls with this.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Arc<str>, String>> {
        let mut done = self.flight.done.lock().expect("flight lock");
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(r) = done.as_ref() {
                return Some(r.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) =
                self.flight.cv.wait_timeout(done, deadline - now).expect("flight lock");
            done = guard;
        }
    }
}

/// One queued job: a distinct canonical key awaiting a worker.
#[derive(Debug)]
struct Job {
    key: u64,
    body: RequestBody,
    cost: u64,
    flight: Arc<Flight>,
    /// When the job entered the queue; differenced at worker pickup
    /// into the queue-wait histogram.
    enqueued_at: Instant,
}

/// One client's DRR queue.
#[derive(Debug)]
struct ClientQueue {
    name: String,
    deficit: u64,
    queue: VecDeque<Arc<Job>>,
}

/// Scheduler state behind the mutex.
#[derive(Debug, Default)]
struct Sched {
    clients: Vec<ClientQueue>,
    cursor: usize,
    /// Distinct jobs queued or running.
    inflight: usize,
    /// Single-flight registry: canonical key → the execution every
    /// concurrent duplicate awaits.
    flights: HashMap<u64, Arc<Flight>>,
    /// Result cache: canonical key → the report's compact JSON.
    results: HashMap<u64, Arc<str>>,
    lru: LruIndex<u64>,
    stopped: bool,
}

/// Quantum added to a client's deficit per DRR round. A figure point
/// costs 1, so a client with small requests drains several per round
/// while a campaign-sized job (cost = processes/64) waits its turn
/// without blocking anyone.
const DRR_QUANTUM: u64 = 8;

impl Sched {
    fn enqueue(&mut self, client: &str, job: Arc<Job>) {
        match self.clients.iter_mut().find(|c| c.name == client) {
            Some(c) => c.queue.push_back(job),
            None => self.clients.push(ClientQueue {
                name: client.to_string(),
                deficit: 0,
                queue: VecDeque::from([job]),
            }),
        }
    }

    fn queued(&self) -> usize {
        self.clients.iter().map(|c| c.queue.len()).sum()
    }

    /// Deficit round robin: pick the next job across client queues.
    fn next_job(&mut self, quantum: u64) -> Option<Arc<Job>> {
        if self.clients.is_empty() || self.queued() == 0 {
            return None;
        }
        let n = self.clients.len();
        loop {
            let c = &mut self.clients[self.cursor % n];
            if let Some(head) = c.queue.front() {
                if c.deficit >= head.cost {
                    c.deficit -= head.cost;
                    return c.queue.pop_front();
                }
                c.deficit += quantum;
            } else {
                // An idle client carries no credit into its next burst.
                c.deficit = 0;
            }
            self.cursor = (self.cursor + 1) % n;
        }
    }

    fn cache_insert(&mut self, key: u64, value: Arc<str>, cap: usize) {
        if cap == 0 {
            return;
        }
        self.results.insert(key, value);
        self.lru.touch(key);
        while self.lru.len() > cap {
            if let Some(old) = self.lru.pop_lru() {
                self.results.remove(&old);
            }
        }
    }
}

/// Monotonic counters exposed by the stats request.
#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    cache_hits: AtomicU64,
    coalesced: AtomicU64,
    rejected_full: AtomicU64,
    rejected_shutdown: AtomicU64,
}

/// Prometheus-facing RED metrics ([`obs::metrics`]). Wall-clock based —
/// kept strictly out of [`Engine::stats_value`] and every result
/// payload, which stay deterministic.
struct ServeMetrics {
    registry: obs::metrics::Registry,
    /// Per request type (`fig8_point` / `campaign`): enqueue → pickup.
    queue_wait: [Arc<obs::metrics::LatencyHistogram>; 2],
    /// Per request type: pickup → result published.
    service_time: [Arc<obs::metrics::LatencyHistogram>; 2],
    cache_hits: Arc<obs::metrics::Counter>,
    coalesced: Arc<obs::metrics::Counter>,
    rejected: Arc<obs::metrics::Counter>,
    completed: Arc<obs::metrics::Counter>,
    hit_ratio: Arc<obs::metrics::Gauge>,
    coalesce_ratio: Arc<obs::metrics::Gauge>,
    inflight: Arc<obs::metrics::Gauge>,
    queued: Arc<obs::metrics::Gauge>,
}

/// Histogram index of a runnable request type (also its `type` label).
fn req_type(body: &RequestBody) -> (usize, &'static str) {
    match body {
        RequestBody::Campaign(_) => (1, "campaign"),
        _ => (0, "fig8_point"),
    }
}

impl ServeMetrics {
    fn new() -> ServeMetrics {
        let registry = obs::metrics::Registry::new();
        let qw = |t: &str| {
            registry.histogram(
                "serve_queue_wait_seconds",
                "Time a request spent queued before a worker picked it up",
                &[("type", t)],
            )
        };
        let st = |t: &str| {
            registry.histogram(
                "serve_service_time_seconds",
                "Time a worker spent executing a request",
                &[("type", t)],
            )
        };
        ServeMetrics {
            queue_wait: [qw("fig8_point"), qw("campaign")],
            service_time: [st("fig8_point"), st("campaign")],
            cache_hits: registry.counter(
                "serve_result_cache_hits_total",
                "Requests answered from the bounded result cache",
                &[],
            ),
            coalesced: registry.counter(
                "serve_coalesced_total",
                "Requests coalesced onto an identical in-flight execution",
                &[],
            ),
            rejected: registry.counter(
                "serve_rejected_total",
                "Requests refused by admission control or shutdown",
                &[],
            ),
            completed: registry.counter(
                "serve_completed_total",
                "Executions finished by the worker pool",
                &[],
            ),
            hit_ratio: registry.gauge(
                "serve_result_cache_hit_ratio",
                "cache hits / submissions since start",
                &[],
            ),
            coalesce_ratio: registry.gauge(
                "serve_singleflight_coalesce_ratio",
                "coalesced submissions / submissions since start",
                &[],
            ),
            inflight: registry.gauge(
                "serve_inflight_jobs",
                "Distinct jobs queued or running",
                &[],
            ),
            queued: registry.gauge("serve_queued_jobs", "Jobs waiting for a worker", &[]),
            registry,
        }
    }

    /// Per-client RED counters, created on first use (label cardinality
    /// = client names seen).
    fn client_requests(&self, client: &str) -> Arc<obs::metrics::Counter> {
        self.registry.counter(
            "serve_requests_total",
            "Requests submitted, by client",
            &[("client", client)],
        )
    }

    fn client_errors(&self, client: &str) -> Arc<obs::metrics::Counter> {
        self.registry.counter(
            "serve_errors_total",
            "Requests refused or failed, by client",
            &[("client", client)],
        )
    }
}

struct Inner {
    sched: Mutex<Sched>,
    /// Workers wait here for queued jobs.
    work_ready: Condvar,
    /// Drain waits here for `inflight` to hit zero.
    drained: Condvar,
    store: TraceStore,
    cfg: EngineConfig,
    counters: Counters,
    metrics: ServeMetrics,
    shutting_down: AtomicBool,
}

/// The long-running serving engine. Dropping it stops the workers
/// (abandoning queued jobs with an error); call
/// [`Engine::begin_shutdown`] + [`Engine::drain`] first for a graceful
/// exit.
pub struct Engine {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine").field("workers", &self.workers.len()).finish()
    }
}

impl Engine {
    /// Build the engine and spawn its worker pool.
    pub fn new(cfg: EngineConfig) -> Engine {
        let store = TraceStore::with_config(cfg.store.clone());
        let inner = Arc::new(Inner {
            sched: Mutex::new(Sched::default()),
            work_ready: Condvar::new(),
            drained: Condvar::new(),
            store,
            cfg: cfg.clone(),
            counters: Counters::default(),
            metrics: ServeMetrics::new(),
            shutting_down: AtomicBool::new(false),
        });
        let workers = (0..cfg.workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("serve-worker{w}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn serve worker")
            })
            .collect();
        Engine { inner, workers }
    }

    /// Submit one runnable request for `client`. Returns a [`Ticket`]
    /// immediately — resolved already for a cache hit, pending
    /// otherwise.
    pub fn submit(&self, client: &str, body: &RequestBody) -> Result<Ticket, SubmitError> {
        let m = &self.inner.metrics;
        if let Err(e) = validate(body) {
            m.client_errors(client).inc();
            return Err(e);
        }
        self.inner.counters.submitted.fetch_add(1, Ordering::Relaxed);
        m.client_requests(client).inc();
        if self.inner.shutting_down.load(Ordering::SeqCst) {
            self.inner.counters.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
            m.rejected.inc();
            m.client_errors(client).inc();
            return Err(SubmitError::ShuttingDown);
        }
        let key = canonical_hash(body);
        let mut s = self.inner.sched.lock().expect("sched lock");
        // Result cache first: a hit is answered instantly, no queueing.
        if let Some(v) = s.results.get(&key).cloned() {
            s.lru.touch(key);
            self.inner.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            m.cache_hits.inc();
            return Ok(Ticket { flight: Flight::completed(v), cached: true, coalesced: false });
        }
        // Single-flight: coalesce onto an identical in-flight job.
        if let Some(flight) = s.flights.get(&key).cloned() {
            self.inner.counters.coalesced.fetch_add(1, Ordering::Relaxed);
            m.coalesced.inc();
            return Ok(Ticket { flight, cached: true, coalesced: true });
        }
        // A genuinely new job: admission control applies.
        if s.inflight >= self.inner.cfg.max_inflight {
            self.inner.counters.rejected_full.fetch_add(1, Ordering::Relaxed);
            m.rejected.inc();
            m.client_errors(client).inc();
            return Err(SubmitError::QueueFull);
        }
        let flight = Flight::new();
        s.flights.insert(key, Arc::clone(&flight));
        s.inflight += 1;
        s.enqueue(
            client,
            Arc::new(Job {
                key,
                body: body.clone(),
                cost: cost_of(body),
                flight: Arc::clone(&flight),
                enqueued_at: Instant::now(),
            }),
        );
        drop(s);
        self.inner.work_ready.notify_one();
        Ok(Ticket { flight, cached: false, coalesced: false })
    }

    /// Stop accepting new submissions; queued and running work
    /// continues. Idempotent.
    pub fn begin_shutdown(&self) {
        self.inner.shutting_down.store(true, Ordering::SeqCst);
    }

    /// Wait up to `timeout` for every queued/running job to complete.
    /// Returns `true` when fully drained.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut s = self.inner.sched.lock().expect("sched lock");
        loop {
            if s.inflight == 0 {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) =
                self.inner.drained.wait_timeout(s, deadline - now).expect("sched lock");
            s = guard;
        }
    }

    /// Engine + trace-store statistics as a deterministic-order JSON
    /// value — the payload of the `Stats` request.
    pub fn stats_value(&self) -> Value {
        let c = &self.inner.counters;
        let (inflight, queued, cache_entries) = {
            let s = self.inner.sched.lock().expect("sched lock");
            (s.inflight, s.queued(), s.results.len())
        };
        let f = self.inner.store.footprint();
        let rec = obs::summary();
        let entry = |k: &str, v: u64| (k.to_string(), Value::U64(v));
        Value::Map(vec![
            entry("submitted", c.submitted.load(Ordering::Relaxed)),
            entry("completed", c.completed.load(Ordering::Relaxed)),
            entry("cache_hits", c.cache_hits.load(Ordering::Relaxed)),
            entry("coalesced", c.coalesced.load(Ordering::Relaxed)),
            entry("rejected_queue_full", c.rejected_full.load(Ordering::Relaxed)),
            entry("rejected_shutting_down", c.rejected_shutdown.load(Ordering::Relaxed)),
            entry("inflight", inflight as u64),
            entry("queued", queued as u64),
            entry("workers", self.workers.len() as u64),
            entry("result_cache_entries", cache_entries as u64),
            entry("trace_store_entries", f.entries as u64),
            entry("trace_store_resident_bytes", f.resident_bytes as u64),
            entry("trace_store_peak_bytes", f.peak_bytes as u64),
            entry("sim_events_total", obs::sim_events_total()),
            entry("obs_events_recorded", rec.recorded),
            entry("obs_events_dropped", rec.dropped),
        ])
    }

    /// Completed-job count (for tests and the bench's final report).
    pub fn completed(&self) -> u64 {
        self.inner.counters.completed.load(Ordering::Relaxed)
    }

    /// The Prometheus text exposition of the engine's RED metrics — the
    /// payload of the `Metrics` request and `mio stats --prom`.
    /// Wall-clock based; unlike [`Engine::stats_value`] this output is
    /// not deterministic and never feeds a result payload.
    pub fn prometheus_text(&self) -> String {
        let m = &self.inner.metrics;
        let c = &self.inner.counters;
        let submitted = c.submitted.load(Ordering::Relaxed);
        let ratio = |n: u64| if submitted == 0 { 0.0 } else { n as f64 / submitted as f64 };
        m.hit_ratio.set(ratio(c.cache_hits.load(Ordering::Relaxed)));
        m.coalesce_ratio.set(ratio(c.coalesced.load(Ordering::Relaxed)));
        {
            let s = self.inner.sched.lock().expect("sched lock");
            m.inflight.set(s.inflight as f64);
            m.queued.set(s.queued() as f64);
        }
        m.registry.render_prometheus()
    }

    /// Mean observed service time for this request's type, in
    /// microseconds — the server's progress heartbeats turn it into an
    /// ETA. `None` until at least one execution of the type finished.
    pub fn expected_service_us(&self, body: &RequestBody) -> Option<u64> {
        let (ty, _) = req_type(body);
        let h = &self.inner.metrics.service_time[ty];
        let n = h.count();
        (n > 0).then(|| h.sum_us() / n)
    }

    /// Hard stop after a drain timeout: stop the workers picking up new
    /// jobs and resolve every still-queued ticket with an error so no
    /// waiter hangs. Running jobs still finish and publish normally.
    pub fn abort_pending(&self) {
        self.begin_shutdown();
        {
            let mut s = self.inner.sched.lock().expect("sched lock");
            s.stopped = true;
            let abandoned: Vec<Arc<Job>> =
                s.clients.iter_mut().flat_map(|c| c.queue.drain(..)).collect();
            for job in abandoned {
                s.flights.remove(&job.key);
                s.inflight = s.inflight.saturating_sub(1);
                job.flight.complete(Err("engine stopped before running the job".into()));
            }
        }
        self.inner.work_ready.notify_all();
        self.inner.drained.notify_all();
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.abort_pending();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    serve_jobs(inner, execute);
}

/// Run queued jobs with `run` until the engine stops, serializing each
/// report once; its service time includes that serialization. A job
/// whose run panics completes its flight with an error for the submitter
/// and every coalesced waiter; nothing is cached, and the worker goes on
/// to the next job.
fn serve_jobs(inner: &Inner, run: impl Fn(&TraceStore, &RequestBody) -> Value) {
    loop {
        let job = {
            let mut s = inner.sched.lock().expect("sched lock");
            loop {
                if s.stopped {
                    return;
                }
                if let Some(job) = s.next_job(DRR_QUANTUM) {
                    break job;
                }
                s = inner.work_ready.wait(s).expect("sched lock");
            }
        };
        let (ty, _) = req_type(&job.body);
        let queue_wait = job.enqueued_at.elapsed();
        inner.metrics.queue_wait[ty].record_us(queue_wait.as_micros() as u64);
        let started = Instant::now();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            serde_json::to_string(&run(&inner.store, &job.body))
        }));
        let service = started.elapsed();
        let result: FlightResult = match outcome {
            Ok(Ok(json)) => {
                inner.metrics.service_time[ty].record_us(service.as_micros() as u64);
                Ok(Arc::from(json))
            }
            Ok(Err(e)) => Err(format!("serialize: {e}")),
            Err(payload) => Err(format!("the simulation panicked: {}", panic_message(&*payload))),
        };
        {
            let mut s = inner.sched.lock().expect("sched lock");
            s.flights.remove(&job.key);
            if let Ok(value) = &result {
                s.cache_insert(job.key, Arc::clone(value), inner.cfg.result_cache);
            }
            s.inflight -= 1;
        }
        if result.is_ok() {
            inner.counters.completed.fetch_add(1, Ordering::Relaxed);
            inner.metrics.completed.inc();
        }
        inner.drained.notify_all();
        *job.flight.timing.lock().expect("flight lock") =
            Some(FlightTiming { queue_wait, service });
        job.flight.complete(result);
    }
}

/// The message a panic was raised with, when it is a string.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
        (Some(msg), _) => msg,
        (_, Some(msg)) => msg,
        _ => "non-string panic payload",
    }
}

/// A fig8 point's cache capacity in bytes; `None` when `cache_mb` MB
/// does not fit in a `u64`.
fn fig8_capacity(s: &Fig8PointSpec) -> Option<u64> {
    s.cache_mb.checked_mul(MB)
}

/// A campaign's total process count; `None` on overflow.
fn campaign_procs(c: &CampaignPointSpec) -> Option<usize> {
    c.groups.checked_mul(c.procs)
}

/// DRR cost: the rough simulated size of a request, in figure-point
/// units.
fn cost_of(body: &RequestBody) -> u64 {
    match body {
        RequestBody::Fig8Point(_) => 1,
        RequestBody::Campaign(c) => {
            (campaign_procs(c).map_or(u64::MAX, |n| n as u64) / 64).max(1)
        }
        RequestBody::Stats | RequestBody::Metrics | RequestBody::Shutdown => 1,
    }
}

/// Reject a body that would panic the worker running it: the cache
/// geometry and campaign size must be representable and valid.
fn validate(body: &RequestBody) -> Result<(), SubmitError> {
    let bad = |msg: &str| Err(SubmitError::Invalid(msg.into()));
    match body {
        RequestBody::Fig8Point(s) => {
            if s.cache_mb == 0 || s.block == 0 {
                return bad("fig8 point sizes must be positive");
            }
            match fig8_capacity(s) {
                None => return bad("cache_mb is too large"),
                Some(capacity) if capacity < s.block => {
                    return bad("the cache must hold at least one block")
                }
                Some(_) => {}
            }
            if s.scale == 0 {
                return bad("scale must be >= 1");
            }
            Ok(())
        }
        RequestBody::Campaign(c) => {
            if c.groups == 0 || c.procs == 0 {
                return bad("campaign counts must be positive");
            }
            if campaign_procs(c).is_none() {
                return bad("groups * procs is too large");
            }
            if c.scale == 0 {
                return bad("scale must be >= 1");
            }
            Ok(())
        }
        RequestBody::Stats | RequestBody::Metrics | RequestBody::Shutdown => {
            bad("stats/metrics/shutdown are control requests, not pool work")
        }
    }
}

/// Run one request body to its report, serialized to the data model
/// (the engine stores it as compact JSON).
/// This is the same code path `mio sim` uses, against the engine's warm
/// store — which is exactly why responses are byte-identical to
/// one-shot runs. Served runs never sample a gauge timeline.
///
/// Panics on a body [`Engine::submit`] rejects as invalid; the engine
/// only ever runs validated bodies.
pub fn execute(store: &TraceStore, body: &RequestBody) -> Value {
    match body {
        RequestBody::Fig8Point(s) => two_venus_report(
            store,
            None,
            fig8_capacity(s).expect("cache_mb * MB overflows u64"),
            s.block,
            true,
            WritePolicy::WriteBehind,
            Scale(s.scale),
            s.seed,
        )
        .to_value(),
        RequestBody::Campaign(c) => {
            let mut spec = CampaignSpec::datacenter(c.groups, c.procs);
            spec.scale = Scale(c.scale);
            spec.seed = c.seed;
            run_campaign_in(store, &spec, c.shards.max(1)).to_value()
        }
        RequestBody::Stats | RequestBody::Metrics | RequestBody::Shutdown => {
            unreachable!("control requests never reach the pool")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{CampaignPointSpec, Fig8PointSpec};

    fn point(cache_mb: u64) -> RequestBody {
        RequestBody::Fig8Point(Fig8PointSpec { cache_mb, block: 4096, scale: 64, seed: 42 })
    }

    fn quick_engine(workers: usize, max_inflight: usize) -> Engine {
        Engine::new(EngineConfig {
            workers,
            max_inflight,
            result_cache: 8,
            store: StoreConfig::default(),
        })
    }

    #[test]
    fn duplicate_requests_hit_the_cache() {
        let engine = quick_engine(2, 16);
        let first = engine.submit("a", &point(8)).expect("admitted");
        assert!(!first.cached);
        let v1 = first.wait().expect("completes");
        let second = engine.submit("b", &point(8)).expect("admitted");
        assert!(second.cached, "repeat of a completed key is a cache hit");
        let v2 = second.try_result().expect("a cache hit is resolved on submit").expect("ok");
        assert!(Arc::ptr_eq(&v1, &v2), "cache returns the same shared bytes");
        assert_eq!(engine.completed(), 1, "one execution served both");
    }

    #[test]
    fn concurrent_duplicates_coalesce_to_one_execution() {
        let engine = quick_engine(0, 16); // no workers: jobs stay queued
        let a = engine.submit("a", &point(16)).expect("admitted");
        let b = engine.submit("b", &point(16)).expect("admitted");
        assert!(!a.cached);
        assert!(b.cached, "identical in-flight request coalesces");
        assert!(a.try_result().is_none() && b.try_result().is_none(), "nothing ran yet");
        let s = engine.inner.sched.lock().expect("lock");
        assert_eq!(s.inflight, 1, "one job despite two submissions");
        assert_eq!(s.queued(), 1);
    }

    #[test]
    fn admission_control_bounces_overload() {
        let engine = quick_engine(0, 2);
        engine.submit("a", &point(4)).expect("admitted");
        engine.submit("a", &point(8)).expect("admitted");
        let err = engine.submit("a", &point(16)).expect_err("full");
        assert_eq!(err, SubmitError::QueueFull);
        // Duplicates of admitted work still coalesce while full.
        assert!(engine.submit("b", &point(4)).expect("coalesced").cached);
        let s = engine.inner.sched.lock().expect("lock");
        assert_eq!(s.inflight, 2, "the queue never grew past max_inflight");
    }

    #[test]
    fn shutdown_refuses_new_work_and_drains() {
        let engine = quick_engine(1, 16);
        let t = engine.submit("a", &point(32)).expect("admitted");
        engine.begin_shutdown();
        let err = engine.submit("a", &point(64)).expect_err("refused");
        assert_eq!(err, SubmitError::ShuttingDown);
        assert!(engine.drain(Duration::from_secs(60)), "in-flight work drains");
        t.wait().expect("the admitted job completed");
    }

    #[test]
    fn drr_serves_cheap_clients_past_an_expensive_flood() {
        let engine = quick_engine(0, 64);
        // Client a floods with campaign-sized jobs (cost 64*16/64 = 16,
        // more than one quantum); client b sends one cheap point after.
        for seed in [1u64, 2] {
            let mut c = CampaignPointSpec::datacenter(64, 16, 1);
            c.seed = seed;
            engine.submit("a", &RequestBody::Campaign(c)).expect("admitted");
        }
        let b_body = point(64);
        engine.submit("b", &b_body).expect("admitted");
        let mut s = engine.inner.sched.lock().expect("lock");
        let first = s.next_job(DRR_QUANTUM).expect("work queued");
        // b's single cheap request accumulates credit faster than a's
        // expensive head-of-line job, so it is served first even though
        // it was submitted last — no starvation behind the flood.
        assert_eq!(first.key, canonical_hash(&b_body), "cheap client served first");
    }

    #[test]
    fn invalid_bodies_are_rejected_up_front() {
        let engine = quick_engine(0, 4);
        let zero = RequestBody::Fig8Point(Fig8PointSpec { cache_mb: 0, block: 4096, scale: 8, seed: 1 });
        assert!(matches!(engine.submit("a", &zero), Err(SubmitError::Invalid(_))));
        let zero_campaign = RequestBody::Campaign(CampaignPointSpec::datacenter(0, 4, 1));
        assert!(matches!(engine.submit("a", &zero_campaign), Err(SubmitError::Invalid(_))));
        assert!(matches!(engine.submit("a", &RequestBody::Stats), Err(SubmitError::Invalid(_))));
    }

    #[test]
    fn oversized_requests_are_rejected_and_the_engine_keeps_serving() {
        let engine = quick_engine(1, 4);
        let fig8 = |cache_mb, block| {
            RequestBody::Fig8Point(Fig8PointSpec { cache_mb, block, scale: 64, seed: 42 })
        };
        let mut huge_campaign = CampaignPointSpec::datacenter(usize::MAX, 2, 1);
        huge_campaign.scale = 64;
        for bad in [
            fig8(u64::MAX, 4096),         // cache_mb * MB overflows
            fig8(u64::MAX / MB + 1, 4096), // the first size that does
            fig8(1, 2 * MB),               // smaller than one block
            RequestBody::Campaign(huge_campaign),
        ] {
            // The server answers every `Err` with an `error` line.
            match engine.submit("a", &bad) {
                Err(SubmitError::Invalid(_)) => {}
                other => panic!("{bad:?} must be rejected as invalid, got {other:?}"),
            }
        }
        // The largest representable cache is still a valid request.
        assert!(validate(&fig8(u64::MAX / MB, 4096)).is_ok());
        // The worker is alive and answers a valid point exactly like a
        // one-shot run.
        let good = fig8(8, 4096);
        let served = engine
            .submit("a", &good)
            .expect("admitted")
            .wait_timeout(Duration::from_secs(120))
            .expect("answered")
            .expect("computed");
        let fresh = execute(&TraceStore::new(), &good);
        assert_eq!(&*served, serde_json::to_string(&fresh).expect("print"));
    }

    #[test]
    fn a_huge_cache_is_served_without_reserving_memory_for_it() {
        // A cache's memory follows the blocks its trace touches, not the
        // configured capacity: the largest accepted capacity runs like
        // any other point and the worker answers the next request.
        let engine = quick_engine(1, 4);
        let fig8 = |cache_mb| {
            RequestBody::Fig8Point(Fig8PointSpec { cache_mb, block: 4096, scale: 64, seed: 42 })
        };
        for body in [fig8(u64::MAX / MB), fig8(10_000_000), fig8(8)] {
            let served = engine
                .submit("a", &body)
                .expect("admitted")
                .wait_timeout(Duration::from_secs(120))
                .expect("answered");
            assert!(served.is_ok(), "{body:?}: {served:?}");
        }
        assert_eq!(engine.completed(), 3);
    }

    #[test]
    fn a_panicking_job_fails_its_waiters_and_the_worker_keeps_serving() {
        // No pool workers: both submissions queue before the worker below
        // starts, so the duplicate coalesces onto the first.
        let engine = quick_engine(0, 4);
        let fig8 = |seed| {
            RequestBody::Fig8Point(Fig8PointSpec { cache_mb: 8, block: 4096, scale: 64, seed })
        };
        let bad = fig8(7);
        let first = engine.submit("a", &bad).expect("admitted");
        let dup = engine.submit("b", &bad).expect("admitted");
        assert!(dup.coalesced, "the duplicate shares the first's flight");
        let inner = Arc::clone(&engine.inner);
        let worker = std::thread::spawn(move || {
            serve_jobs(&inner, |store, body| match body {
                RequestBody::Fig8Point(s) if s.seed == 7 => panic!("injected failure"),
                _ => execute(store, body),
            })
        });
        let failed = |t: &Ticket| {
            let err = t
                .wait_timeout(Duration::from_secs(120))
                .expect("answered")
                .expect_err("a panicked job is an error");
            assert!(err.contains("injected failure"), "{err}");
        };
        failed(&first);
        failed(&dup);
        assert!(engine.drain(Duration::from_secs(5)), "the failed job is no longer in flight");
        {
            let s = engine.inner.sched.lock().expect("sched lock");
            assert!(s.flights.is_empty() && s.results.is_empty(), "nothing cached");
        }
        assert_eq!(engine.completed(), 0);
        // A failure is not cached: the same body runs (and fails) again.
        let again = engine.submit("c", &bad).expect("admitted");
        assert!(!again.cached);
        failed(&again);
        // The same worker answers a valid point exactly like a one-shot run.
        let good = fig8(42);
        let served = engine
            .submit("a", &good)
            .expect("admitted")
            .wait_timeout(Duration::from_secs(120))
            .expect("answered")
            .expect("computed");
        let fresh = execute(&TraceStore::new(), &good);
        assert_eq!(&*served, serde_json::to_string(&fresh).expect("print"));
        drop(engine);
        worker.join().expect("the worker outlives the panic and stops with the engine");
    }

    #[test]
    fn prometheus_exposition_round_trips_for_a_known_sequence() {
        use obs::metrics::parse_exposition;
        let engine = quick_engine(2, 16);
        // Known sequence: two distinct fig8 points computed, one repeat
        // (cache hit), one refused as invalid.
        engine.submit("alice", &point(8)).expect("admitted").wait().expect("runs");
        engine.submit("bob", &point(16)).expect("admitted").wait().expect("runs");
        let hit = engine.submit("alice", &point(8)).expect("cache hit");
        assert!(hit.cached && !hit.coalesced);
        assert!(hit.timing().is_none(), "a cache hit ran nothing");
        let zero = RequestBody::Fig8Point(Fig8PointSpec { cache_mb: 0, block: 4096, scale: 8, seed: 1 });
        assert!(engine.submit("bob", &zero).is_err());

        let text = engine.prometheus_text();
        let samples = parse_exposition(&text).expect("valid Prometheus text");
        let get = |name: &str, label: Option<(&str, &str)>| -> f64 {
            samples
                .iter()
                .find(|s| {
                    s.name == name
                        && label
                            .map(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
                            .unwrap_or(true)
                })
                .unwrap_or_else(|| panic!("sample {name} {label:?} in:\n{text}"))
                .value
        };
        assert_eq!(get("serve_requests_total", Some(("client", "alice"))), 2.0);
        assert_eq!(get("serve_requests_total", Some(("client", "bob"))), 1.0);
        assert_eq!(get("serve_errors_total", Some(("client", "bob"))), 1.0);
        assert_eq!(get("serve_result_cache_hits_total", None), 1.0);
        assert_eq!(get("serve_completed_total", None), 2.0);
        assert_eq!(get("serve_inflight_jobs", None), 0.0);
        assert!((get("serve_result_cache_hit_ratio", None) - 1.0 / 3.0).abs() < 1e-9);

        // Histograms: two executions recorded per type bucket family,
        // cumulative buckets end at +Inf == _count, and the quantile
        // gauges exist in seconds.
        for family in ["serve_queue_wait_seconds", "serve_service_time_seconds"] {
            let count = get(&format!("{family}_count"), Some(("type", "fig8_point")));
            assert_eq!(count, 2.0, "{family} counted both executions");
            let inf = samples
                .iter()
                .find(|s| {
                    s.name == format!("{family}_bucket")
                        && s.labels.iter().any(|(k, v)| k == "le" && v == "+Inf")
                        && s.labels.iter().any(|(k, v)| k == "type" && v == "fig8_point")
                })
                .expect("+Inf bucket");
            assert_eq!(inf.value, count, "+Inf bucket equals _count");
            let buckets: Vec<f64> = samples
                .iter()
                .filter(|s| {
                    s.name == format!("{family}_bucket")
                        && s.labels.iter().any(|(k, v)| k == "type" && v == "fig8_point")
                })
                .map(|s| s.value)
                .collect();
            assert!(buckets.windows(2).all(|w| w[1] >= w[0]), "cumulative: {buckets:?}");
            assert!(get(&format!("{family}_p99"), Some(("type", "fig8_point"))) >= 0.0);
        }
        // The campaign family exists but is empty so far.
        assert_eq!(get("serve_service_time_seconds_count", Some(("type", "campaign"))), 0.0);
        assert!(engine.expected_service_us(&point(8)).expect("history") > 0);
        assert!(engine
            .expected_service_us(&RequestBody::Campaign(CampaignPointSpec::datacenter(4, 4, 1)))
            .is_none());
    }

    #[test]
    fn coalesced_tickets_share_the_flight_timing() {
        let engine = quick_engine(0, 16); // no workers yet: stays queued
        let a = engine.submit("a", &point(12)).expect("admitted");
        let b = engine.submit("b", &point(12)).expect("coalesced");
        assert!(b.coalesced && b.cached && !a.coalesced);
        assert!(a.timing().is_none(), "not run yet");
        drop(engine);
        assert!(a.wait().is_err());
        assert!(b.timing().is_none(), "abandoned jobs never ran");
    }

    #[test]
    fn dropping_the_engine_resolves_abandoned_tickets() {
        let engine = quick_engine(0, 16);
        let t = engine.submit("a", &point(128)).expect("admitted");
        drop(engine);
        assert!(t.wait().is_err(), "abandoned job resolves to an error, not a hang");
    }
}
