//! `serve_mixed`: a closed-loop request mix against the serving daemon.
//!
//! The benchmark starts `serve::serve` in a child process (as
//! `mio serve --socket PATH --workers 2 --cache-cap 64` does) and drives
//! it in a closed loop from one client connection, which sends its next
//! request only after the previous one's `done` line is parsed. No two
//! requests are ever in flight together, so this workload measures the
//! socket server, the protocol, canonical hashing, the hand-off to a
//! worker and the result cache, one request at a time; it exercises
//! neither queueing behind busy workers nor coalescing of concurrent
//! duplicates. With two connections the cache-hit round trip competed
//! with both workers and both clients for the host's two vCPUs and its
//! median moved by a fifth from run to run; with one it moves by a
//! twentieth. The mix was chosen to repeat, not taken from a measured
//! serving workload.
//!
//! The stream is a sequence of epochs; each holds the 14 Figure 8 grid
//! points at scale 16 for two request seeds and two `datacenter(2, 8)`
//! campaign points at scale 512 on one shard (see `campaign` for why
//! one), every distinct request three times, shuffled. Two thirds of the
//! requests are therefore repeats, answered from the result cache.
//! Every epoch lists its requests in the same order, so the `j`-th
//! request of each epoch is a repetition of the same request shape; its
//! time is the fastest over epochs. Request seeds cycle through a pool of
//! eight per kind: the daemon's trace store stops growing after a few
//! epochs, and a request recurring four epochs later has left the
//! 64-entry result cache, so every epoch costs the same.

use super::campaign::{CampaignShape, SHARDS};
use super::fig8::{fig8_jobs, fig8_point, FIG8_SIZES_MB};
use super::{mix, trace_keys, RunOptions, Sample, Setup, Steps, Window};
use crate::check::{fnv1a, Checker};
use crate::metrics::{RunReport, Values, END_TO_END, PER_LAYER};
use crate::spans::{SpanId, SpanLog};
use experiments::modern::DeviceEra;
use experiments::{Scale, TraceStore};
use serde::Value;
use serve::{CampaignPointSpec, Fig8PointSpec, Request, RequestBody, Response};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Copies of each distinct request in an epoch.
pub const DUP: usize = 3;

/// Worker threads of the daemon.
pub const WORKERS: usize = 2;

/// Result-cache capacity of the daemon, entries.
pub const CACHE_CAP: usize = 64;

/// The request mix.
#[derive(Debug, Clone)]
pub struct ServeMix {
    /// Scale of the Figure 8 point requests.
    pub fig8_scale: u32,
    /// Cache block sizes of the point requests.
    pub blocks: Vec<u64>,
    /// Cache sizes of the point requests, MB.
    pub sizes_mb: Vec<u64>,
    /// Request seeds per epoch for the point grid.
    pub fig8_seeds_per_epoch: usize,
    /// The campaign requests' shape.
    pub campaign: CampaignShape,
    /// Campaign requests per epoch.
    pub campaigns_per_epoch: usize,
    /// Request seeds cycled through, per request kind.
    pub seed_pool: usize,
    /// Distinct requests run one-shot in set-up, whose served bytes must
    /// match.
    pub reference_checks: usize,
}

impl ServeMix {
    /// The benchmark's mix.
    pub fn benchmark() -> ServeMix {
        ServeMix {
            fig8_scale: 16,
            blocks: vec![4096, 8192],
            sizes_mb: FIG8_SIZES_MB.to_vec(),
            fig8_seeds_per_epoch: 2,
            campaign: CampaignShape {
                groups: 2,
                procs: 8,
                scale: Scale(512),
                shared_file_every: 16,
                mem_budget: 0,
                seeds: 1,
            },
            campaigns_per_epoch: 2,
            seed_pool: 8,
            reference_checks: 32,
        }
    }

    /// Distinct requests in one epoch.
    pub fn distinct_per_epoch(&self) -> usize {
        self.fig8_seeds_per_epoch * self.blocks.len() * self.sizes_mb.len()
            + self.campaigns_per_epoch
    }

    /// Requests in one epoch.
    pub fn epoch_len(&self) -> usize {
        self.distinct_per_epoch() * DUP
    }

    /// The distinct requests of `epoch` for run seed `seed`.
    pub fn serve_request_pool(&self, seed: u64, epoch: usize) -> Vec<RequestBody> {
        let mut pool = Vec::with_capacity(self.distinct_per_epoch());
        for k in 0..self.fig8_seeds_per_epoch {
            let s = request_seed(
                seed,
                0,
                (epoch * self.fig8_seeds_per_epoch + k) % self.seed_pool,
            );
            for (cache_mb, block) in fig8_jobs(&self.blocks, &self.sizes_mb) {
                pool.push(RequestBody::Fig8Point(Fig8PointSpec {
                    cache_mb,
                    block,
                    scale: self.fig8_scale,
                    seed: s,
                }));
            }
        }
        for k in 0..self.campaigns_per_epoch {
            let s = request_seed(
                seed,
                1,
                (epoch * self.campaigns_per_epoch + k) % self.seed_pool,
            );
            let c = &self.campaign;
            let mut spec = CampaignPointSpec::datacenter(c.groups, c.procs, SHARDS);
            spec.scale = c.scale.0;
            spec.seed = s;
            pool.push(RequestBody::Campaign(spec));
        }
        pool
    }

    /// Request `i` of the stream for run seed `seed`.
    /// Every epoch uses the same order, so the `j`-th request of each
    /// epoch has the same shape and repeats the same earlier slot.
    pub fn request_at(&self, seed: u64, i: usize) -> RequestBody {
        let pool = self.serve_request_pool(seed, i / self.epoch_len());
        let order = shuffled_stream(pool.len(), DUP, mix(seed));
        pool[order[i % self.epoch_len()]].clone()
    }

    /// A seeded sample of `reference_checks` distinct requests (fewer if
    /// the stream has fewer) from the fewest leading epochs that hold that
    /// many: the requests whose served bytes are compared with a one-shot
    /// run on a fresh store.
    pub fn reference_sample(&self, seed: u64) -> Vec<RequestBody> {
        let epochs = self
            .reference_checks
            .div_ceil(self.distinct_per_epoch().max(1));
        let mut candidates: Vec<RequestBody> = Vec::new();
        for body in (0..epochs).flat_map(|e| self.serve_request_pool(seed, e)) {
            if !candidates.contains(&body) {
                candidates.push(body);
            }
        }
        shuffled_stream(candidates.len(), 1, mix(seed ^ 0x5eed))
            .into_iter()
            .take(self.reference_checks)
            .map(|i| candidates[i].clone())
            .collect()
    }
}

/// Request seed `i` of the pool for run seed `seed`, in lane 0 (points)
/// or 1 (campaigns). Seeds step by 2 because a point's second venus
/// process replays `seed + 1`; they stay below 2^32.
pub(crate) fn request_seed(seed: u64, lane: u64, i: usize) -> u64 {
    assert!(i < 128, "request seed pools hold at most 128 seeds");
    ((mix(seed ^ mix(lane)) >> 40) << 8) + 2 * i as u64
}

/// `dup` copies of every index below `pool_len`, shuffled by a
/// xorshift Fisher-Yates seeded with `seed`, so duplicates arrive
/// interleaved rather than back to back.
pub fn shuffled_stream(pool_len: usize, dup: usize, seed: u64) -> Vec<usize> {
    let mut stream: Vec<usize> = (0..pool_len)
        .flat_map(|i| std::iter::repeat_n(i, dup))
        .collect();
    let mut x = seed | 1;
    for i in (1..stream.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        stream.swap(i, (x % (i as u64 + 1)) as usize);
    }
    stream
}

/// The daemon child process; killed on drop if still running.
#[derive(Debug)]
pub(crate) struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Start `exe serve-daemon --socket SOCKET` with its stderr appended
    /// to `log`, and wait until the socket accepts.
    pub fn start(exe: &Path, socket: &Path, log: &Path) -> Result<Daemon, String> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("daemon log {}: {e}", log.display()))?;
        let child = Command::new(exe)
            .arg("serve-daemon")
            .arg("--socket")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("start daemon {}: {e}", exe.display()))?;
        let mut daemon = Daemon {
            child,
            socket: socket.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if UnixStream::connect(socket).is_ok() {
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited before listening: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon did not listen within 20 s".into());
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    /// Ask the daemon to drain and exit, and wait for it.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut client = Client::connect(&self.socket)?;
        client.call(
            &Request {
                id: 0,
                client: None,
                body: RequestBody::Shutdown,
            },
            &SpanLog::new(false),
            SpanId::NONE,
        )?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("daemon did not exit within 30 s of shutdown".into()),
                Err(e) => return Err(format!("wait for daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One client connection speaking the daemon's JSON-lines protocol.
#[derive(Debug)]
pub(crate) struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

/// A request's terminal response and how long the client waited for it.
#[derive(Debug)]
pub(crate) struct Reply {
    /// The `done` or `error` line.
    pub response: Response,
    /// Request line written to terminal line parsed.
    pub total: Duration,
}

impl Client {
    /// Connect to the daemon at `socket`.
    pub fn connect(socket: &Path) -> Result<Client, String> {
        let stream = UnixStream::connect(socket)
            .map_err(|e| format!("connect {}: {e}", socket.display()))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        })
    }

    /// Send `req` and read its lines until the terminal one, in spans
    /// `accept` (until `accepted`), `wait` (until the terminal line) and
    /// `parse` (each line parsed).
    pub fn call(
        &mut self,
        req: &Request,
        spans: &SpanLog,
        parent: SpanId,
    ) -> Result<Reply, String> {
        let mut text = serde_json::to_string(req).map_err(|e| format!("serialize request: {e}"))?;
        text.push('\n');
        let t0 = Instant::now();
        let mut phase = spans.open("accept", parent, req.id);
        self.writer
            .write_all(text.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        loop {
            self.line.clear();
            let n = self
                .reader
                .read_line(&mut self.line)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("daemon closed the connection".into());
            }
            let parse = spans.open("parse", parent, req.id);
            let response: Response = serde_json::from_str(self.line.trim())
                .map_err(|e| format!("parse response: {e}"))?;
            spans.close(parse);
            if response.id != req.id {
                continue;
            }
            match response.event.as_str() {
                "accepted" => {
                    spans.close(phase);
                    phase = spans.open("wait", parent, req.id);
                }
                "progress" => {}
                _ => {
                    spans.close(phase);
                    return Ok(Reply {
                        response,
                        total: t0.elapsed(),
                    });
                }
            }
        }
    }
}

/// One request of the window as the client saw it.
#[derive(Debug)]
struct Record {
    index: usize,
    body: RequestBody,
    outcome: Result<Served, String>,
}

/// A successfully answered request.
#[derive(Debug)]
struct Served {
    latency: Duration,
    digest: u64,
    ios: u64,
    /// Epochs and remote operations, for campaign results.
    epochs: u64,
    remote_ops: u64,
}

fn u64_at(v: &Value, key: &str) -> u64 {
    match v.get(key) {
        Some(Value::U64(n)) => *n,
        _ => 0,
    }
}

/// Simulated I/Os a report value stands for: a campaign's
/// `ios_issued`, or the sum over a point report's processes.
fn report_ios(v: &Value) -> u64 {
    match v.get("processes").and_then(Value::as_seq) {
        Some(procs) => procs.iter().map(|p| u64_at(p, "ios_issued")).sum(),
        None => u64_at(v, "ios_issued"),
    }
}

fn served(reply: Reply) -> Result<Served, String> {
    let r = reply.response;
    match (r.event.as_str(), r.result) {
        ("done", Some(result)) => {
            let json =
                serde_json::to_string(&result).map_err(|e| format!("re-serialize result: {e}"))?;
            Ok(Served {
                latency: reply.total,
                digest: fnv1a(json.as_bytes()),
                ios: report_ios(&result),
                epochs: u64_at(&result, "epochs"),
                remote_ops: u64_at(&result, "remote_ops"),
            })
        }
        (event, _) => Err(format!("{event}: {}", r.error.unwrap_or_default())),
    }
}

fn key_of(body: &RequestBody) -> String {
    serde_json::to_string(body).expect("request serializes")
}

/// Run `serve_mixed`. First run the [`ServeMix::reference_sample`]
/// one-shot with `serve::engine::execute`, each on a fresh store; the
/// reference digests are each request's first repetition, so every
/// served answer is compared with them. The timed set-up starts a daemon
/// until its socket accepts. The first set-up's daemon serves the window,
/// epoch by epoch; the later set-ups, spread across the window by
/// [`Setup`], run between epochs and kill their daemons again. After
/// the window, ask the daemon for any reference request the window did
/// not reach, read its counters, and shut it down.
pub fn run(mix: &ServeMix, opts: &RunOptions) -> RunReport {
    const NAME: &str = "serve_mixed";
    let spans = &opts.spans;
    let socket = opts.run_dir.join("serve.sock");
    let log = opts.run_dir.join("serve.log");
    let mut checker = Checker::new(NAME, opts.seed, &opts.golden);
    let references = mix.reference_sample(opts.seed);
    // The client and the daemons it starts share one CPU. Each request
    // then hands over between them on that CPU instead of waking the
    // other one, whose wake-up latency on a shared host drifts by a
    // quarter over minutes and would set the cache-hit round trip.
    if let Err(e) = crate::host::pin_to_one_cpu() {
        eprintln!("perfbench: {NAME} runs unpinned: {e}");
    }

    for (n, body) in references.iter().enumerate() {
        let reference = spans.scope("reference", SpanId::NONE, n as u64, |_| {
            serde_json::to_string(&serve::engine::execute(&TraceStore::new(), body))
                .expect("report serializes")
        });
        checker.check(&key_of(body), fnv1a(reference.as_bytes()), Ok(()));
    }
    let mut setup = Setup::new(|rep, steps: &mut Steps, _: &mut Checker, _| {
        let again = opts.run_dir.join("setup.sock");
        steps.time(|| {
            Daemon::start(
                &opts.daemon_exe,
                if rep == 0 { &socket } else { &again },
                &log,
            )
        })
    });
    let started = setup
        .rep(spans, &mut checker)
        .and_then(|daemon| Ok((Client::connect(&socket)?, daemon)));
    let (mut client, daemon) = match started {
        Ok(started) => started,
        Err(e) => {
            checker.record("daemon", Some(e));
            return RunReport {
                attempted: checker.attempted,
                failed: checker.failed,
                catalog: END_TO_END,
                values: Values::default(),
            };
        }
    };
    // One unit per epoch; sample `j` is the epoch's `j`-th request.
    let len = mix.epoch_len();
    let mut window = Window::default();
    let mut records = Vec::new();
    let mut answered = HashSet::new();
    let t0 = Instant::now();
    'window: while window.units.is_empty() || t0.elapsed().as_secs_f64() < opts.seconds {
        if setup.due(t0.elapsed().as_secs_f64(), opts.seconds) {
            stop(setup.rep(spans, &mut checker), &mut checker);
        }
        let mut unit = Vec::with_capacity(len);
        for j in 0..len {
            let kernel_s = window.kernel.run();
            let index = window.units.len() * len + j;
            let req = Request {
                id: index as u64,
                client: Some("client0".into()),
                body: mix.request_at(opts.seed, index),
            };
            let span = spans.open("request", SpanId::NONE, req.id);
            let outcome = client.call(&req, spans, span).and_then(served);
            spans.close(span);
            let key = key_of(&req.body);
            let failed = match &outcome {
                Ok(s) => {
                    let invariant = if s.ios == 0 {
                        Err("result reports no simulated I/O".into())
                    } else {
                        Ok(())
                    };
                    checker.check(&key, s.digest, invariant);
                    unit.push(Sample {
                        latency_s: s.latency.as_secs_f64(),
                        ios: s.ios,
                        kernel_s,
                    });
                    answered.insert(key);
                    false
                }
                Err(e) => {
                    checker.record(&key, Some(e.clone()));
                    true
                }
            };
            records.push(Record {
                index,
                body: req.body,
                outcome,
            });
            if failed {
                break 'window;
            }
        }
        window.units.push(unit);
    }
    while setup.due(f64::INFINITY, opts.seconds) {
        stop(setup.rep(spans, &mut checker), &mut checker);
    }

    // Reference requests the window did not reach, served now.
    for body in references.iter().filter(|b| !answered.contains(&key_of(b))) {
        match daemon_reply(&socket, body.clone()) {
            Ok(result) => {
                let json = serde_json::to_string(&result).expect("result serializes");
                checker.check(&key_of(body), fnv1a(json.as_bytes()), Ok(()));
            }
            Err(e) => {
                checker.record(&key_of(body), Some(e));
            }
        }
    }
    let stats = daemon_reply(&socket, RequestBody::Stats);
    if let Err(e) = &stats {
        checker.record("stats", Some(e.clone()));
    }
    drop(client);
    if let Err(e) = daemon.shutdown() {
        checker.record("daemon", Some(e));
    }
    let log = std::fs::read_to_string(&log).unwrap_or_default();
    if !opts.traced() {
        let peak_heap = log
            .lines()
            .rev()
            .find_map(|l| l.strip_prefix(DAEMON_PEAK_HEAP))
            .and_then(|v| v.trim().parse().ok());
        let values = window.end_to_end(&setup, peak_heap);
        return RunReport {
            attempted: checker.attempted,
            failed: checker.failed,
            catalog: END_TO_END,
            values,
        };
    }
    let mut values = serve_layers(mix, opts, &records, &stats, &log);
    values.extend(window.traced());
    RunReport {
        attempted: checker.attempted,
        failed: checker.failed,
        catalog: PER_LAYER,
        values,
    }
}

/// Stop the daemon a later set-up repetition started. Only its start is
/// timed, so it is killed (on drop) rather than drained: a drain waits
/// out the daemon's 50 ms accept poll, which over [`super::SETUP_REPS`] daemons
/// would add seconds to the run.
fn stop(started: Result<Daemon, String>, checker: &mut Checker) {
    if let Err(e) = started {
        checker.record("daemon", Some(e));
    }
}

/// The line the daemon child prints to stderr as it exits, followed by
/// its heap high-water mark in bytes.
pub const DAEMON_PEAK_HEAP: &str = "perfbench serve-daemon: peak_heap_bytes=";

/// One control request's `done` payload.
fn daemon_reply(socket: &Path, body: RequestBody) -> Result<Value, String> {
    let reply = Client::connect(socket)?.call(
        &Request {
            id: 0,
            client: None,
            body,
        },
        &SpanLog::new(false),
        SpanId::NONE,
    )?;
    reply.response.result.ok_or_else(|| {
        format!(
            "{}: {}",
            reply.response.event,
            reply.response.error.unwrap_or_default()
        )
    })
}

/// The per-layer metrics of a traced serve run: the daemon's counters,
/// the split of computed requests' client latency read from the daemon's
/// completion log, the campaign results' sharded counts, and the
/// single-node and trace layers of the mix's first point grid and
/// campaign roster, run in-process.
fn serve_layers(
    mix: &ServeMix,
    opts: &RunOptions,
    records: &[Record],
    stats: &Result<Value, String>,
    log: &str,
) -> Values {
    let mut v = Values::default();
    let stat = |k: &str| stats.as_ref().map_or(0, |s| u64_at(s, k));
    let submitted = stat("submitted").max(1) as f64;
    v.set(
        "serve.cache_hit_ratio",
        stat("cache_hits") as f64 / submitted,
    );
    v.set(
        "serve.executions_per_req",
        stat("completed") as f64 / submitted,
    );
    v.set(
        "trace_store.peak_mb",
        stat("trace_store_peak_bytes") as f64 / (1024.0 * 1024.0),
    );

    let latency: HashMap<u64, f64> = records
        .iter()
        .filter_map(|r| {
            r.outcome
                .as_ref()
                .ok()
                .map(|s| (r.index as u64, s.latency.as_secs_f64() * 1e6))
        })
        .collect();
    let (mut total, mut queue, mut service) = (0.0, 0.0, 0.0);
    for line in log.lines().filter(|l| l.contains("disposition=computed")) {
        let field = |k: &str| {
            line.split_whitespace()
                .find_map(|w| w.strip_prefix(k))
                .and_then(|x| x.parse::<f64>().ok())
        };
        if let (Some(id), Some(q), Some(s)) =
            (field("id="), field("queue_wait_us="), field("service_us="))
        {
            if let Some(&l) = latency.get(&(id as u64)) {
                total += l;
                queue += q;
                service += s;
            }
        }
    }
    let total = if total > 0.0 { total } else { 1.0 };
    v.set("serve.queue_wait_share", queue / total);
    v.set(
        "serve.protocol_share",
        (total - queue - service).max(0.0) / total,
    );

    let mut campaigns: HashMap<String, (u64, u64, u64)> = HashMap::new();
    for r in records {
        if let (RequestBody::Campaign(_), Ok(s)) = (&r.body, &r.outcome) {
            campaigns
                .entry(key_of(&r.body))
                .or_insert((s.epochs, s.remote_ops, s.ios));
        }
    }
    let (epochs, remote, ios) = campaigns
        .values()
        .fold((0, 0, 0), |a, &(e, r, i)| (a.0 + e, a.1 + r, a.2 + i));
    v.set(
        "sharded.epochs_per_mio",
        epochs as f64 * 1e6 / ios.max(1) as f64,
    );
    v.set(
        "sharded.remote_ops_per_kio",
        remote as f64 * 1e3 / ios.max(1) as f64,
    );

    let seed = request_seed(opts.seed, 0, 0);
    let points: Vec<_> = fig8_jobs(&mix.blocks, &mix.sizes_mb)
        .into_iter()
        .map(|(mb, block)| fig8_point(DeviceEra::Era1991, mb, block, Scale(mix.fig8_scale), seed))
        .collect();
    let store = TraceStore::new();
    let mut keys = trace_keys(&points);
    keys.extend(trace_keys(&[mix
        .campaign
        .group_point(request_seed(opts.seed, 1, 0))]));
    v.extend(crate::layers::single_node(&points, &store, &opts.spans));
    v.extend(crate::layers::traces(&keys, &opts.run_dir, &opts.spans));
    v.extend(crate::layers::obs_overhead(&points, &store, &opts.spans, 3));
    v
}
