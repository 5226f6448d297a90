//! The `mio serve` daemon: JSON lines over a Unix or TCP socket, backed
//! by the [`Engine`], plus the matching `mio submit` client helper.
//!
//! Each connection may pipeline requests; every request is answered by
//! an `accepted` line, `progress` heartbeats while it waits or runs,
//! and one terminal `done`/`error` line (correlated by `id`).
//!
//! A request whose ticket is resolved when it is submitted — a result
//! cache hit, or a flight that finished meanwhile — is answered on the
//! connection thread: its `accepted` and `done` lines go out in one
//! write, the `done` line spliced from the stored result bytes. Only a
//! pending ticket gets a waiter thread, which sends the heartbeats.
//!
//! Shutdown is graceful: SIGINT, SIGTERM, or a [`RequestBody::Shutdown`]
//! request stops the accept loop, refuses new submissions with a clean
//! JSON error, drains in-flight work bounded by `--drain-timeout`, and
//! only then exits (the `mio` binary flushes the flight recorder after
//! [`serve`] returns).

use crate::engine::{Engine, EngineConfig, Ticket};
use crate::protocol::{write_done_line, Request, RequestBody, Response};
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Where the daemon listens (and the client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket path (`--socket PATH`).
    Unix(PathBuf),
    /// A TCP listen/connect address like `127.0.0.1:7070` (`--tcp ADDR`).
    Tcp(String),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// `mio serve` configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    pub endpoint: Endpoint,
    pub engine: EngineConfig,
    /// How long shutdown waits for in-flight requests before abandoning
    /// the queue.
    pub drain_timeout: Duration,
}

/// Heartbeat cadence for queued/running requests.
const PROGRESS_INTERVAL: Duration = Duration::from_millis(500);
/// Poll granularity of the accept loop and idle connection reads.
const POLL_INTERVAL: Duration = Duration::from_millis(50);
/// Longest request line a connection may send, newline included. A
/// longer line is answered with one `error` and the connection closes.
const MAX_REQUEST_LINE: u64 = 1 << 20;

/// Process-wide shutdown latch, set by SIGINT/SIGTERM or a `Shutdown`
/// request.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Ask the running server (in this process) to shut down gracefully.
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

fn shutting_down() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

#[cfg(unix)]
mod sig {
    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe work here: flip the latch, nothing else.
        super::SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
}

enum Listener {
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener),
    Tcp(TcpListener),
}

/// A split accepted connection: an owned reader plus a shareable writer.
struct Conn {
    reader: Box<dyn Read + Send>,
    writer: Box<dyn Write + Send>,
}

impl Listener {
    fn bind(endpoint: &Endpoint) -> Result<Listener, String> {
        match endpoint {
            Endpoint::Unix(path) => {
                #[cfg(unix)]
                {
                    // A stale socket file from a killed daemon blocks
                    // bind; remove it (connect() would have failed for
                    // a live one anyway — single-daemon-per-path).
                    let _ = std::fs::remove_file(path);
                    let l = std::os::unix::net::UnixListener::bind(path)
                        .map_err(|e| format!("bind {}: {e}", path.display()))?;
                    l.set_nonblocking(true).map_err(|e| format!("nonblocking: {e}"))?;
                    Ok(Listener::Unix(l))
                }
                #[cfg(not(unix))]
                {
                    Err(format!("unix sockets unsupported here: {}", path.display()))
                }
            }
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str()).map_err(|e| format!("bind {addr}: {e}"))?;
                l.set_nonblocking(true).map_err(|e| format!("nonblocking: {e}"))?;
                Ok(Listener::Tcp(l))
            }
        }
    }

    /// Nonblocking accept; `None` when no connection is pending.
    fn try_accept(&self) -> Result<Option<Conn>, String> {
        fn pending(e: &std::io::Error) -> bool {
            e.kind() == std::io::ErrorKind::WouldBlock
        }
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false).map_err(|e| e.to_string())?;
                    s.set_read_timeout(Some(POLL_INTERVAL)).map_err(|e| e.to_string())?;
                    let w = s.try_clone().map_err(|e| e.to_string())?;
                    Ok(Some(Conn { reader: Box::new(s), writer: Box::new(w) }))
                }
                Err(e) if pending(&e) => Ok(None),
                Err(e) => Err(format!("accept: {e}")),
            },
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false).map_err(|e| e.to_string())?;
                    s.set_read_timeout(Some(POLL_INTERVAL)).map_err(|e| e.to_string())?;
                    let w = s.try_clone().map_err(|e| e.to_string())?;
                    Ok(Some(Conn { reader: Box::new(s), writer: Box::new(w) }))
                }
                Err(e) if pending(&e) => Ok(None),
                Err(e) => Err(format!("accept: {e}")),
            },
        }
    }
}

type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// Append one response to `out` as a JSON line.
fn push_response(out: &mut String, resp: &Response) {
    match serde_json::to_string(resp) {
        Ok(line) => out.push_str(&line),
        Err(e) => out.push_str(
            &serde_json::to_string(&Response::error(resp.id, format!("serialize: {e}")))
                .expect("error response serializes"),
        ),
    }
    out.push('\n');
}

/// Write whole response lines under the writer lock, so concurrent
/// request threads never interleave bytes.
fn write_lines(w: &SharedWriter, lines: &str) {
    let mut g = w.lock().expect("writer lock");
    // A vanished client is not a server error; drop the lines.
    let _ = g.write_all(lines.as_bytes());
    let _ = g.flush();
}

/// Serialize one response as a single JSON line and write it.
fn write_response(w: &SharedWriter, resp: &Response) {
    let mut line = String::new();
    push_response(&mut line, resp);
    write_lines(w, &line);
}

/// Write a `done` line carrying `result`, a compact JSON document.
fn write_done(w: &SharedWriter, id: u64, result: &str, cached: bool) {
    let mut line = String::new();
    write_done_line(&mut line, id, result, cached);
    line.push('\n');
    write_lines(w, &line);
}

/// Run the daemon until a shutdown signal/request arrives, then drain
/// and return. This is `mio serve`.
pub fn serve(opts: &ServeOptions) -> Result<(), String> {
    sig::install();
    SHUTDOWN.store(false, Ordering::SeqCst);
    let engine = Arc::new(Engine::new(opts.engine.clone()));
    let listener = Listener::bind(&opts.endpoint)?;
    eprintln!(
        "mio serve: listening on {} ({} workers, max inflight {})",
        opts.endpoint, opts.engine.workers, opts.engine.max_inflight
    );

    let conn_seq = AtomicU64::new(0);
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shutting_down() {
        match listener.try_accept()? {
            Some(conn) => {
                let engine = Arc::clone(&engine);
                let name = format!("conn{}", conn_seq.fetch_add(1, Ordering::Relaxed));
                conns.push(
                    std::thread::Builder::new()
                        .name(format!("serve-{name}"))
                        .spawn(move || handle_connection(conn, &engine, &name))
                        .map_err(|e| format!("spawn connection thread: {e}"))?,
                );
            }
            None => std::thread::sleep(POLL_INTERVAL),
        }
    }

    // Graceful drain: refuse new work, let queued/running jobs finish
    // (bounded), then resolve anything left so no client waits forever.
    eprintln!("mio serve: shutting down, draining in-flight requests");
    engine.begin_shutdown();
    if !engine.drain(opts.drain_timeout) {
        eprintln!(
            "mio serve: drain timeout ({:?}) exceeded, abandoning queued requests",
            opts.drain_timeout
        );
        engine.abort_pending();
    }
    for h in conns {
        let _ = h.join();
    }
    if let Endpoint::Unix(path) = &opts.endpoint {
        let _ = std::fs::remove_file(path);
    }
    eprintln!("mio serve: done ({} requests completed)", engine.completed());
    Ok(())
}

/// Read request lines until EOF, shutdown or an oversized line; each
/// request still pending after submission gets its own waiter thread so
/// responses pipeline.
fn handle_connection(conn: Conn, engine: &Arc<Engine>, default_client: &str) {
    let writer: SharedWriter = Arc::new(Mutex::new(conn.writer));
    let mut reader = BufReader::new(conn.reader);
    let mut waiters: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut line = String::new();
    loop {
        // The read timeout doubles as the shutdown poll: a partial line
        // survives in `line` across timeouts and completes on the next
        // successful read. `take` stops a line at MAX_REQUEST_LINE bytes
        // in all, however many reads it spans.
        let budget = MAX_REQUEST_LINE - line.len() as u64;
        match (&mut reader).take(budget).read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                if line.len() as u64 >= MAX_REQUEST_LINE && !line.ends_with('\n') {
                    write_response(
                        &writer,
                        &Response::error(
                            0,
                            format!("request line longer than {MAX_REQUEST_LINE} bytes"),
                        ),
                    );
                    break;
                }
                let text = std::mem::take(&mut line);
                let text = text.trim();
                if text.is_empty() {
                    continue;
                }
                match serde_json::from_str::<Request>(text) {
                    Ok(req) => handle_request(req, engine, &writer, default_client, &mut waiters),
                    Err(e) => write_response(&writer, &Response::error(0, format!("parse: {e}"))),
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shutting_down() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    for h in waiters {
        let _ = h.join();
    }
}

fn handle_request(
    req: Request,
    engine: &Arc<Engine>,
    writer: &SharedWriter,
    default_client: &str,
    waiters: &mut Vec<std::thread::JoinHandle<()>>,
) {
    let id = req.id;
    let json = |v: Value| serde_json::to_string(&v).expect("a value prints as JSON");
    match &req.body {
        RequestBody::Stats => write_done(writer, id, &json(engine.stats_value()), false),
        RequestBody::Metrics => {
            write_done(writer, id, &json(Value::Str(engine.prometheus_text())), false)
        }
        RequestBody::Shutdown => {
            write_done(writer, id, "null", false);
            request_shutdown();
        }
        _ => {
            let client = match req.client.as_deref() {
                Some(name) if !name.is_empty() => name.to_string(),
                _ => default_client.to_string(),
            };
            match engine.submit(&client, &req.body) {
                Ok(ticket) => {
                    let accepted = Instant::now();
                    let mut lines = String::new();
                    push_response(&mut lines, &Response::accepted(id));
                    if let Some(result) = ticket.try_result() {
                        finish(id, &client, &ticket, result, accepted, lines, writer);
                        return;
                    }
                    write_lines(writer, &lines);
                    let expected_us = engine.expected_service_us(&req.body);
                    let writer = Arc::clone(writer);
                    // Finished waiters leave, so the vector holds at most
                    // this connection's pending requests.
                    waiters.retain(|h| !h.is_finished());
                    waiters.push(
                        std::thread::Builder::new()
                            .name(format!("serve-wait{id}"))
                            .spawn(move || {
                                stream_result(id, &client, &ticket, accepted, expected_us, &writer)
                            })
                            .expect("spawn waiter thread"),
                    );
                }
                Err(e) => {
                    eprintln!(
                        "serve: request id={id} client={client} disposition=rejected \
                         error=\"{e}\""
                    );
                    write_response(writer, &Response::error(id, e.to_string()));
                }
            }
        }
    }
}

/// Append the terminal line of a resolved ticket to `lines`, write them
/// all at once, then log one structured key=value completion line.
fn finish(
    id: u64,
    client: &str,
    ticket: &Ticket,
    result: Result<Arc<str>, String>,
    accepted: Instant,
    mut lines: String,
    writer: &SharedWriter,
) {
    let outcome = match result {
        Ok(bytes) => {
            write_done_line(&mut lines, id, &bytes, ticket.cached);
            lines.push('\n');
            "done"
        }
        Err(e) => {
            push_response(&mut lines, &Response::error(id, e));
            "error"
        }
    };
    write_lines(writer, &lines);
    log_completion(id, client, ticket, accepted.elapsed(), outcome);
}

/// Emit progress heartbeats until a pending ticket resolves, then
/// [`finish`] it.
fn stream_result(
    id: u64,
    client: &str,
    ticket: &Ticket,
    accepted: Instant,
    expected_us: Option<u64>,
    writer: &SharedWriter,
) {
    let ev0 = obs::sim_events_total();
    loop {
        match ticket.wait_timeout(PROGRESS_INTERVAL) {
            Some(result) => {
                finish(id, client, ticket, result, accepted, String::new(), writer);
                return;
            }
            None => {
                let elapsed = accepted.elapsed();
                let rate =
                    obs::sim_events_total().saturating_sub(ev0) as f64 / elapsed.as_secs_f64();
                // ETA from the mean service time of this request type;
                // None until the engine has history for it.
                let eta = expected_us
                    .map(|us| Duration::from_micros(us).saturating_sub(elapsed).as_secs());
                write_response(writer, &Response::progress(id, rate, eta));
            }
        }
    }
}

/// One key=value line per completed request: correlation id, client,
/// how the result was obtained, and where its time went. Queue/service
/// durations come from the execution that produced the result, so a
/// coalesced ticket reports the shared flight's numbers; a cache hit
/// (no execution) reports none.
fn log_completion(id: u64, client: &str, ticket: &Ticket, total: Duration, outcome: &str) {
    let disposition = match (ticket.cached, ticket.coalesced) {
        (true, true) => "coalesced",
        (true, false) => "cache_hit",
        _ => "computed",
    };
    match ticket.timing() {
        Some(t) => eprintln!(
            "serve: request id={id} client={client} disposition={disposition} \
             outcome={outcome} queue_wait_us={} service_us={} total_us={}",
            t.queue_wait.as_micros(),
            t.service.as_micros(),
            total.as_micros(),
        ),
        None => eprintln!(
            "serve: request id={id} client={client} disposition={disposition} \
             outcome={outcome} total_us={}",
            total.as_micros(),
        ),
    }
}

/// `mio submit`: send one request, return its terminal response. Waits
/// through `progress` heartbeats (echoed to stderr when `progress` is
/// set) and ignores responses for other ids.
pub fn submit_once(endpoint: &Endpoint, req: &Request, progress: bool) -> Result<Response, String> {
    let (reader, mut writer): (Box<dyn Read>, Box<dyn Write>) = match endpoint {
        Endpoint::Unix(path) => {
            #[cfg(unix)]
            {
                let s = std::os::unix::net::UnixStream::connect(path)
                    .map_err(|e| format!("connect {}: {e}", path.display()))?;
                let w = s.try_clone().map_err(|e| e.to_string())?;
                (Box::new(s), Box::new(w))
            }
            #[cfg(not(unix))]
            {
                return Err(format!("unix sockets unsupported here: {}", path.display()));
            }
        }
        Endpoint::Tcp(addr) => {
            let s = TcpStream::connect(addr.as_str()).map_err(|e| format!("connect {addr}: {e}"))?;
            let w = s.try_clone().map_err(|e| e.to_string())?;
            (Box::new(s), Box::new(w))
        }
    };
    let mut line = serde_json::to_string(req).map_err(|e| format!("serialize request: {e}"))?;
    line.push('\n');
    writer.write_all(line.as_bytes()).map_err(|e| format!("send: {e}"))?;
    writer.flush().map_err(|e| format!("send: {e}"))?;

    let mut reader = BufReader::new(reader);
    let mut buf = String::new();
    loop {
        buf.clear();
        let n = reader.read_line(&mut buf).map_err(|e| format!("read response: {e}"))?;
        if n == 0 {
            return Err("server closed the connection before answering".into());
        }
        let text = buf.trim();
        if text.is_empty() {
            continue;
        }
        let resp: Response =
            serde_json::from_str(text).map_err(|e| format!("parse response: {e}"))?;
        if resp.id != req.id {
            continue;
        }
        match resp.event.as_str() {
            "accepted" => {}
            "progress" => {
                // Same shape as the sweep heartbeat:
                // `[sweep] 3/9 points | 1.24M ev/s | ETA 4s`.
                if progress {
                    let rate = resp.rate.unwrap_or(0.0);
                    let eta = match resp.eta_secs {
                        Some(s) => format!("{s}s"),
                        None => "?".into(),
                    };
                    eprintln!(
                        "[submit] request {} | {:.2}M ev/s | ETA {eta}",
                        req.id,
                        rate / 1e6
                    );
                }
            }
            _ => return Ok(resp),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Fig8PointSpec;
    use experiments::StoreConfig;

    fn loopback_options() -> ServeOptions {
        ServeOptions {
            // Port 0: the OS picks a free port — but we need to know it,
            // so tests bind a throwaway listener first to reserve one.
            endpoint: Endpoint::Tcp("127.0.0.1:0".into()),
            engine: EngineConfig {
                workers: 2,
                max_inflight: 8,
                result_cache: 8,
                store: StoreConfig::default(),
            },
            drain_timeout: Duration::from_secs(30),
        }
    }

    fn free_port() -> u16 {
        TcpListener::bind("127.0.0.1:0").expect("bind").local_addr().expect("addr").port()
    }

    /// `SHUTDOWN` is process-wide, so one test's shutdown request would
    /// stop another test's server: server tests run one at a time.
    static SERVER_TEST: Mutex<()> = Mutex::new(());

    /// Start a daemon on a free loopback port; returns its address once
    /// it accepts connections.
    fn start_server() -> (String, std::thread::JoinHandle<Result<(), String>>) {
        let mut opts = loopback_options();
        let addr = format!("127.0.0.1:{}", free_port());
        opts.endpoint = Endpoint::Tcp(addr.clone());
        let server = std::thread::spawn(move || serve(&opts));
        for _ in 0..200 {
            if TcpStream::connect(addr.as_str()).is_ok() {
                return (addr, server);
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        panic!("the server never listened on {addr}");
    }

    fn shut_down(addr: String, server: std::thread::JoinHandle<Result<(), String>>) {
        let bye = Request { id: u64::MAX, client: None, body: RequestBody::Shutdown };
        let bye = submit_once(&Endpoint::Tcp(addr), &bye, false).expect("shutdown ack");
        assert_eq!(bye.event, "done");
        server.join().expect("server thread").expect("clean exit");
    }

    /// Read one response line; `None` at end of stream.
    fn read_response_line(reader: &mut BufReader<TcpStream>) -> Option<String> {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read a response line");
        (n > 0).then(|| line.trim_end().to_string())
    }

    #[test]
    fn serve_answers_and_shuts_down_over_tcp() {
        let _serial = SERVER_TEST.lock().unwrap_or_else(|e| e.into_inner());
        let (addr, server) = start_server();
        let endpoint = Endpoint::Tcp(addr.clone());
        let body = RequestBody::Fig8Point(Fig8PointSpec {
            cache_mb: 8,
            block: 4096,
            scale: 64,
            seed: 42,
        });
        let req = Request { id: 1, client: None, body: body.clone() };
        let resp = submit_once(&endpoint, &req, false).expect("server answered");
        assert_eq!(resp.event, "done");
        assert_eq!(resp.cached, Some(false));
        let report = resp.result.expect("report payload");
        // Same point again: served from the result cache, byte-identical.
        let again = submit_once(&endpoint, &Request { id: 2, client: None, body }, false)
            .expect("second request");
        assert_eq!(again.cached, Some(true));
        assert_eq!(
            serde_json::to_string_pretty(&report).expect("print"),
            serde_json::to_string_pretty(&again.result.expect("payload")).expect("print"),
        );

        // Stats request reports the hit.
        let stats = Request { id: 3, client: None, body: RequestBody::Stats };
        let stats = submit_once(&endpoint, &stats, false).expect("stats");
        let stats = stats.result.expect("stats payload");
        assert_eq!(stats.get("cache_hits"), Some(&Value::U64(1)));

        // Graceful shutdown over the wire.
        shut_down(addr, server);
    }

    #[test]
    fn a_pipelined_repeat_is_answered_with_the_computed_bytes() {
        let _serial = SERVER_TEST.lock().unwrap_or_else(|e| e.into_inner());
        let (addr, server) = start_server();
        let point = |cache_mb| {
            RequestBody::Fig8Point(Fig8PointSpec { cache_mb, block: 4096, scale: 64, seed: 42 })
        };
        // A miss, its repeat and a different point, written in one go.
        let mut batch = String::new();
        for (id, body) in [(1, point(8)), (2, point(8)), (3, point(16))] {
            batch += &serde_json::to_string(&Request { id, client: None, body }).expect("print");
            batch.push('\n');
        }
        let stream = TcpStream::connect(addr.as_str()).expect("connect");
        (&stream).write_all(batch.as_bytes()).expect("send");
        let mut reader = BufReader::new(stream);
        let mut accepted = [false; 4];
        let mut done: [Option<(bool, String)>; 4] = Default::default();
        while done[1..].iter().any(Option::is_none) {
            let line = read_response_line(&mut reader).expect("the server answers every id");
            let resp: Response = serde_json::from_str(&line).expect("parse");
            let id = resp.id as usize;
            match resp.event.as_str() {
                "accepted" => accepted[id] = true,
                "progress" => {}
                "done" => {
                    assert!(accepted[id], "id {id}: accepted comes before done");
                    // The result's raw bytes, cut from the line itself.
                    let head = format!(
                        r#"{{"id":{id},"event":"done","cached":{},"result":"#,
                        resp.cached.expect("done carries cached")
                    );
                    let result = line
                        .strip_prefix(head.as_str())
                        .and_then(|rest| {
                            rest.strip_suffix(r#","error":null,"rate":null,"eta_secs":null}"#)
                        })
                        .expect("a done line in the wire layout");
                    done[id] = Some((resp.cached.expect("cached"), result.to_string()));
                }
                other => panic!("id {id}: unexpected {other}: {line}"),
            }
        }
        let [_, Some(first), Some(repeat), Some(other)] = done else { unreachable!() };
        assert!(!first.0, "the first request computes");
        assert!(repeat.0, "the repeat shares the first one's result");
        assert_eq!(repeat.1, first.1, "the repeat gets the computed bytes");
        assert!(!other.0);
        assert_ne!(other.1, first.1);
        let fresh = crate::engine::execute(&experiments::TraceStore::new(), &point(8));
        assert_eq!(first.1, serde_json::to_string(&fresh).expect("print"));
        shut_down(addr, server);
    }

    #[test]
    fn an_oversized_request_line_gets_one_error_and_the_connection_closes() {
        let _serial = SERVER_TEST.lock().unwrap_or_else(|e| e.into_inner());
        let (addr, server) = start_server();
        let stream = TcpStream::connect(addr.as_str()).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let stats = |id: u64| {
            serde_json::to_string(&Request { id, client: None, body: RequestBody::Stats })
                .expect("print")
        };
        // A line split across several read timeouts is still one request.
        let line = stats(1);
        let (a, b) = line.split_at(line.len() / 2);
        writer.write_all(a.as_bytes()).expect("send");
        std::thread::sleep(POLL_INTERVAL * 3);
        writer.write_all(format!("{b}\n").as_bytes()).expect("send");
        let resp = read_response_line(&mut reader).expect("answered");
        assert!(resp.starts_with(r#"{"id":1,"event":"done""#), "{resp}");
        // A line of exactly the limit, newline included, is accepted.
        let mut line = stats(2);
        line += &" ".repeat(MAX_REQUEST_LINE as usize - line.len() - 1);
        line.push('\n');
        writer.write_all(line.as_bytes()).expect("send");
        let resp = read_response_line(&mut reader).expect("answered");
        assert!(resp.starts_with(r#"{"id":2,"event":"done""#), "{resp:.80}");
        // A line that reaches the limit without a newline: one error,
        // then end of stream.
        writer.write_all(&vec![b' '; MAX_REQUEST_LINE as usize]).expect("send");
        let resp: Response =
            serde_json::from_str(&read_response_line(&mut reader).expect("an error line"))
                .expect("parse");
        assert_eq!(resp.event, "error");
        assert!(resp.error.expect("message").contains("longer than"));
        assert_eq!(read_response_line(&mut reader), None, "the server closed the connection");
        shut_down(addr, server);
    }
}
