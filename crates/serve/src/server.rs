//! The daemon: a `TcpListener` accept loop in front of a bounded
//! worker pool, routing the small JSON/text API onto the
//! [`JobManager`] and [`ResultStore`].
//!
//! Backpressure is explicit at both layers. Connections beyond the
//! worker pool's buffered channel get an inline `503 Retry-After: 1`
//! and are counted, never silently dropped; submits beyond the job
//! queue's capacity get the same treatment from the manager. Shutdown
//! is graceful: the trigger (SIGTERM via [`crate::signal`], or a test
//! handle) sets a flag and self-connects to unblock `accept`; the
//! accept loop stops, workers finish their current exchanges and
//! drain, the in-flight job is cooperatively cancelled and re-queued,
//! and `run` returns so the process can exit 0.
//!
//! One route escapes the request/response mold: `GET /jobs/N/stream`
//! is a chunked response that replays the job's checkpoint records and
//! then pushes each new one as its point is checkpointed. The streamer
//! sleeps on the job's change signal in the store, so it wakes when the
//! job gains a record or changes state, when a heartbeat is due, or
//! when shutdown begins — never on a timer of its own. It runs on a
//! detached streamer thread (`stream_job`) so a stream held open for a
//! long sweep never pins one of the pool's workers; admission (auth,
//! rate limit, 404) happens on the worker *before* the first chunk, so
//! refusals are ordinary buffered responses. Shutdown wakes every
//! stream and waits a bounded time for each to write its current status
//! line and the terminator.

use crate::http::{
    parse_request, write_chunk, write_chunk_terminator, write_chunked_header, DeadlineStream,
    ParseError, Request, Response,
};
use crate::jobs::{JobManager, SubmitError};
use crate::metrics::Metrics;
use crate::retention::RetentionPolicy;
use crate::store::{JobState, ResultQuery, ResultStore};
use crate::tenant::{request_key, TenantRegistry};
use mpstream_core::json::JsonLine;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How long shutdown waits for open streams to write their last lines.
const STREAM_DRAIN: Duration = Duration::from_secs(5);

/// A pluggable route consulted *before* the built-in API. Returning
/// `None` falls through to the standard routes. The cluster coordinator
/// registers its `/register`, `/lease`, `/heartbeat` and `/complete`
/// endpoints through this without the base daemon knowing about them.
pub type RouteHook = Arc<dyn Fn(&Request) -> Option<Response> + Send + Sync>;

/// Server configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOpts {
    /// Bind address, e.g. `127.0.0.1:8377` (`:0` picks a free port).
    pub addr: String,
    /// Result-store directory.
    pub store_dir: PathBuf,
    /// HTTP worker threads (the accept pool's width).
    pub http_workers: usize,
    /// Job-queue capacity before submits get 503.
    pub queue_capacity: usize,
    /// Total time one request may take to arrive, headers and body
    /// included. Slow-drip clients exceed it and get 408 — they cannot
    /// pin a pool worker past this budget.
    pub request_deadline: Duration,
    /// Requests served per connection before it is closed (keep-alive
    /// recycling, so one chatty peer cannot hold a worker forever).
    pub max_requests_per_conn: usize,
    /// `tenants.jsonl` path; `None` runs anonymous-only.
    pub tenants_file: Option<PathBuf>,
    /// Store retention bounds (default unbounded).
    pub retention: RetentionPolicy,
    /// Chaos-test profile name; applied by [`Server::bind`] on top of
    /// the other fields. Test hook for the chaos-soak harness.
    pub chaos_profile: Option<String>,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            addr: "127.0.0.1:8377".into(),
            store_dir: PathBuf::from("mpstream-store"),
            http_workers: 4,
            queue_capacity: 16,
            request_deadline: Duration::from_secs(10),
            max_requests_per_conn: 256,
            tenants_file: None,
            retention: RetentionPolicy::unbounded(),
            chaos_profile: None,
        }
    }
}

impl ServeOpts {
    /// Overlay a named chaos profile: aggressive small limits that make
    /// overload and retention behavior reachable in seconds, plus the
    /// built-in chaos tenant pair ([`TenantRegistry::chaos`]).
    pub fn apply_chaos_profile(&mut self, name: &str) -> Result<(), String> {
        match name {
            "quick" => {
                self.queue_capacity = 8;
                self.request_deadline = Duration::from_secs(2);
                self.max_requests_per_conn = 64;
                self.retention = RetentionPolicy {
                    max_jobs: 16,
                    max_bytes: 1 << 20,
                    min_age: Duration::ZERO,
                };
                Ok(())
            }
            other => Err(format!("unknown chaos profile '{other}' (expected: quick)")),
        }
    }
}

/// Hands out of a running server: trigger shutdown from another thread.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Begin graceful shutdown: set the flag and poke the accept loop.
    pub fn trigger(&self) {
        self.flag.store(true, Ordering::SeqCst);
        // Self-connect so a blocked accept() wakes up and sees the flag.
        let _ = TcpStream::connect(self.addr);
    }
}

struct Shared {
    manager: Arc<JobManager>,
    metrics: Arc<Metrics>,
    hook: OnceLock<RouteHook>,
    tenants: TenantRegistry,
    request_deadline: Duration,
    max_requests_per_conn: usize,
    /// The server's shutdown flag, also watched by detached streamer
    /// threads so live streams end promptly when the daemon drains.
    shutdown: Arc<AtomicBool>,
    /// Streamer threads still running, so shutdown can wait for their
    /// last lines; `stream_ended` is notified as each one finishes.
    live_streams: Mutex<usize>,
    stream_ended: Condvar,
}

/// A bound (not yet running) server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    shutdown: Arc<AtomicBool>,
    opts: ServeOpts,
}

impl Server {
    /// Open the store, build the manager, bind the listener.
    pub fn bind(mut opts: ServeOpts) -> std::io::Result<Server> {
        let invalid = |why: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, why);
        if let Some(profile) = opts.chaos_profile.clone() {
            opts.apply_chaos_profile(&profile).map_err(invalid)?;
        }
        let tenants = if opts.chaos_profile.is_some() {
            TenantRegistry::chaos()
        } else if let Some(path) = &opts.tenants_file {
            TenantRegistry::load(path).map_err(invalid)?
        } else {
            TenantRegistry::anonymous_only()
        };
        let metrics = Arc::new(Metrics::default());
        let store = Arc::new(ResultStore::open_with(&opts.store_dir, opts.retention)?);
        // Publish what startup compaction did — these numbers used to
        // live only in the banner line and were lost to scraping.
        let startup = store.startup_stats();
        Metrics::set(&metrics.store_files_compacted, startup.files as u64);
        Metrics::set(&metrics.store_records_kept, startup.compaction.kept as u64);
        Metrics::set(
            &metrics.store_records_superseded,
            startup.compaction.superseded as u64,
        );
        Metrics::set(
            &metrics.store_records_corrupt,
            startup.compaction.corrupt as u64,
        );
        let manager = JobManager::new(store, Arc::clone(&metrics), opts.queue_capacity);
        let listener = TcpListener::bind(&opts.addr)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                manager,
                metrics,
                hook: OnceLock::new(),
                tenants,
                request_deadline: opts.request_deadline,
                max_requests_per_conn: opts.max_requests_per_conn.max(1),
                shutdown: Arc::clone(&shutdown),
                live_streams: Mutex::new(0),
                stream_ended: Condvar::new(),
            }),
            shutdown,
            opts,
        })
    }

    /// The bound address (resolves `:0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The store behind this server.
    pub fn store(&self) -> Arc<ResultStore> {
        Arc::clone(self.shared.manager.store())
    }

    /// The daemon's metrics registry.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// The job manager.
    pub fn manager(&self) -> Arc<JobManager> {
        Arc::clone(&self.shared.manager)
    }

    /// Install a [`RouteHook`] consulted before the built-in routes.
    /// First caller wins; later calls are ignored.
    pub fn set_route_hook(&self, hook: RouteHook) {
        let _ = self.shared.hook.set(hook);
    }

    /// A handle that can stop [`run`](Self::run) from another thread.
    pub fn shutdown_handle(&self) -> std::io::Result<ShutdownHandle> {
        Ok(ShutdownHandle {
            flag: Arc::clone(&self.shutdown),
            addr: self.local_addr()?,
        })
    }

    /// Serve until shutdown is triggered, then drain and return.
    pub fn run(self) -> std::io::Result<()> {
        let runner = self.shared.manager.spawn_runner();

        // Periodic retention so long-idle daemons still converge to
        // their bounds (job completions also trigger a pass).
        let gc = (!self.opts.retention.is_unbounded()).then(|| {
            let store = self.store();
            let stop = Arc::clone(&self.shutdown);
            std::thread::Builder::new()
                .name("mpstream-store-gc".into())
                .spawn(move || {
                    loop {
                        // ~5s cadence, checking for shutdown every 250ms.
                        for _ in 0..20 {
                            if stop.load(Ordering::SeqCst) {
                                return;
                            }
                            std::thread::sleep(Duration::from_millis(250));
                        }
                        if let Err(why) = store.run_retention() {
                            eprintln!("mpstream serve: retention pass failed: {why}");
                        }
                    }
                })
                .expect("spawn store gc")
        });

        let (tx, rx) = sync_channel::<TcpStream>(self.opts.http_workers * 2);
        let rx = Arc::new(Mutex::new(rx));
        let workers: Vec<_> = (0..self.opts.http_workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&self.shared);
                std::thread::Builder::new()
                    .name(format!("mpstream-http-{i}"))
                    .spawn(move || worker_loop(&rx, &shared))
                    .expect("spawn http worker")
            })
            .collect();

        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            // Responses are small and latency-bound; leaving Nagle on
            // costs ~40ms per keep-alive round trip to delayed ACKs.
            let _ = stream.set_nodelay(true);
            match tx.try_send(stream) {
                Ok(()) => {}
                Err(TrySendError::Full(stream)) => {
                    // Accept pool saturated: shed the connection loudly.
                    Metrics::inc(&self.shared.metrics.connections_rejected);
                    shed(stream);
                }
                Err(TrySendError::Disconnected(_)) => break,
            }
        }

        // Drain: no new connections. Flag first, then wake every stream:
        // each re-checks the flag and ends with its current status line.
        self.shutdown.store(true, Ordering::SeqCst);
        self.store().wake_all();
        // Workers finish buffered connections.
        drop(tx);
        for w in workers {
            let _ = w.join();
        }
        // Stop the runner; an in-flight job is cancelled cooperatively
        // and re-queued (its finished points are already checkpointed).
        self.shared.manager.shutdown();
        let _ = runner.join();
        if let Some(gc) = gc {
            let _ = gc.join();
        }
        // Give the woken streams a bounded time to write their last
        // lines before the process may exit under them.
        let live = self
            .shared
            .live_streams
            .lock()
            .expect("stream count poisoned");
        let _ = self
            .shared
            .stream_ended
            .wait_timeout_while(live, STREAM_DRAIN, |n| *n > 0);
        Ok(())
    }
}

/// Best-effort inline 503 for a connection that never got a worker.
fn shed(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let _ = Response::text(503, "server saturated; retry\n")
        .header("Retry-After", "1")
        .write_to(&mut stream, true);
    drain(&stream);
}

/// Read the peer's remaining bytes before closing. Dropping a socket
/// with unread input makes the kernel answer with RST, which can
/// destroy a response the peer has not read yet — a shed 503 or a 400
/// would be lost to "connection reset". Bounded by the read timeout.
fn drain(stream: &TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 1024];
    let mut budget = 64 * 1024;
    while budget > 0 {
        match std::io::Read::read(&mut (&*stream), &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => budget -= n.min(budget),
        }
    }
}

fn worker_loop(rx: &Arc<Mutex<Receiver<TcpStream>>>, shared: &Arc<Shared>) {
    loop {
        let stream = {
            let guard = rx.lock().expect("http rx mutex poisoned");
            guard.recv()
        };
        match stream {
            Ok(s) => handle_connection(s, shared),
            Err(_) => return, // sender dropped: shutdown
        }
    }
}

/// Serve one connection: parse/route/respond until close, error,
/// request deadline, or the per-connection request cap.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(DeadlineStream::new(stream, shared.request_deadline));
    let mut served = 0usize;
    loop {
        // Each request gets a fresh total budget; within one request
        // the clock never resets, so slow-drip delivery hits 408.
        reader.get_mut().arm(shared.request_deadline);
        match parse_request(&mut reader) {
            Ok(None) => return,
            Err(e) => {
                if matches!(e, ParseError::TimedOut { mid_request: true }) {
                    Metrics::inc(&shared.metrics.http_timeouts);
                }
                if let Some(status) = e.status() {
                    Metrics::inc(&shared.metrics.http_client_errors);
                    if Response::text(status, format!("{}\n", e.reason()))
                        .write_to(&mut writer, true)
                        .is_ok()
                    {
                        drain(&writer);
                    }
                }
                return;
            }
            Ok(Some(req)) => {
                Metrics::inc(&shared.metrics.http_requests);
                served += 1;
                let capped = served >= shared.max_requests_per_conn;
                if capped {
                    Metrics::inc(&shared.metrics.conn_requests_capped);
                }
                let close = req.wants_close() || capped;
                if let Some(job) = stream_target(&req) {
                    // The one route that outlives this exchange: hand
                    // the socket to a detached streamer and free this
                    // pool worker. The stream always ends the
                    // connection, so keep-alive state is moot.
                    serve_stream(&req, writer, shared, job);
                    return;
                }
                let resp = route(&req, shared);
                if (400..500).contains(&resp.status()) {
                    Metrics::inc(&shared.metrics.http_client_errors);
                }
                if resp.write_to(&mut writer, close).is_err() || close {
                    return;
                }
            }
        }
    }
}

/// Is this request the streaming route (`GET /jobs/{id}/stream`)?
fn stream_target(req: &Request) -> Option<u64> {
    if req.method != "GET" {
        return None;
    }
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["jobs", id, "stream"] => parse_id(id),
        _ => None,
    }
}

/// Admit and open a result stream. Everything that can refuse — auth,
/// rate limit, unknown job — happens here on the pool worker, answered
/// as a plain buffered response *before* any chunk is written. Only an
/// admitted stream spawns the detached streamer thread.
fn serve_stream(req: &Request, mut writer: TcpStream, shared: &Arc<Shared>, id: u64) {
    let refuse = |mut writer: TcpStream, resp: Response| {
        Metrics::inc(&shared.metrics.http_client_errors);
        if resp.write_to(&mut writer, true).is_ok() {
            drain(&writer);
        }
    };
    // Opening a stream counts as one admitted request for the tenant,
    // exactly like any other API hit.
    let Some(tenant) = shared.tenants.resolve(request_key(req)) else {
        Metrics::inc(&shared.metrics.http_unauthorized);
        refuse(writer, json_error(401, "unknown API key"));
        return;
    };
    let counters = shared.metrics.tenant(tenant.name());
    Metrics::inc(&counters.requests);
    if let Err(wait) = tenant.try_admit() {
        Metrics::inc(&shared.metrics.http_throttled);
        Metrics::inc(&counters.throttled);
        let secs = wait.as_secs() + u64::from(wait.subsec_nanos() > 0);
        refuse(
            writer,
            json_error(429, "rate limit exceeded").header("Retry-After", secs.max(1).to_string()),
        );
        return;
    }
    if shared.manager.store().get(id).is_none() {
        refuse(writer, json_error(404, "no such job"));
        return;
    }
    if write_chunked_header(&mut writer, 200, "application/json").is_err() {
        return;
    }
    Metrics::inc(&shared.metrics.stream_opened);
    Metrics::inc(&shared.metrics.stream_active);
    *shared.live_streams.lock().expect("stream count poisoned") += 1;
    let thread_shared = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name(format!("mpstream-stream-{id}"))
        .spawn(move || stream_job(writer, &thread_shared, id));
    if spawned.is_err() {
        // Thread exhaustion: the socket was dropped with the closure,
        // so the client sees a truncated (never "finished") stream.
        Metrics::dec(&shared.metrics.stream_active);
        stream_done(shared);
    }
}

/// Streamer thread body: run the feed, then settle the books whatever
/// way it ended.
fn stream_job(mut writer: TcpStream, shared: &Shared, id: u64) {
    stream_job_feed(&mut writer, shared, id);
    Metrics::dec(&shared.metrics.stream_active);
    drain(&writer);
    stream_done(shared);
}

/// Count one streamer thread out, waking a shutdown that waits for it.
fn stream_done(shared: &Shared) {
    *shared.live_streams.lock().expect("stream count poisoned") -= 1;
    shared.stream_ended.notify_all();
}

/// The live feed: replay the records already on disk, then push each
/// new record as it lands, one chunk per record line. The streamer
/// sleeps on the job's change signal between reads, so it wakes when
/// the job gains a record or changes state, when a heartbeat is due,
/// or at shutdown. Idle spells emit `: heartbeat` comment chunks so
/// client read deadlines and intermediaries see traffic. Ends with one
/// status line and the terminator chunk at terminal state (or a current
/// status line at daemon shutdown, so the client knows to reconnect). A
/// write error means the client went away — the job itself is never
/// touched.
fn stream_job_feed(w: &mut TcpStream, shared: &Shared, id: u64) {
    const HEARTBEAT: Duration = Duration::from_secs(1);
    let store = shared.manager.store();
    let signal = store.signal(id);
    // The signal strictly before state and records: a change that lands
    // after this read moves the counter past `seen`, so the wait below
    // returns at once instead of sleeping through it.
    let mut seen = signal.seq();
    let mut sent = 0usize;
    let mut quiet_since = Instant::now();
    loop {
        // State strictly before records: the runner appends every
        // record before it marks the job terminal, so a terminal state
        // observed *here* guarantees the read below sees every record.
        let Some(rec) = store.get(id) else {
            // Evicted by retention mid-stream: no terminal status will
            // ever appear; say why and end cleanly.
            let _ = write_chunk(w, b": job evicted from store\n");
            let _ = write_chunk_terminator(w);
            return;
        };
        let (fresh, done) = store.result_page(id, sent, usize::MAX);
        for line in &fresh {
            if write_chunk(w, format!("{line}\n").as_bytes()).is_err() {
                return;
            }
            Metrics::inc(&shared.metrics.stream_records);
            sent += 1;
        }
        // At a terminal state, or with the daemon draining (the current,
        // live status, so the client can tell "stream over" from "job
        // over"): one status line, then the terminator.
        if !rec.state.is_live() || shared.shutdown.load(Ordering::SeqCst) {
            let _ = write_chunk(w, (job_status_line(&rec, done) + "\n").as_bytes());
            let _ = write_chunk_terminator(w);
            return;
        }
        let now = Instant::now();
        if !fresh.is_empty() {
            quiet_since = now;
        } else if now.duration_since(quiet_since) >= HEARTBEAT {
            if write_chunk(w, b": heartbeat\n").is_err() {
                return;
            }
            quiet_since = now;
        }
        seen = signal.wait_past(
            seen,
            (quiet_since + HEARTBEAT).saturating_duration_since(now),
        );
    }
}

fn json_error(status: u16, message: &str) -> Response {
    let mut w = JsonLine::new();
    w.str_field("error", message);
    Response::json(status, w.finish() + "\n")
}

fn job_status_line(rec: &crate::store::JobRecord, done: usize) -> String {
    let mut w = JsonLine::new();
    w.u64_field("id", rec.id);
    w.str_field("state", rec.state.label());
    w.u64_field("done", done as u64);
    w.u64_field("total", rec.total as u64);
    if !rec.error.is_empty() {
        w.str_field("error", &rec.error);
    }
    w.finish()
}

/// Dispatch one parsed request: hook routes and health/metrics first
/// (exempt from admission — monitoring must reach an overloaded
/// daemon, and cluster-internal traffic polices itself), then the
/// tenant admission pipeline (authenticate, rate-limit), then the API.
fn route(req: &Request, shared: &Arc<Shared>) -> Response {
    if let Some(hook) = shared.hook.get() {
        if let Some(resp) = hook(req) {
            return resp;
        }
    }
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let manager = &shared.manager;
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => return Response::text(200, "ok\n"),
        ("GET", ["metrics"]) => {
            // Refresh the gauges at scrape time.
            Metrics::set(&shared.metrics.queue_depth, manager.queue_depth() as u64);
            let store = manager.store();
            Metrics::set(&shared.metrics.store_jobs, store.job_count() as u64);
            Metrics::set(&shared.metrics.store_bytes, store.disk_usage());
            let (evicted, reclaimed) = store.retention_counters();
            Metrics::set(&shared.metrics.store_evicted, evicted);
            Metrics::set(&shared.metrics.store_bytes_reclaimed, reclaimed);
            return Response::text(200, shared.metrics.render_prometheus());
        }
        _ => {}
    }

    let Some(tenant) = shared.tenants.resolve(request_key(req)) else {
        Metrics::inc(&shared.metrics.http_unauthorized);
        return json_error(401, "unknown API key");
    };
    let counters = shared.metrics.tenant(tenant.name());
    Metrics::inc(&counters.requests);
    if let Err(wait) = tenant.try_admit() {
        Metrics::inc(&shared.metrics.http_throttled);
        Metrics::inc(&counters.throttled);
        // Ceil to whole seconds, never 0: "come back when a token is up."
        let secs = wait.as_secs() + u64::from(wait.subsec_nanos() > 0);
        return json_error(429, "rate limit exceeded")
            .header("Retry-After", secs.max(1).to_string());
    }

    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => {
            let Ok(body) = std::str::from_utf8(&req.body) else {
                return json_error(400, "body must be utf-8 JSON");
            };
            match manager.submit_for(body.trim(), tenant.name(), tenant.queue_quota()) {
                Ok(rec) => {
                    Metrics::inc(&counters.submitted);
                    let mut w = JsonLine::new();
                    w.u64_field("id", rec.id);
                    w.str_field("state", rec.state.label());
                    w.u64_field("total", rec.total as u64);
                    Response::json(202, w.finish() + "\n")
                }
                Err(SubmitError::Busy { capacity }) => {
                    json_error(503, &format!("job queue full (capacity {capacity})"))
                        .header("Retry-After", "1")
                }
                Err(SubmitError::Quota { tenant, quota }) => {
                    Metrics::inc(&shared.metrics.http_throttled);
                    Metrics::inc(&counters.quota_rejected);
                    json_error(
                        429,
                        &format!("tenant {tenant} at queue quota ({quota} live jobs)"),
                    )
                    .header("Retry-After", "5")
                }
                Err(SubmitError::Invalid(why)) => json_error(400, &why),
                Err(SubmitError::Store(why)) => json_error(500, &why),
            }
        }
        ("GET", ["jobs"]) => {
            let mut body = String::new();
            for rec in manager.store().jobs() {
                let done = manager.store().done_points(rec.id);
                body.push_str(&job_status_line(&rec, done));
                body.push('\n');
            }
            Response::json(200, body)
        }
        ("GET", ["jobs", id]) => match parse_id(id).and_then(|id| manager.status(id)) {
            Some((rec, done)) => Response::json(200, job_status_line(&rec, done) + "\n"),
            None => json_error(404, "no such job"),
        },
        ("POST", ["jobs", id, "cancel"]) => {
            match parse_id(id).and_then(|id| manager.cancel(id).map(|s| (id, s))) {
                Some((id, state)) => {
                    let mut w = JsonLine::new();
                    w.u64_field("id", id);
                    w.str_field("state", state.label());
                    Response::json(200, w.finish() + "\n")
                }
                None => json_error(404, "no such job"),
            }
        }
        ("GET", ["jobs", id, "results"]) => match parse_id(id) {
            Some(id) if manager.store().get(id).is_some() => {
                let offset = req
                    .query_param("offset")
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or(0);
                let limit = req
                    .query_param("limit")
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or(256)
                    .min(4096);
                let (page, total) = manager.store().result_page(id, offset, limit);
                let mut body = String::new();
                for line in &page {
                    body.push_str(line);
                    body.push('\n');
                }
                Response::json(200, body)
                    .header("X-Offset", offset.to_string())
                    .header("X-Count", page.len().to_string())
                    .header("X-Total", total.to_string())
            }
            _ => json_error(404, "no such job"),
        },
        ("GET", ["jobs", id, "report"]) => match parse_id(id) {
            Some(id) => match manager.store().get(id) {
                Some(rec) if rec.state == JobState::Done => match manager.store().read_report(id) {
                    Some(report) => Response::text(200, report),
                    None => json_error(500, "report missing from store"),
                },
                Some(rec) => json_error(
                    404,
                    &format!("job is {}; report exists once done", rec.state.label()),
                ),
                None => json_error(404, "no such job"),
            },
            None => json_error(404, "no such job"),
        },
        ("GET", ["results"]) => {
            let q = ResultQuery {
                device: req.query_param("device").unwrap_or("").to_string(),
                config: req.query_param("config").unwrap_or("").to_string(),
                op: req.query_param("op").unwrap_or("").to_string(),
                job: req.query_param("job").and_then(|v| v.parse().ok()),
            };
            let lines = manager.store().query(&q);
            let mut body = String::new();
            for line in &lines {
                body.push_str(line);
                body.push('\n');
            }
            Response::json(200, body).header("X-Count", lines.len().to_string())
        }
        (_, ["healthz" | "metrics" | "jobs" | "results", ..]) => {
            json_error(405, "method not allowed")
        }
        _ => json_error(404, "no such endpoint"),
    }
}

fn parse_id(s: &str) -> Option<u64> {
    s.parse().ok()
}
