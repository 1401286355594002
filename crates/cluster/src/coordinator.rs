//! The coordinator: a serve daemon that delegates sweep execution to
//! registered workers instead of running configs itself.
//!
//! It plugs into the serve layer through three seams, all installed at
//! [`Coordinator::bind`] time:
//!
//! * a [`RouteHook`] adds the cluster endpoints (`POST /register`,
//!   `/lease`, `/heartbeat`, `/complete`) in front of the normal
//!   routing table, so the public job API (`/jobs`, `/metrics`, ...)
//!   is untouched;
//! * a [`JobExecutor`] replaces the manager's local sweep runner with
//!   the shard dispatch loop;
//! * a metrics extra-renderer appends the cluster gauges to
//!   `/metrics`.
//!
//! ## Shard lifecycle and the exactly-once merge
//!
//! Each submitted job is split into contiguous shards (stable FNV-1a
//! ids, see [`crate::shard`]). A shard is `Queued` until a worker
//! leases it, `Leased` while the lease lives (heartbeats extend it),
//! and `Merged` once its results landed. A lease that expires without
//! completion re-queues the shard and counts a re-lease; the late
//! worker's eventual `POST /complete` is still welcome — whichever
//! copy arrives first wins, the other is recognised by its shard id
//! and dropped, so no outcome or counter is ever double-merged.
//!
//! Durability mirrors the job manager: merged shards are journalled to
//! `shards.jsonl` in the result store (checkpoint lines are appended
//! to the job's checkpoint *first*, then the journal record — a crash
//! between the two only duplicates checkpoint lines, which
//! [`Checkpoint::compact`] dedupes by config key). On restart the
//! journal is compacted and replayed, so a re-queued job resumes with
//! its merged shards already in place.

use crate::shard::{self, MergedShard, ShardCounters, ShardPlan};
use mpstream_core::checkpoint::{self, Checkpoint};
use mpstream_core::cli as core_cli;
use mpstream_core::engine::CancelToken;
use mpstream_core::json::{compact_jsonl, parse_flat_object, JsonLine};
use mpstream_core::sweep::SweepResult;
use mpstream_serve::http::{Request, Response};
use mpstream_serve::jobs::JobExecutor;
use mpstream_serve::server::{RouteHook, ServeOpts, Server, ShutdownHandle};
use mpstream_serve::spec;
use mpstream_serve::store::{JobRecord, ResultStore};
use mpstream_serve::Metrics;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How the coordinator is configured.
#[derive(Debug, Clone)]
pub struct CoordinatorOpts {
    /// The underlying serve daemon options (address, store, ...).
    pub serve: ServeOpts,
    /// Lease lifetime; a worker must complete or heartbeat within it.
    pub lease: Duration,
    /// Sweep points per shard.
    pub shard_points: usize,
}

impl Default for CoordinatorOpts {
    fn default() -> Self {
        CoordinatorOpts {
            serve: ServeOpts::default(),
            lease: Duration::from_millis(5000),
            shard_points: 8,
        }
    }
}

/// A registered worker, as the coordinator sees it.
#[derive(Debug)]
struct WorkerInfo {
    /// Self-reported observability address (may be empty).
    #[allow(dead_code)]
    addr: String,
    /// Set when a lease held by this worker expired.
    lost: bool,
}

/// Where a shard is in its lifecycle.
#[derive(Debug)]
enum ShardStatus {
    /// Waiting for a worker.
    Queued,
    /// Held by a worker until the deadline.
    Leased {
        /// The holding worker's id.
        worker: u64,
        /// When the lease lapses without a heartbeat or completion.
        expires: Instant,
    },
    /// Results merged; terminal.
    Merged,
}

/// One shard plus its current status.
#[derive(Debug)]
struct ShardState {
    plan: ShardPlan,
    status: ShardStatus,
}

/// The job currently being dispatched (the manager runs one at a
/// time, so there is at most one).
#[derive(Debug)]
struct ActiveJob {
    id: u64,
    shards: Vec<ShardState>,
}

/// Mutable coordinator state, under one lock.
#[derive(Debug, Default)]
struct Registry {
    next_worker: u64,
    workers: HashMap<u64, WorkerInfo>,
    active: Option<ActiveJob>,
    /// Every merged shard ever journalled, keyed by (job, shard id).
    merged: HashMap<(u64, String), MergedShard>,
}

/// Shared cluster state behind the coordinator's three seams.
pub struct Cluster {
    store: Arc<ResultStore>,
    metrics: Arc<Metrics>,
    lease: Duration,
    shard_points: usize,
    inner: Mutex<Registry>,
    wake: Condvar,
    journal: Mutex<File>,
    releases: AtomicU64,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("lease", &self.lease)
            .field("shard_points", &self.shard_points)
            .finish()
    }
}

fn json_error(status: u16, message: &str) -> Response {
    let mut w = JsonLine::new();
    w.str_field("error", message);
    Response::json(status, w.finish())
}

impl Cluster {
    /// Journal file name inside the result store. Deliberately does
    /// not match the store's `job-*.jsonl` checkpoint glob, so the
    /// store's own startup compaction leaves it to us.
    const JOURNAL: &'static str = "shards.jsonl";

    /// Open (compact + replay) the shard journal and build the shared
    /// cluster state.
    pub fn open(
        store: Arc<ResultStore>,
        metrics: Arc<Metrics>,
        lease: Duration,
        shard_points: usize,
    ) -> std::io::Result<Arc<Cluster>> {
        let path = store.dir().join(Self::JOURNAL);
        compact_jsonl(&path, |obj| {
            let shard = obj.get("shard")?.as_str()?;
            let job = obj.get("job")?.as_u64()?;
            Some(format!("{job}:{shard}"))
        })?;
        let mut merged = HashMap::new();
        if let Ok(text) = std::fs::read_to_string(&path) {
            for line in text.lines().filter(|l| !l.trim().is_empty()) {
                if let Some(rec) = MergedShard::parse(line) {
                    merged.insert((rec.job, rec.shard.clone()), rec);
                }
            }
        }
        let journal = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Arc::new(Cluster {
            store,
            metrics,
            lease,
            shard_points: shard_points.max(1),
            inner: Mutex::new(Registry {
                merged,
                ..Registry::default()
            }),
            wake: Condvar::new(),
            journal: Mutex::new(journal),
            releases: AtomicU64::new(0),
        }))
    }

    fn lock(&self) -> MutexGuard<'_, Registry> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Re-queue shards whose lease lapsed; mark their holders lost.
    fn expire_stale(&self, inner: &mut Registry) {
        let now = Instant::now();
        let Some(job) = inner.active.as_mut() else {
            return;
        };
        let mut lost_workers = Vec::new();
        for s in &mut job.shards {
            if let ShardStatus::Leased { worker, expires } = s.status {
                if expires <= now {
                    s.status = ShardStatus::Queued;
                    self.releases.fetch_add(1, Ordering::Relaxed);
                    lost_workers.push(worker);
                }
            }
        }
        for w in lost_workers {
            if let Some(info) = inner.workers.get_mut(&w) {
                info.lost = true;
            }
        }
    }

    // ---- endpoint handlers -------------------------------------------------

    fn register(&self, req: &Request) -> Response {
        let body = String::from_utf8_lossy(&req.body);
        let addr = parse_flat_object(body.trim())
            .and_then(|o| o.get("addr")?.as_str().map(str::to_string))
            .unwrap_or_default();
        let mut inner = self.lock();
        inner.next_worker += 1;
        let id = inner.next_worker;
        inner.workers.insert(id, WorkerInfo { addr, lost: false });
        let mut w = JsonLine::new();
        w.u64_field("worker", id);
        w.u64_field("lease_ms", self.lease.as_millis() as u64);
        Response::json(200, w.finish())
    }

    fn lease(&self, req: &Request) -> Response {
        let body = String::from_utf8_lossy(&req.body);
        let Some(worker) = parse_flat_object(body.trim()).and_then(|o| o.get("worker")?.as_u64())
        else {
            return json_error(400, "lease needs a worker id");
        };
        let mut inner = self.lock();
        match inner.workers.get_mut(&worker) {
            Some(info) => info.lost = false,
            None => return json_error(409, "unknown worker; re-register"),
        }
        self.expire_stale(&mut inner);
        let Some(job) = inner.active.as_mut() else {
            return Response::new(204);
        };
        let job_id = job.id;
        let Some(s) = job
            .shards
            .iter_mut()
            .find(|s| matches!(s.status, ShardStatus::Queued))
        else {
            return Response::new(204);
        };
        s.status = ShardStatus::Leased {
            worker,
            expires: Instant::now() + self.lease,
        };
        let spec_line = self
            .store
            .get(job_id)
            .map(|rec| rec.spec)
            .unwrap_or_default();
        let lease = shard::Lease {
            job: job_id,
            shard: s.plan.id.clone(),
            start: s.plan.start,
            end: s.plan.end,
            spec: spec_line,
            lease_ms: self.lease.as_millis() as u64,
        };
        Response::json(200, lease.render())
    }

    fn heartbeat(&self, req: &Request) -> Response {
        let body = String::from_utf8_lossy(&req.body);
        let obj = parse_flat_object(body.trim());
        let worker = obj.as_ref().and_then(|o| o.get("worker")?.as_u64());
        let job = obj.as_ref().and_then(|o| o.get("job")?.as_u64());
        let shard = obj
            .as_ref()
            .and_then(|o| o.get("shard")?.as_str().map(str::to_string));
        let (Some(worker), Some(job_id), Some(shard)) = (worker, job, shard) else {
            return json_error(400, "heartbeat needs worker, job and shard");
        };
        let mut inner = self.lock();
        let mut ok = false;
        if let Some(job) = inner.active.as_mut() {
            if job.id == job_id {
                for s in &mut job.shards {
                    if s.plan.id == shard {
                        if let ShardStatus::Leased { worker: holder, .. } = s.status {
                            if holder == worker {
                                s.status = ShardStatus::Leased {
                                    worker,
                                    expires: Instant::now() + self.lease,
                                };
                                ok = true;
                            }
                        }
                    }
                }
            }
        }
        let mut w = JsonLine::new();
        w.raw_field("ok", if ok { "true" } else { "false" });
        Response::json(200, w.finish())
    }

    fn complete(&self, req: &Request) -> Response {
        let body = String::from_utf8_lossy(&req.body);
        let (header, rest) = match body.split_once('\n') {
            Some(pair) => pair,
            None => (body.as_ref(), ""),
        };
        let Some(rec) = MergedShard::parse(header.trim()) else {
            return json_error(400, "complete needs a merged-shard header line");
        };
        let lines: Vec<String> = rest
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(str::to_string)
            .collect();
        if lines.len() != rec.end - rec.start
            || lines.iter().any(|l| checkpoint::parse_record(l).is_none())
        {
            return json_error(400, "complete carries malformed checkpoint records");
        }

        let merged = {
            let mut inner = self.lock();
            let key = (rec.job, rec.shard.clone());
            let duplicate = inner.merged.contains_key(&key);
            let belongs = inner.active.as_ref().is_some_and(|j| {
                j.id == rec.job && j.shards.iter().any(|s| s.plan.id == rec.shard)
            });
            if duplicate || !belongs {
                false
            } else {
                // Persist before acknowledging: checkpoint lines first,
                // then the journal record. A crash in between leaves
                // duplicate checkpoint lines for the re-leased shard,
                // which compaction dedupes by config key.
                if let Err(e) = self.store.append_result_lines(rec.job, &lines) {
                    return json_error(500, &format!("append results: {e}"));
                }
                {
                    let mut journal = self.journal.lock().unwrap_or_else(|p| p.into_inner());
                    if let Err(e) =
                        writeln!(journal, "{}", rec.render()).and_then(|_| journal.flush())
                    {
                        return json_error(500, &format!("journal shard: {e}"));
                    }
                }
                if let Some(job) = inner.active.as_mut() {
                    for s in &mut job.shards {
                        if s.plan.id == rec.shard {
                            s.status = ShardStatus::Merged;
                        }
                    }
                }
                inner.merged.insert(key, rec);
                true
            }
        };
        self.wake.notify_all();
        let mut w = JsonLine::new();
        w.raw_field("merged", if merged { "true" } else { "false" });
        Response::json(200, w.finish())
    }

    // ---- the three seams ---------------------------------------------------

    /// The route hook serving the cluster endpoints.
    pub fn route_hook(self: &Arc<Self>) -> RouteHook {
        let cluster = Arc::clone(self);
        Arc::new(move |req: &Request| {
            let cluster_path = matches!(
                req.path.as_str(),
                "/register" | "/lease" | "/heartbeat" | "/complete"
            );
            if !cluster_path {
                return None;
            }
            if req.method != "POST" {
                return Some(json_error(405, "cluster endpoints are POST-only"));
            }
            Some(match req.path.as_str() {
                "/register" => cluster.register(req),
                "/lease" => cluster.lease(req),
                "/heartbeat" => cluster.heartbeat(req),
                _ => cluster.complete(req),
            })
        })
    }

    /// The job executor dispatching shards to workers.
    pub fn executor(self: &Arc<Self>) -> JobExecutor {
        let cluster = Arc::clone(self);
        Arc::new(move |rec: &JobRecord, token: &CancelToken| cluster.execute(rec, token))
    }

    /// The `/metrics` extra renderer appending the cluster gauges.
    pub fn metrics_renderer(self: &Arc<Self>) -> Box<dyn Fn(&mut String) + Send + Sync> {
        let cluster = Arc::clone(self);
        Box::new(move |out: &mut String| cluster.render_metrics(out))
    }

    /// Dispatch one job's shards to the worker pool and assemble the
    /// merged [`SweepResult`] once every shard has landed.
    fn execute(&self, rec: &JobRecord, token: &CancelToken) -> Result<Option<String>, String> {
        let req = spec::spec_to_request(&rec.spec)?;
        if req.mode == core_cli::CliMode::Dse {
            // An iterative search cannot be pre-sharded — each batch
            // depends on the previous one's measurements — so DSE jobs
            // run on the coordinator's own engine, checkpointed in the
            // same store the sharded path merges into.
            let engine = core_cli::build_engine(&req, None).with_cancel(Some(token.clone()));
            let ckpt = self
                .store
                .checkpoint(rec.id)
                .map_err(|e| format!("checkpoint: {e}"))?;
            let result = core_cli::run_dse(&engine, &req, Some(&ckpt));
            self.metrics.absorb_dse(&result);
            if token.is_cancelled() {
                return Ok(None);
            }
            return Ok(Some(core_cli::render_dse_report(&req, &result)));
        }
        let space = core_cli::sweep_param_space(&req);
        let configs = space.configs();
        let plans = shard::plan(
            req.target.label(),
            &rec.spec,
            configs.len(),
            self.shard_points,
        );

        {
            let mut inner = self.lock();
            let shards = plans
                .iter()
                .map(|p| ShardState {
                    status: if inner.merged.contains_key(&(rec.id, p.id.clone())) {
                        ShardStatus::Merged
                    } else {
                        ShardStatus::Queued
                    },
                    plan: p.clone(),
                })
                .collect();
            inner.active = Some(ActiveJob { id: rec.id, shards });
        }

        // Wait for the pool to drain the shard queue. Workers poll
        // /lease over HTTP; the condvar only shortens the exit latency
        // when /complete lands.
        let mut inner = self.lock();
        loop {
            if token.is_cancelled() {
                inner.active = None;
                return Ok(None);
            }
            self.expire_stale(&mut inner);
            let done = inner.active.as_ref().is_some_and(|j| {
                j.shards
                    .iter()
                    .all(|s| matches!(s.status, ShardStatus::Merged))
            });
            if done {
                inner.active = None;
                break;
            }
            let (g, _) = self
                .wake
                .wait_timeout(inner, Duration::from_millis(25))
                .unwrap_or_else(|p| p.into_inner());
            inner = g;
        }
        drop(inner);

        // Assemble: dedupe the checkpoint (re-leased shards may have
        // appended twice), then look every config up — re-attaching
        // the real KernelConfig, which the wire records carry only as
        // a key.
        let path = self.store.checkpoint_path(rec.id);
        Checkpoint::compact(&path).map_err(|e| format!("compact merged checkpoint: {e}"))?;
        let ckpt = Checkpoint::resume(&path).map_err(|e| format!("open merged checkpoint: {e}"))?;
        let mut points = Vec::with_capacity(configs.len());
        for cfg in &configs {
            points.push(ckpt.lookup(cfg).ok_or_else(|| {
                format!(
                    "merged checkpoint is missing {}",
                    checkpoint::config_key(cfg)
                )
            })?);
        }
        let mut counters = ShardCounters::default();
        {
            let inner = self.lock();
            for p in &plans {
                if let Some(m) = inner.merged.get(&(rec.id, p.id.clone())) {
                    counters.absorb(&m.counters);
                }
            }
        }
        let mut result = SweepResult {
            points,
            cache: Default::default(),
            retry: Default::default(),
            faults: Default::default(),
            resumed: 0,
        };
        counters.fill_result(&mut result);
        self.metrics.absorb_sweep(&result);
        if token.is_cancelled() {
            return Ok(None);
        }
        Ok(Some(core_cli::render_sweep_report(&req, &result)))
    }

    fn render_metrics(&self, out: &mut String) {
        let (live, lost, queued, leased, merged_active, merged_total) = {
            let inner = self.lock();
            let live = inner.workers.values().filter(|w| !w.lost).count();
            let lost = inner.workers.values().filter(|w| w.lost).count();
            let mut queued = 0usize;
            let mut leased = 0usize;
            let mut merged_active = 0usize;
            if let Some(job) = inner.active.as_ref() {
                for s in &job.shards {
                    match s.status {
                        ShardStatus::Queued => queued += 1,
                        ShardStatus::Leased { .. } => leased += 1,
                        ShardStatus::Merged => merged_active += 1,
                    }
                }
            }
            (
                live,
                lost,
                queued,
                leased,
                merged_active,
                inner.merged.len(),
            )
        };
        let releases = self.releases.load(Ordering::Relaxed);
        let mut gauge = |name: &str, help: &str, kind: &str, value: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
            ));
        };
        gauge(
            "mpstream_cluster_workers_live",
            "Registered workers not currently marked lost.",
            "gauge",
            live as u64,
        );
        gauge(
            "mpstream_cluster_workers_lost",
            "Workers whose lease expired without completion.",
            "gauge",
            lost as u64,
        );
        gauge(
            "mpstream_cluster_shards_queued",
            "Shards of the active job waiting for a worker.",
            "gauge",
            queued as u64,
        );
        gauge(
            "mpstream_cluster_shards_leased",
            "Shards of the active job currently leased.",
            "gauge",
            leased as u64,
        );
        gauge(
            "mpstream_cluster_shards_merged",
            "Shards of the active job already merged.",
            "gauge",
            merged_active as u64,
        );
        gauge(
            "mpstream_cluster_shards_merged_total",
            "Shards merged across all jobs since the journal began.",
            "counter",
            merged_total as u64,
        );
        gauge(
            "mpstream_cluster_shard_releases_total",
            "Expired leases that sent a shard back to the queue.",
            "counter",
            releases,
        );
    }
}

/// A serve daemon with the cluster seams installed.
pub struct Coordinator {
    server: Server,
    cluster: Arc<Cluster>,
}

impl Coordinator {
    /// Bind the underlying server and install the cluster seams.
    pub fn bind(opts: CoordinatorOpts) -> std::io::Result<Coordinator> {
        let server = Server::bind(opts.serve)?;
        let cluster = Cluster::open(
            server.store(),
            server.metrics(),
            opts.lease,
            opts.shard_points,
        )?;
        server.set_route_hook(cluster.route_hook());
        server.manager().set_executor(cluster.executor());
        server
            .metrics()
            .set_extra_renderer(cluster.metrics_renderer());
        Ok(Coordinator { server, cluster })
    }

    /// The actually-bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.server.local_addr()
    }

    /// A handle that makes `run` return.
    pub fn shutdown_handle(&self) -> std::io::Result<ShutdownHandle> {
        self.server.shutdown_handle()
    }

    /// The shared result store.
    pub fn store(&self) -> Arc<ResultStore> {
        self.server.store()
    }

    /// The shared cluster state (exposed for tests and metrics).
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// Path of the shard journal inside a store directory.
    pub fn journal_path(store_dir: &std::path::Path) -> PathBuf {
        store_dir.join(Cluster::JOURNAL)
    }

    /// Serve until shut down, then drain (delegates to the server).
    pub fn run(self) -> std::io::Result<()> {
        self.server.run()
    }
}
