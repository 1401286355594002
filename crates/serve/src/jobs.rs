//! The job manager: a bounded queue of submitted sweeps drained by one
//! runner thread onto the core engine.
//!
//! One runner on purpose: each sweep already fans out across the
//! engine's worker pool (`jobs` in the spec), so running jobs serially
//! keeps device-model timing honest and makes every job's results
//! independent of what else was queued. Backpressure is explicit — a
//! full queue refuses the submit (the HTTP layer turns that into a 503
//! with `Retry-After`) instead of buffering unboundedly.
//!
//! Cancellation is cooperative via the engine's [`CancelToken`]: a
//! user cancel marks the job `Cancelled`; a daemon shutdown cancels the
//! token too but re-queues the job, so the next start resumes it from
//! its checkpoint. Either way the points already measured are on disk —
//! the engine checkpoints each one as its worker finishes.

use crate::metrics::Metrics;
use crate::spec;
use crate::store::{JobRecord, JobState, ResultStore};
use crate::tenant::ANONYMOUS;
use mpstream_core::cli::{self, CliRequest};
use mpstream_core::CancelToken;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// The tenant a record belongs to, with pre-tenancy journals ("") owned
/// by the anonymous tenant.
fn tenant_of(rec: &JobRecord) -> &str {
    if rec.tenant.is_empty() {
        ANONYMOUS
    } else {
        &rec.tenant
    }
}

/// A pluggable job execution strategy. Runs one job to completion and
/// returns `Ok(Some(report))` when finished, `Ok(None)` when the token
/// cancelled it mid-run (the manager then decides cancelled-vs-requeue),
/// or `Err` on hard failure. The default executes on the in-process
/// engine (`JobManager::execute_local`); the cluster coordinator
/// installs a shard-dispatching executor instead.
pub type JobExecutor =
    Arc<dyn Fn(&JobRecord, &CancelToken) -> Result<Option<String>, String> + Send + Sync>;

/// Newtype so `JobManager` can keep deriving `Debug`.
struct Exec(JobExecutor);

impl std::fmt::Debug for Exec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JobExecutor")
    }
}

/// Why a submit was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The job queue is at capacity — retry later (HTTP 503).
    Busy {
        /// Configured queue capacity, for the error body.
        capacity: usize,
    },
    /// The spec failed validation (HTTP 400).
    Invalid(String),
    /// The store could not record the job (HTTP 500).
    Store(String),
    /// The tenant is at its queue quota — retry later (HTTP 429).
    Quota {
        /// The tenant that hit its quota.
        tenant: String,
        /// The tenant's configured quota, for the error body.
        quota: usize,
    },
}

#[derive(Debug)]
struct Running {
    id: u64,
    token: CancelToken,
    user_cancelled: bool,
}

#[derive(Debug, Default)]
struct Inner {
    queue: VecDeque<u64>,
    running: Option<Running>,
    shutdown: bool,
    /// Live (queued or running) jobs per tenant — what queue quotas
    /// count against. A slot is taken at submit and released the moment
    /// the job stops being live: queued-cancel or terminal transition.
    live: HashMap<String, usize>,
}

/// The manager. Cheap to share; all state is behind one mutex.
#[derive(Debug)]
pub struct JobManager {
    store: Arc<ResultStore>,
    metrics: Arc<Metrics>,
    capacity: usize,
    inner: Mutex<Inner>,
    wake: Condvar,
    executor: OnceLock<Exec>,
}

impl JobManager {
    /// Build a manager over a store, re-queuing any job a previous
    /// daemon left `queued` or `running` (in id order).
    pub fn new(store: Arc<ResultStore>, metrics: Arc<Metrics>, capacity: usize) -> Arc<Self> {
        let mut inner = Inner::default();
        for rec in store.jobs() {
            if rec.state.is_live() {
                *inner.live.entry(tenant_of(&rec).to_string()).or_default() += 1;
                inner.queue.push_back(rec.id);
            }
        }
        Metrics::set(&metrics.queue_depth, inner.queue.len() as u64);
        Arc::new(JobManager {
            store,
            metrics,
            capacity: capacity.max(1),
            inner: Mutex::new(inner),
            wake: Condvar::new(),
            executor: OnceLock::new(),
        })
    }

    /// The backing store.
    pub fn store(&self) -> &Arc<ResultStore> {
        &self.store
    }

    /// The metrics registry jobs are accounted against.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Replace the local-engine execution path with a custom
    /// [`JobExecutor`]. First caller wins; later calls are ignored.
    /// Install before [`spawn_runner`](Self::spawn_runner).
    pub fn set_executor(&self, exec: JobExecutor) {
        let _ = self.executor.set(Exec(exec));
    }

    /// Jobs currently waiting.
    pub fn queue_depth(&self) -> usize {
        self.inner.lock().expect("jobs mutex poisoned").queue.len()
    }

    /// Validate and enqueue a spec under the anonymous tenant with no
    /// quota. Returns the queued record.
    pub fn submit(&self, spec_line: &str) -> Result<JobRecord, SubmitError> {
        self.submit_for(spec_line, ANONYMOUS, 0)
    }

    /// Live (queued or running) jobs attributed to `tenant`.
    pub fn live_jobs(&self, tenant: &str) -> usize {
        self.inner
            .lock()
            .expect("jobs mutex poisoned")
            .live
            .get(tenant)
            .copied()
            .unwrap_or(0)
    }

    /// Validate and enqueue a spec for `tenant`, holding it to `quota`
    /// live jobs (0 = unlimited). Returns the queued record.
    pub fn submit_for(
        &self,
        spec_line: &str,
        tenant: &str,
        quota: usize,
    ) -> Result<JobRecord, SubmitError> {
        let req = spec::spec_to_request(spec_line).map_err(SubmitError::Invalid)?;
        let total = spec::total_points(&req);
        let mut inner = self.inner.lock().expect("jobs mutex poisoned");
        if inner.shutdown {
            return Err(SubmitError::Busy {
                capacity: self.capacity,
            });
        }
        if inner.queue.len() >= self.capacity {
            Metrics::inc(&self.metrics.http_busy);
            return Err(SubmitError::Busy {
                capacity: self.capacity,
            });
        }
        let live = inner.live.get(tenant).copied().unwrap_or(0);
        if quota > 0 && live >= quota {
            return Err(SubmitError::Quota {
                tenant: tenant.to_string(),
                quota,
            });
        }
        let rec = JobRecord {
            id: self.store.next_id(),
            state: JobState::Queued,
            spec: spec_line.to_string(),
            total,
            error: String::new(),
            tenant: tenant.to_string(),
            updated_unix: 0,
        };
        self.store
            .record(&rec)
            .map_err(|e| SubmitError::Store(e.to_string()))?;
        *inner.live.entry(tenant.to_string()).or_default() += 1;
        inner.queue.push_back(rec.id);
        Metrics::set(&self.metrics.queue_depth, inner.queue.len() as u64);
        Metrics::inc(&self.metrics.jobs_submitted);
        drop(inner);
        self.wake.notify_all();
        Ok(rec)
    }

    /// Release `tenant`'s quota slot for a job that stopped being live.
    fn release_slot(inner: &mut Inner, tenant: &str) {
        if let Some(n) = inner.live.get_mut(tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                inner.live.remove(tenant);
            }
        }
    }

    /// A job's record plus its completed-point count.
    pub fn status(&self, id: u64) -> Option<(JobRecord, usize)> {
        let rec = self.store.get(id)?;
        let done = self.store.done_points(id);
        Some((rec, done))
    }

    /// Cancel a job. Queued jobs become `Cancelled` immediately; a
    /// running job gets its token cancelled and converges to
    /// `Cancelled` when the engine notices. Returns the job's state
    /// after the call, `None` for unknown ids.
    pub fn cancel(&self, id: u64) -> Option<JobState> {
        let rec = self.store.get(id)?;
        let mut inner = self.inner.lock().expect("jobs mutex poisoned");
        if let Some(pos) = inner.queue.iter().position(|&q| q == id) {
            inner.queue.remove(pos);
            // The job will never run: its tenant's quota slot frees
            // right now, not when the runner would have reached it.
            Self::release_slot(&mut inner, tenant_of(&rec));
            Metrics::set(&self.metrics.queue_depth, inner.queue.len() as u64);
            drop(inner);
            let cancelled = JobRecord {
                state: JobState::Cancelled,
                ..rec
            };
            self.store.record(&cancelled).ok()?;
            Metrics::inc(&self.metrics.jobs_cancelled);
            return Some(JobState::Cancelled);
        }
        if let Some(running) = inner.running.as_mut() {
            if running.id == id {
                running.user_cancelled = true;
                running.token.cancel();
                return Some(JobState::Running);
            }
        }
        Some(rec.state)
    }

    /// Begin shutdown: refuse new submits, cancel the running job's
    /// token *without* marking it user-cancelled (so it re-queues), and
    /// wake the runner so it can exit. Queued jobs stay queued in the
    /// journal and resume on the next start.
    pub fn shutdown(&self) {
        let mut inner = self.inner.lock().expect("jobs mutex poisoned");
        inner.shutdown = true;
        if let Some(running) = inner.running.as_ref() {
            running.token.cancel();
        }
        drop(inner);
        self.wake.notify_all();
    }

    /// Start the runner thread. Exits when [`shutdown`](Self::shutdown)
    /// is called (after re-queuing any in-flight job).
    pub fn spawn_runner(self: &Arc<Self>) -> JoinHandle<()> {
        let mgr = Arc::clone(self);
        std::thread::Builder::new()
            .name("mpstream-job-runner".into())
            .spawn(move || mgr.runner_loop())
            .expect("spawn job runner")
    }

    fn runner_loop(&self) {
        loop {
            let (id, token) = {
                let mut inner = self.inner.lock().expect("jobs mutex poisoned");
                loop {
                    if inner.shutdown {
                        return;
                    }
                    if let Some(id) = inner.queue.pop_front() {
                        let token = CancelToken::new();
                        inner.running = Some(Running {
                            id,
                            token: token.clone(),
                            user_cancelled: false,
                        });
                        Metrics::set(&self.metrics.queue_depth, inner.queue.len() as u64);
                        Metrics::set(&self.metrics.jobs_running, 1);
                        break (id, token);
                    }
                    inner = self.wake.wait(inner).expect("jobs mutex poisoned");
                }
            };

            self.run_one(id, token);

            let mut inner = self.inner.lock().expect("jobs mutex poisoned");
            inner.running = None;
            Metrics::set(&self.metrics.jobs_running, 0);
            // A terminal landing releases the tenant's quota slot; a
            // shutdown re-queue keeps it (the job is still live).
            let terminal = match self.store.get(id) {
                Some(rec) if !rec.state.is_live() => {
                    Self::release_slot(&mut inner, tenant_of(&rec));
                    true
                }
                _ => false,
            };
            drop(inner);
            if terminal {
                // Finished jobs grow the store; hold it to its bounds.
                if let Err(why) = self.store.run_retention() {
                    eprintln!("mpstream serve: retention pass failed: {why}");
                }
            }
        }
    }

    /// Execute one job end to end, recording its terminal state.
    fn run_one(&self, id: u64, token: CancelToken) {
        let Some(rec) = self.store.get(id) else {
            return;
        };
        if let Err(why) = self.store.record(&JobRecord {
            state: JobState::Running,
            ..rec.clone()
        }) {
            let _ = self.store.record(&JobRecord {
                state: JobState::Failed,
                error: why.to_string(),
                ..rec
            });
            Metrics::inc(&self.metrics.jobs_failed);
            return;
        }

        match self.execute(&rec, &token) {
            Ok(()) => {}
            Err(why) => {
                let _ = self.store.record(&JobRecord {
                    state: JobState::Failed,
                    error: why,
                    ..rec
                });
                Metrics::inc(&self.metrics.jobs_failed);
            }
        }
    }

    /// Run `rec` through the installed executor (or the local engine)
    /// and record its terminal state.
    fn execute(&self, rec: &JobRecord, token: &CancelToken) -> Result<(), String> {
        let report = match self.executor.get() {
            Some(Exec(exec)) => exec(rec, token)?,
            None => self.execute_local(rec, token)?,
        };

        let Some(report) = report else {
            // Cancelled mid-run. A user cancel converges to Cancelled;
            // a shutdown drain re-queues for the next start — finished
            // points are already in the store either way.
            let user_cancelled = {
                let inner = self.inner.lock().expect("jobs mutex poisoned");
                inner
                    .running
                    .as_ref()
                    .is_some_and(|r| r.id == rec.id && r.user_cancelled)
            };
            let state = if user_cancelled {
                Metrics::inc(&self.metrics.jobs_cancelled);
                JobState::Cancelled
            } else {
                JobState::Queued
            };
            self.store
                .record(&JobRecord {
                    state,
                    ..rec.clone()
                })
                .map_err(|e| e.to_string())?;
            return Ok(());
        };

        self.store
            .write_report(rec.id, &report)
            .map_err(|e| format!("report: {e}"))?;
        self.store
            .record(&JobRecord {
                state: JobState::Done,
                ..rec.clone()
            })
            .map_err(|e| e.to_string())?;
        Metrics::inc(&self.metrics.jobs_completed);
        Ok(())
    }

    /// The default execution path: the in-process engine, resuming from
    /// the job's checkpoint. `None` when the token fired mid-run.
    fn execute_local(
        &self,
        rec: &JobRecord,
        token: &CancelToken,
    ) -> Result<Option<String>, String> {
        let req: CliRequest = spec::spec_to_request(&rec.spec)?;
        let engine = cli::build_engine(&req, None).with_cancel(Some(token.clone()));
        let ckpt = self
            .store
            .checkpoint(rec.id)
            .map_err(|e| format!("checkpoint: {e}"))?;
        if req.mode == cli::CliMode::Dse {
            let result = cli::run_dse(&engine, &req, Some(&ckpt));
            self.metrics.absorb_dse(&result);
            if token.is_cancelled() {
                return Ok(None);
            }
            return Ok(Some(cli::render_dse_report(&req, &result)));
        }
        let result = cli::run_sweep(&engine, &req, Some(&ckpt));
        self.metrics.absorb_sweep(&result);
        if token.is_cancelled() {
            return Ok(None);
        }
        Ok(Some(cli::render_sweep_report(&req, &result)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::{Duration, Instant};

    fn temp_dir(tag: &str) -> PathBuf {
        static UNIQ: AtomicU64 = AtomicU64::new(0);
        let n = UNIQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("mpstream-jobs-{tag}-{}-{n}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn manager(dir: &PathBuf, capacity: usize) -> Arc<JobManager> {
        let store = Arc::new(ResultStore::open(dir).unwrap());
        JobManager::new(store, Arc::new(Metrics::default()), capacity)
    }

    const TINY: &str =
        "{\"kernels\":\"copy\",\"size_bytes\":65536,\"vectors\":\"1,2\",\"ntimes\":1,\"jobs\":1}";

    fn wait_for(mgr: &JobManager, id: u64, state: JobState) {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let (rec, _) = mgr.status(id).expect("job exists");
            if rec.state == state {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "job {id} stuck in {:?} waiting for {state:?}",
                rec.state
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn submit_run_report_lifecycle() {
        let dir = temp_dir("lifecycle");
        let mgr = manager(&dir, 4);
        let runner = mgr.spawn_runner();
        let rec = mgr.submit(TINY).unwrap();
        assert_eq!(rec.total, 2);
        wait_for(&mgr, rec.id, JobState::Done);
        let (done, points) = mgr.status(rec.id).unwrap();
        assert_eq!(points, 2, "both points checkpointed");
        assert_eq!(done.state, JobState::Done);
        let report = mgr.store().read_report(rec.id).unwrap();
        assert!(report.contains("sweep on"), "{report}");
        mgr.shutdown();
        runner.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn full_queue_refuses_with_busy() {
        let dir = temp_dir("busy");
        let mgr = manager(&dir, 1);
        // No runner: the queue cannot drain.
        mgr.submit(TINY).unwrap();
        match mgr.submit(TINY) {
            Err(SubmitError::Busy { capacity }) => assert_eq!(capacity, 1),
            other => panic!("expected Busy, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_spec_is_rejected_without_a_job() {
        let dir = temp_dir("invalid");
        let mgr = manager(&dir, 4);
        assert!(matches!(
            mgr.submit("{\"target\":\"tpu\"}"),
            Err(SubmitError::Invalid(_))
        ));
        assert!(mgr.store().jobs().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn queued_job_cancels_immediately() {
        let dir = temp_dir("cancel");
        let mgr = manager(&dir, 4);
        // No runner: the job stays queued.
        let rec = mgr.submit(TINY).unwrap();
        assert_eq!(mgr.cancel(rec.id), Some(JobState::Cancelled));
        assert_eq!(mgr.store().get(rec.id).unwrap().state, JobState::Cancelled);
        assert_eq!(mgr.cancel(999), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn queue_quota_holds_one_tenant_without_touching_the_other() {
        let dir = temp_dir("quota");
        let mgr = manager(&dir, 8);
        // No runner: everything stays queued and live.
        mgr.submit_for(TINY, "bursty", 2).unwrap();
        mgr.submit_for(TINY, "bursty", 2).unwrap();
        match mgr.submit_for(TINY, "bursty", 2) {
            Err(SubmitError::Quota { tenant, quota }) => {
                assert_eq!(tenant, "bursty");
                assert_eq!(quota, 2);
            }
            other => panic!("expected Quota, got {other:?}"),
        }
        assert_eq!(mgr.live_jobs("bursty"), 2);
        // The other tenant and the unlimited path are unaffected.
        mgr.submit_for(TINY, "steady", 4).unwrap();
        mgr.submit(TINY).unwrap();
        assert_eq!(mgr.live_jobs("steady"), 1);
        assert_eq!(mgr.live_jobs(ANONYMOUS), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cancelling_a_queued_job_releases_its_quota_slot() {
        let dir = temp_dir("quota-cancel");
        let mgr = manager(&dir, 8);
        let a = mgr.submit_for(TINY, "bursty", 2).unwrap();
        mgr.submit_for(TINY, "bursty", 2).unwrap();
        assert!(matches!(
            mgr.submit_for(TINY, "bursty", 2),
            Err(SubmitError::Quota { .. })
        ));
        assert_eq!(mgr.cancel(a.id), Some(JobState::Cancelled));
        assert_eq!(mgr.live_jobs("bursty"), 1, "slot freed immediately");
        mgr.submit_for(TINY, "bursty", 2)
            .expect("freed slot admits the next submit");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quota_slots_rebuild_from_a_reopened_journal() {
        let dir = temp_dir("quota-reopen");
        {
            let mgr = manager(&dir, 8);
            mgr.submit_for(TINY, "bursty", 2).unwrap();
            let done = mgr.submit_for(TINY, "steady", 0).unwrap();
            mgr.cancel(done.id);
        }
        let mgr = manager(&dir, 8);
        assert_eq!(mgr.live_jobs("bursty"), 1, "queued job still holds a slot");
        assert_eq!(mgr.live_jobs("steady"), 0, "cancelled job holds none");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn finished_jobs_release_their_quota_slot() {
        let dir = temp_dir("quota-finish");
        let mgr = manager(&dir, 8);
        let runner = mgr.spawn_runner();
        let rec = mgr.submit_for(TINY, "bursty", 1).unwrap();
        wait_for(&mgr, rec.id, JobState::Done);
        // The slot frees after the terminal transition lands.
        let deadline = Instant::now() + Duration::from_secs(10);
        while mgr.live_jobs("bursty") != 0 {
            assert!(Instant::now() < deadline, "slot never released");
            std::thread::sleep(Duration::from_millis(5));
        }
        mgr.submit_for(TINY, "bursty", 1)
            .expect("slot is free again");
        mgr.shutdown();
        runner.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn live_jobs_requeue_on_reopen() {
        let dir = temp_dir("requeue");
        {
            let mgr = manager(&dir, 4);
            mgr.submit(TINY).unwrap();
        }
        let mgr = manager(&dir, 4);
        assert_eq!(mgr.queue_depth(), 1, "queued job came back");
        let runner = mgr.spawn_runner();
        wait_for(&mgr, 1, JobState::Done);
        mgr.shutdown();
        runner.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
