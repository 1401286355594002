//! The daemon's persistent result store: a directory of append-only
//! JSONL files, all in the `mpstream_core::json` dialect.
//!
//! * `jobs.jsonl` — the job journal. One line per state change; the
//!   last line per id wins. Replaying it at startup reconstructs every
//!   job the daemon has ever accepted, which is how completed sweeps
//!   survive restarts and how interrupted ones get re-queued.
//! * `job-<id>.jsonl` — one sweep checkpoint per job, written by the
//!   engine as workers finish points (the PR-2 checkpoint format,
//!   verbatim). Doubles as the job's incremental result feed: `GET
//!   /jobs/<id>/results` pages over its lines, and a restarted daemon
//!   resumes the sweep from it.
//! * `job-<id>.report` — the rendered report of a finished job, the
//!   exact bytes the offline `mpstream sweep` would print.
//!
//! Everything is append-then-flush, so a crash at any instant loses at
//! most one torn line. [`ResultStore::open`] compacts the journal and
//! every checkpoint on startup (last record per key, torn tails
//! dropped), converging the directory back to a clean state.
//!
//! Each job also has a change signal (`JobSignal`) that every writer
//! bumps once its change has landed: a state change in the journal, a
//! merged batch of lines, or a record the engine appended through the
//! checkpoint from [`ResultStore::checkpoint`]. Result streams wait on
//! it instead of polling.

use crate::retention::{RetentionPolicy, RetentionStats};
use mpstream_core::json::{compact_jsonl, parse_flat_object, CompactStats, JsonLine};
use mpstream_core::Checkpoint;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Wall-clock seconds since the epoch — the journal's age notion for
/// retention. Coarse on purpose: eviction decisions span minutes.
fn now_unix() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Lifecycle of a job. `Queued` and `Running` are the live states a
/// restart re-queues; the other three are terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for the runner.
    Queued,
    /// Executing on the engine.
    Running,
    /// Finished; report written.
    Done,
    /// Aborted by an execution/store error (see the record's `error`).
    Failed,
    /// Cooperatively cancelled.
    Cancelled,
}

impl JobState {
    /// Wire/journal label.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parse a journal label.
    pub fn from_label(s: &str) -> Option<JobState> {
        match s {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "done" => Some(JobState::Done),
            "failed" => Some(JobState::Failed),
            "cancelled" => Some(JobState::Cancelled),
            _ => None,
        }
    }

    /// Is this a state a restarted daemon should resume?
    pub fn is_live(self) -> bool {
        matches!(self, JobState::Queued | JobState::Running)
    }
}

/// One job as the journal knows it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRecord {
    /// Job id (dense, assigned at submit).
    pub id: u64,
    /// Current lifecycle state.
    pub state: JobState,
    /// The job-spec JSON line as submitted.
    pub spec: String,
    /// Total sweep points the spec describes.
    pub total: usize,
    /// Failure reason when `state` is `Failed`, else empty.
    pub error: String,
    /// Tenant the job was submitted under ("" for pre-tenancy journals;
    /// treated as the anonymous tenant).
    pub tenant: String,
    /// Unix seconds of the last state change, stamped by
    /// [`ResultStore::record`]. Retention evicts oldest-first by this.
    pub updated_unix: u64,
}

impl JobRecord {
    fn render(&self) -> String {
        let mut w = JsonLine::new();
        w.u64_field("id", self.id);
        w.str_field("state", self.state.label());
        w.u64_field("total", self.total as u64);
        w.str_field("spec", &self.spec);
        w.str_field("error", &self.error);
        w.str_field("tenant", &self.tenant);
        w.u64_field("updated_unix", self.updated_unix);
        w.finish()
    }

    fn parse(line: &str) -> Option<JobRecord> {
        let obj = parse_flat_object(line)?;
        Some(JobRecord {
            id: obj.get("id")?.as_u64()?,
            state: JobState::from_label(obj.get("state")?.as_str()?)?,
            spec: obj.get("spec")?.as_str()?.to_string(),
            total: obj.get("total")?.as_u64()? as usize,
            error: obj.get("error")?.as_str()?.to_string(),
            // Absent in journals written before tenancy/retention:
            // default rather than reject, so old stores keep opening.
            tenant: obj
                .get("tenant")
                .and_then(|v| v.as_str())
                .unwrap_or("")
                .to_string(),
            updated_unix: obj
                .get("updated_unix")
                .and_then(|v| v.as_u64())
                .unwrap_or(0),
        })
    }
}

/// Filters for the historical `GET /results` query. Empty strings match
/// everything; matching is case-insensitive substring.
#[derive(Debug, Clone, Default)]
pub struct ResultQuery {
    /// Substring of the measurement's device name.
    pub device: String,
    /// Substring of the configuration key (its `Debug` rendering).
    pub config: String,
    /// Kernel op name (`copy`/`scale`/`add`/`triad`).
    pub op: String,
    /// Restrict to one job id.
    pub job: Option<u64>,
}

/// What startup housekeeping did, summed over all files.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StartupStats {
    /// Files compacted (journal + per-job checkpoints).
    pub files: usize,
    /// Aggregate compaction counters.
    pub compaction: CompactStats,
}

/// One indexed checkpoint record: the pre-lowered match fields plus the
/// stored line, so a query touches no file and re-parses nothing.
#[derive(Debug)]
struct IndexEntry {
    /// `device` field, lowercased ("" when absent/non-string).
    device: String,
    /// `key` field, lowercased ("" when absent/non-string).
    key: String,
    /// The raw stored line.
    line: String,
}

/// Per-job index over a checkpoint file, kept in step with the file by
/// byte offset: a sync reads only the appended suffix.
#[derive(Debug, Default)]
struct JobIndex {
    /// Bytes of the checkpoint already folded in.
    offset: u64,
    /// Complete keyed records in those bytes.
    count: usize,
    /// The records themselves, in file order. Kept only for a job whose
    /// lines a reader asked for (pages, streams, queries); a job that
    /// was only counted (status, listing) keeps none.
    entries: Option<Vec<IndexEntry>>,
}

impl JobIndex {
    /// Forget what was folded in, keeping whether lines are kept.
    fn reset(&mut self) {
        self.offset = 0;
        self.count = 0;
        if let Some(entries) = &mut self.entries {
            entries.clear();
        }
    }

    /// The kept record lines (empty for a counted-only job).
    fn entries(&self) -> &[IndexEntry] {
        self.entries.as_deref().unwrap_or_default()
    }
}

/// Fold any bytes appended to `path` since the last sync into `ji`,
/// keeping their lines too when `keep_lines` is set (a counted-only
/// index then re-reads the file from the start). A shrunken file (a
/// merge compacted it) resets and rebuilds. An unterminated tail line
/// is *deferred*, not indexed — every writer appends whole
/// `writeln!`-terminated lines, so a missing newline means the record
/// is still in flight.
fn sync_index(path: &Path, ji: &mut JobIndex, keep_lines: bool) {
    if keep_lines && ji.entries.is_none() {
        *ji = JobIndex {
            entries: Some(Vec::new()),
            ..JobIndex::default()
        };
    }
    let Ok(mut f) = File::open(path) else {
        ji.reset();
        return;
    };
    let len = f.metadata().map(|m| m.len()).unwrap_or(0);
    if len < ji.offset {
        ji.reset();
    }
    if len == ji.offset || f.seek(SeekFrom::Start(ji.offset)).is_err() {
        return;
    }
    let mut reader = BufReader::new(f);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if !line.ends_with('\n') {
                    break;
                }
                ji.offset += n as u64;
                let trimmed = line.trim_end();
                let Some(obj) = parse_flat_object(trimmed) else {
                    continue;
                };
                if !obj.contains_key("key") {
                    continue;
                }
                ji.count += 1;
                if let Some(entries) = &mut ji.entries {
                    let field = |k: &str| {
                        obj.get(k)
                            .and_then(|v| v.as_str())
                            .unwrap_or("")
                            .to_lowercase()
                    };
                    entries.push(IndexEntry {
                        device: field("device"),
                        key: field("key"),
                        line: trimmed.to_string(),
                    });
                }
            }
        }
    }
}

/// A job's change signal: a counter that every writer of the job bumps
/// once its change has landed, and a condvar that wakes the job's
/// waiters — only this job's, never another's.
///
/// A waiter reads [`seq`](Self::seq) *before* it reads the state and
/// records the signal guards, then passes that value to
/// [`wait_past`](Self::wait_past). A change that lands after the read
/// has moved the counter by the time the waiter blocks, so no wake-up
/// is lost between the read and the wait.
#[derive(Debug, Default)]
pub(crate) struct JobSignal {
    seq: Mutex<u64>,
    moved: Condvar,
}

impl JobSignal {
    /// The counter now.
    pub(crate) fn seq(&self) -> u64 {
        *self.seq.lock().expect("signal mutex poisoned")
    }

    /// Block until the counter moves past `seen` or `timeout` passes,
    /// and return the counter.
    pub(crate) fn wait_past(&self, seen: u64, timeout: Duration) -> u64 {
        let seq = self.seq.lock().expect("signal mutex poisoned");
        let (seq, _) = self
            .moved
            .wait_timeout_while(seq, timeout, |seq| *seq == seen)
            .expect("signal mutex poisoned");
        *seq
    }

    fn bump(&self) {
        *self.seq.lock().expect("signal mutex poisoned") += 1;
        self.moved.notify_all();
    }
}

/// The store handle. All mutation goes through the journal append lock,
/// so concurrent HTTP readers see a consistent view.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    journal: Mutex<File>,
    jobs: Mutex<HashMap<u64, JobRecord>>,
    /// Per-job index of checkpoint records: the one reader behind
    /// status, listing, result pages, streams and queries. A job's entry
    /// is built on first read and re-synced against the checkpoint file
    /// length on every read — the engine appends checkpoints directly,
    /// so the index discovers those lines by the grown file, reading only
    /// the new suffix and skipping an unterminated last line.
    index: Mutex<HashMap<u64, JobIndex>>,
    /// Per-job change signals, made by the first waiter or checkpoint.
    /// A writer bumps only a signal that exists: a waiter that makes
    /// one later reads the change itself.
    signals: Mutex<HashMap<u64, Arc<JobSignal>>>,
    startup: StartupStats,
    policy: RetentionPolicy,
    /// Jobs evicted by retention over this handle's lifetime.
    evicted: AtomicU64,
    /// Bytes reclaimed by retention over this handle's lifetime.
    bytes_reclaimed: AtomicU64,
}

impl ResultStore {
    /// Open (creating if needed) the store directory with no retention
    /// bounds: compact the journal and every job checkpoint, then
    /// replay the journal.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::open_with(dir, RetentionPolicy::unbounded())
    }

    /// [`open`](Self::open) under a retention policy, applied once
    /// right after startup compaction (and again whenever
    /// [`run_retention`](Self::run_retention) is called).
    pub fn open_with(dir: impl AsRef<Path>, policy: RetentionPolicy) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;

        let mut startup = StartupStats::default();
        let mut fold = |stats: CompactStats| {
            startup.files += 1;
            startup.compaction.kept += stats.kept;
            startup.compaction.superseded += stats.superseded;
            startup.compaction.corrupt += stats.corrupt;
        };

        let journal_path = dir.join("jobs.jsonl");
        fold(compact_jsonl(&journal_path, |obj| {
            Some(obj.get("id")?.as_raw()?.to_string())
        })?);
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("job-") && name.ends_with(".jsonl") {
                fold(Checkpoint::compact(&path)?);
            }
        }

        let mut jobs = HashMap::new();
        match File::open(&journal_path) {
            Ok(f) => {
                for line in BufReader::new(f).lines() {
                    if let Some(rec) = JobRecord::parse(&line?) {
                        jobs.insert(rec.id, rec);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let journal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&journal_path)?;

        let store = ResultStore {
            dir,
            journal: Mutex::new(journal),
            jobs: Mutex::new(jobs),
            index: Mutex::new(HashMap::new()),
            signals: Mutex::new(HashMap::new()),
            startup,
            policy,
            evicted: AtomicU64::new(0),
            bytes_reclaimed: AtomicU64::new(0),
        };
        store.run_retention()?;
        Ok(store)
    }

    /// What startup compaction did.
    pub fn startup_stats(&self) -> StartupStats {
        self.startup
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Next unused job id (dense from 1).
    pub fn next_id(&self) -> u64 {
        let jobs = self.jobs.lock().expect("store mutex poisoned");
        jobs.keys().max().copied().unwrap_or(0) + 1
    }

    /// Append a record to the journal (flushed) and the in-memory view,
    /// stamping `updated_unix` so retention sees every state change as
    /// activity, then bump the job's change signal.
    pub fn record(&self, rec: &JobRecord) -> std::io::Result<()> {
        let mut rec = rec.clone();
        rec.updated_unix = now_unix();
        let line = rec.render();
        let id = rec.id;
        let mut journal = self.journal.lock().expect("store mutex poisoned");
        writeln!(journal, "{line}")?;
        journal.flush()?;
        drop(journal);
        self.jobs
            .lock()
            .expect("store mutex poisoned")
            .insert(id, rec);
        self.changed(id);
        Ok(())
    }

    /// Job `id`'s change signal, made on first use.
    pub(crate) fn signal(&self, id: u64) -> Arc<JobSignal> {
        let mut signals = self.signals.lock().expect("store mutex poisoned");
        Arc::clone(signals.entry(id).or_default())
    }

    /// Bump job `id`'s change signal, if anyone made it.
    fn changed(&self, id: u64) {
        if let Some(signal) = self.signals.lock().expect("store mutex poisoned").get(&id) {
            signal.bump();
        }
    }

    /// Bump every job's change signal, so every waiter returns and
    /// re-checks what else it waits for (the daemon's shutdown flag).
    pub(crate) fn wake_all(&self) {
        for signal in self.signals.lock().expect("store mutex poisoned").values() {
            signal.bump();
        }
    }

    /// Open job `id`'s checkpoint for resuming and appending, with a
    /// hook that bumps the job's change signal after each record.
    /// Every path that runs a job's points opens its checkpoint here.
    pub fn checkpoint(&self, id: u64) -> std::io::Result<Checkpoint> {
        let signal = self.signal(id);
        Ok(Checkpoint::resume(self.checkpoint_path(id))?.on_record(move || signal.bump()))
    }

    /// The current record for a job.
    pub fn get(&self, id: u64) -> Option<JobRecord> {
        self.jobs
            .lock()
            .expect("store mutex poisoned")
            .get(&id)
            .cloned()
    }

    /// All jobs, ordered by id.
    pub fn jobs(&self) -> Vec<JobRecord> {
        let mut all: Vec<JobRecord> = self
            .jobs
            .lock()
            .expect("store mutex poisoned")
            .values()
            .cloned()
            .collect();
        all.sort_by_key(|r| r.id);
        all
    }

    /// Path of a job's sweep checkpoint.
    pub fn checkpoint_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("job-{id}.jsonl"))
    }

    /// Path of a job's rendered report.
    pub fn report_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("job-{id}.report"))
    }

    /// Persist a finished job's report.
    pub fn write_report(&self, id: u64, text: &str) -> std::io::Result<()> {
        std::fs::write(self.report_path(id), text)
    }

    /// A finished job's report, if written.
    pub fn read_report(&self, id: u64) -> Option<String> {
        std::fs::read_to_string(self.report_path(id)).ok()
    }

    /// Run `read` over job `id`'s index after folding in whatever its
    /// checkpoint gained since the last read (lines too when
    /// `keep_lines` is set).
    fn with_index<T>(&self, id: u64, keep_lines: bool, read: impl FnOnce(&JobIndex) -> T) -> T {
        let mut index = self.index.lock().expect("store mutex poisoned");
        let ji = index.entry(id).or_default();
        sync_index(&self.checkpoint_path(id), ji, keep_lines);
        read(ji)
    }

    /// Completed points of a job: complete records of its checkpoint.
    /// Crash-consistent by construction — the engine appends and
    /// flushes each point as a worker finishes it. Counting keeps no
    /// record lines in memory.
    pub fn done_points(&self, id: u64) -> usize {
        self.with_index(id, false, |ji| ji.count)
    }

    /// The raw checkpoint record lines of a job, in completion order —
    /// the incremental result feed.
    pub fn result_lines(&self, id: u64) -> Vec<String> {
        self.result_page(id, 0, usize::MAX).0
    }

    /// Up to `limit` record lines of a job starting at record `offset`,
    /// and the job's record count.
    pub fn result_page(&self, id: u64, offset: usize, limit: usize) -> (Vec<String>, usize) {
        self.with_index(id, true, |ji| {
            let page = ji.entries().iter().skip(offset).take(limit);
            (page.map(|e| e.line.clone()).collect(), ji.count)
        })
    }

    /// Record lines the index keeps for job `id`; `None` when it keeps
    /// none (never read, or only counted).
    #[cfg(test)]
    fn kept_lines(&self, id: u64) -> Option<usize> {
        let index = self.index.lock().expect("store mutex poisoned");
        index.get(&id)?.entries.as_ref().map(Vec::len)
    }

    /// Append already-rendered checkpoint record lines to a job's
    /// checkpoint file (one write, one flush), fold them into the
    /// query index in the same step, then bump the job's change signal.
    /// The cluster merge path lands worker-shipped shards through this.
    pub fn append_result_lines(&self, id: u64, lines: &[String]) -> std::io::Result<()> {
        let path = self.checkpoint_path(id);
        // Hold the index lock across the write so a concurrent query's
        // resync cannot interleave with a half-appended batch.
        let mut index = self.index.lock().expect("store mutex poisoned");
        let mut f = OpenOptions::new().create(true).append(true).open(&path)?;
        let mut buf = String::new();
        for line in lines {
            buf.push_str(line.trim_end());
            buf.push('\n');
        }
        f.write_all(buf.as_bytes())?;
        f.flush()?;
        drop(f);
        sync_index(&path, index.entry(id).or_default(), false);
        drop(index);
        self.changed(id);
        Ok(())
    }

    /// Query historical results across all jobs, answered from the
    /// in-memory `(device, config, op)` index (re-synced against each
    /// checkpoint's appended suffix first). Each returned line is the
    /// stored checkpoint record with a `job` field spliced in front for
    /// provenance.
    pub fn query(&self, q: &ResultQuery) -> Vec<String> {
        let device = q.device.to_lowercase();
        let config = q.config.to_lowercase();
        let op = format!("op: {}", q.op.to_lowercase());
        let mut out = Vec::new();
        for rec in self.jobs() {
            if q.job.is_some_and(|id| id != rec.id) {
                continue;
            }
            self.with_index(rec.id, true, |ji| {
                for e in ji.entries() {
                    if !q.device.is_empty() && !e.device.contains(&device) {
                        continue;
                    }
                    if !q.config.is_empty() && !e.key.contains(&config) {
                        continue;
                    }
                    if !q.op.is_empty() && !e.key.contains(&op) {
                        continue;
                    }
                    // Splice provenance in front: the line is `{...}`.
                    out.push(format!("{{\"job\":{},{}", rec.id, &e.line[1..]));
                }
            });
        }
        out
    }

    /// Cumulative `(jobs evicted, bytes reclaimed)` by retention since
    /// open — the `/metrics` feed.
    pub fn retention_counters(&self) -> (u64, u64) {
        (
            self.evicted.load(Ordering::Relaxed),
            self.bytes_reclaimed.load(Ordering::Relaxed),
        )
    }

    /// Total bytes under the store directory right now (journal,
    /// checkpoints, reports, anything else present).
    pub fn disk_usage(&self) -> u64 {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        entries
            .flatten()
            .filter_map(|e| e.metadata().ok())
            .filter(|m| m.is_file())
            .map(|m| m.len())
            .sum()
    }

    /// Number of jobs the journal currently retains.
    pub fn job_count(&self) -> usize {
        self.jobs.lock().expect("store mutex poisoned").len()
    }

    /// Enforce the retention policy now: while either bound is
    /// exceeded, evict terminal jobs old enough under `min_age`,
    /// oldest-first by last state change. Live jobs are never evicted.
    /// Evicting rewrites the journal (tmp + rename, then a fresh append
    /// handle) and deletes the job's checkpoint and report.
    pub fn run_retention(&self) -> std::io::Result<RetentionStats> {
        if self.policy.is_unbounded() {
            return Ok(RetentionStats::default());
        }
        let now = now_unix();
        // Lock order everywhere: journal, then jobs, then index, then
        // signals.
        let mut journal = self.journal.lock().expect("store mutex poisoned");
        let mut jobs = self.jobs.lock().expect("store mutex poisoned");
        let mut index = self.index.lock().expect("store mutex poisoned");
        let mut signals = self.signals.lock().expect("store mutex poisoned");

        let file_len = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
        // Bytes accounted to a job: its journal line, checkpoint, and
        // report. Other directory residents are not retention's to
        // reclaim, so they don't count against the byte bound.
        let job_bytes = |rec: &JobRecord| {
            rec.render().len() as u64
                + 1
                + file_len(&self.checkpoint_path(rec.id))
                + file_len(&self.report_path(rec.id))
        };
        let mut total_bytes: u64 = jobs.values().map(job_bytes).sum();

        let mut candidates: Vec<(u64, u64, u64)> = jobs
            .values()
            .filter(|r| !r.state.is_live())
            .filter(|r| now.saturating_sub(r.updated_unix) >= self.policy.min_age.as_secs())
            .map(|r| (r.updated_unix, r.id, job_bytes(r)))
            .collect();
        candidates.sort_unstable();

        let mut stats = RetentionStats::default();
        let mut victims = candidates.into_iter();
        while jobs.len() > self.policy.max_jobs || total_bytes > self.policy.max_bytes {
            let Some((_, id, bytes)) = victims.next() else {
                break; // Everything left is live or too young.
            };
            std::fs::remove_file(self.checkpoint_path(id)).ok();
            std::fs::remove_file(self.report_path(id)).ok();
            jobs.remove(&id);
            index.remove(&id);
            // A stream on the job learns it is gone.
            if let Some(signal) = signals.remove(&id) {
                signal.bump();
            }
            total_bytes = total_bytes.saturating_sub(bytes);
            stats.evicted += 1;
            stats.bytes_reclaimed += bytes;
        }
        stats.remaining_jobs = jobs.len();
        stats.remaining_bytes = total_bytes;

        if stats.evicted > 0 {
            // Rewrite the journal to only the surviving jobs. The old
            // append handle points at the replaced inode after the
            // rename, so it must be reopened under the same lock.
            let path = self.dir.join("jobs.jsonl");
            let tmp = self.dir.join("jobs.jsonl.tmp");
            {
                let mut f = File::create(&tmp)?;
                let mut ordered: Vec<&JobRecord> = jobs.values().collect();
                ordered.sort_by_key(|r| r.id);
                for rec in ordered {
                    writeln!(f, "{}", rec.render())?;
                }
                f.flush()?;
            }
            std::fs::rename(&tmp, &path)?;
            *journal = OpenOptions::new().create(true).append(true).open(&path)?;
            self.evicted
                .fetch_add(stats.evicted as u64, Ordering::Relaxed);
            self.bytes_reclaimed
                .fetch_add(stats.bytes_reclaimed, Ordering::Relaxed);
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static UNIQ: AtomicU64 = AtomicU64::new(0);
        let n = UNIQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("mpstream-store-{tag}-{}-{n}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn sample(id: u64, state: JobState) -> JobRecord {
        JobRecord {
            id,
            state,
            spec: "{\"kernels\":\"copy\"}".into(),
            total: 10,
            error: String::new(),
            tenant: String::new(),
            updated_unix: 0,
        }
    }

    /// A checkpoint's records read straight from the file, under the
    /// index's rule: only `\n`-terminated lines whose object has a `key`.
    fn scan_lines(path: &Path) -> Vec<String> {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        text.split_inclusive('\n')
            .filter(|l| l.ends_with('\n'))
            .map(str::trim_end)
            .filter(|l| parse_flat_object(l).is_some_and(|obj| obj.contains_key("key")))
            .map(str::to_string)
            .collect()
    }

    /// The pre-index `query` implementation: a full linear rescan of
    /// every checkpoint per request. Kept as the reference the indexed
    /// path is equivalence-tested against.
    fn query_scan(store: &ResultStore, q: &ResultQuery) -> Vec<String> {
        let mut out = Vec::new();
        for rec in store.jobs() {
            if q.job.is_some_and(|id| id != rec.id) {
                continue;
            }
            for line in scan_lines(&store.checkpoint_path(rec.id)) {
                let Some(obj) = parse_flat_object(&line) else {
                    continue;
                };
                let field = |k: &str| {
                    obj.get(k)
                        .and_then(|v| v.as_str())
                        .unwrap_or("")
                        .to_lowercase()
                };
                if !q.device.is_empty() && !field("device").contains(&q.device.to_lowercase()) {
                    continue;
                }
                let key = field("key");
                if !q.config.is_empty() && !key.contains(&q.config.to_lowercase()) {
                    continue;
                }
                if !q.op.is_empty() && !key.contains(&format!("op: {}", q.op.to_lowercase())) {
                    continue;
                }
                // Splice provenance in front: the line is `{...}`.
                out.push(format!("{{\"job\":{},{}", rec.id, &line[1..]));
            }
        }
        out
    }

    /// A checkpoint record line for `op` at size `n` on `device`.
    fn record_line(op: &str, n: u32, device: &str) -> String {
        format!(
            "{{\"key\":\"KernelConfig {{ op: {op}, n: {n} }}\",\"retries\":0,\
             \"status\":\"ok\",\"device\":\"{device}\"}}"
        )
    }

    #[test]
    fn journal_survives_reopen_with_last_state_winning() {
        let dir = temp_dir("journal");
        {
            let store = ResultStore::open(&dir).unwrap();
            assert_eq!(store.next_id(), 1);
            store.record(&sample(1, JobState::Queued)).unwrap();
            store.record(&sample(2, JobState::Queued)).unwrap();
            store.record(&sample(1, JobState::Running)).unwrap();
            store.record(&sample(1, JobState::Done)).unwrap();
        }
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.next_id(), 3);
        assert_eq!(store.get(1).unwrap().state, JobState::Done);
        assert_eq!(store.get(2).unwrap().state, JobState::Queued);
        assert_eq!(store.jobs().len(), 2);
        // Reopen compacted 4 journal lines down to 2.
        let stats = store.startup_stats();
        assert_eq!(stats.compaction.superseded, 2, "{stats:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_journal_tail_is_dropped_on_open() {
        let dir = temp_dir("torn");
        {
            let store = ResultStore::open(&dir).unwrap();
            store.record(&sample(1, JobState::Queued)).unwrap();
        }
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join("jobs.jsonl"))
                .unwrap();
            write!(f, "{{\"id\":2,\"sta").unwrap();
        }
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.jobs().len(), 1);
        assert_eq!(store.startup_stats().compaction.corrupt, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pre_tenancy_journal_lines_still_parse() {
        let rec = JobRecord::parse(
            "{\"id\":4,\"state\":\"done\",\"total\":10,\"spec\":\"{}\",\"error\":\"\"}",
        )
        .expect("old journal line parses");
        assert_eq!(rec.tenant, "");
        assert_eq!(rec.updated_unix, 0);
        let rec = JobRecord::parse(&sample(5, JobState::Failed).render()).unwrap();
        assert_eq!(rec.id, 5);
        assert_eq!(rec.state, JobState::Failed);
    }

    #[test]
    fn retention_evicts_oldest_terminal_jobs_and_spares_live_ones() {
        let dir = temp_dir("retention");
        let policy = RetentionPolicy {
            max_jobs: 2,
            max_bytes: u64::MAX,
            min_age: std::time::Duration::ZERO,
        };
        {
            let store = ResultStore::open(&dir).unwrap();
            for id in 1..=4 {
                // record() stamps updated_unix with second granularity;
                // ids double as age order only because all four share
                // one stamp and eviction ties break by id.
                store.record(&sample(id, JobState::Done)).unwrap();
                store.write_report(id, &format!("report {id}\n")).unwrap();
            }
            store.record(&sample(5, JobState::Queued)).unwrap();
        }
        // Reopen under the policy: 5 jobs, bound is 2 — but the queued
        // job is live and must survive even above the bound.
        let store = ResultStore::open_with(&dir, policy).unwrap();
        let ids: Vec<u64> = store.jobs().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![4, 5], "oldest terminal jobs evicted: {ids:?}");
        assert!(store.read_report(1).is_none(), "evicted report deleted");
        assert!(store.read_report(4).is_some());
        let (evicted, reclaimed) = store.retention_counters();
        assert_eq!(evicted, 3);
        assert!(reclaimed > 0);

        // The rewritten journal must survive another reopen, and the
        // reopened append handle must still reach the live file.
        store.record(&sample(6, JobState::Queued)).unwrap();
        drop(store);
        let store = ResultStore::open(&dir).unwrap();
        let ids: Vec<u64> = store.jobs().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![4, 5, 6]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retention_byte_bound_and_min_age_guard() {
        let dir = temp_dir("retention-bytes");
        {
            let store = ResultStore::open(&dir).unwrap();
            for id in 1..=3 {
                store.record(&sample(id, JobState::Done)).unwrap();
                store.write_report(id, &"x".repeat(4096)).unwrap();
            }
        }
        // A byte bound that fits roughly one job's worth of data.
        let store = ResultStore::open_with(
            &dir,
            RetentionPolicy {
                max_jobs: usize::MAX,
                max_bytes: 6 * 1024,
                min_age: std::time::Duration::ZERO,
            },
        )
        .unwrap();
        assert!(store.job_count() < 3, "byte bound forced evictions");
        drop(store);

        // min_age an hour: nothing just written may be evicted, even
        // with max_jobs=1.
        let store = ResultStore::open_with(
            &dir,
            RetentionPolicy {
                max_jobs: 1,
                max_bytes: u64::MAX,
                min_age: std::time::Duration::from_secs(3600),
            },
        )
        .unwrap();
        let before = store.job_count();
        assert_eq!(store.run_retention().unwrap().evicted, 0);
        assert_eq!(store.job_count(), before, "young jobs are protected");
        assert!(store.disk_usage() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reports_round_trip() {
        let dir = temp_dir("report");
        let store = ResultStore::open(&dir).unwrap();
        assert!(store.read_report(7).is_none());
        store.write_report(7, "the report\n").unwrap();
        assert_eq!(store.read_report(7).unwrap(), "the report\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_filters_by_device_config_op_and_job() {
        let dir = temp_dir("query");
        let store = ResultStore::open(&dir).unwrap();
        store.record(&sample(1, JobState::Done)).unwrap();
        store.record(&sample(2, JobState::Done)).unwrap();
        std::fs::write(
            store.checkpoint_path(1),
            "{\"key\":\"KernelConfig { op: Copy, n: 1024 }\",\"retries\":0,\"status\":\"ok\",\"device\":\"Xeon (sim)\"}\n",
        )
        .unwrap();
        std::fs::write(
            store.checkpoint_path(2),
            "{\"key\":\"KernelConfig { op: Triad, n: 1024 }\",\"retries\":0,\"status\":\"ok\",\"device\":\"Stratix V (sim)\"}\n",
        )
        .unwrap();

        assert_eq!(store.query(&ResultQuery::default()).len(), 2);
        let by_device = store.query(&ResultQuery {
            device: "stratix".into(),
            ..Default::default()
        });
        assert_eq!(by_device.len(), 1);
        assert!(by_device[0].starts_with("{\"job\":2,"), "{by_device:?}");
        let by_op = store.query(&ResultQuery {
            op: "copy".into(),
            ..Default::default()
        });
        assert_eq!(by_op.len(), 1);
        assert!(by_op[0].contains("Xeon"));
        let by_config = store.query(&ResultQuery {
            config: "n: 1024".into(),
            ..Default::default()
        });
        assert_eq!(by_config.len(), 2);
        let by_job = store.query(&ResultQuery {
            job: Some(2),
            ..Default::default()
        });
        assert_eq!(by_job.len(), 1);
        // Spliced provenance lines still parse in the shared dialect.
        for line in store.query(&ResultQuery::default()) {
            let obj = parse_flat_object(&line).expect("spliced line parses");
            assert!(obj.contains_key("job"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The indexed query path must answer every query with exactly the
    /// lines the linear rescan finds — including after out-of-band
    /// appends (the engine writing checkpoints directly) and after
    /// appends through the store's own API.
    #[test]
    fn indexed_query_is_equivalent_to_the_scan_path() {
        let dir = temp_dir("index-equiv");
        let store = ResultStore::open(&dir).unwrap();
        store.record(&sample(1, JobState::Done)).unwrap();
        store.record(&sample(2, JobState::Running)).unwrap();
        std::fs::write(
            store.checkpoint_path(1),
            format!(
                "{}\n{}\n",
                record_line("Copy", 1024, "Xeon (sim)"),
                record_line("Triad", 2048, "Xeon (sim)")
            ),
        )
        .unwrap();

        let queries = [
            ResultQuery::default(),
            ResultQuery {
                device: "xeon".into(),
                ..Default::default()
            },
            ResultQuery {
                op: "triad".into(),
                ..Default::default()
            },
            ResultQuery {
                config: "N: 2048".into(),
                ..Default::default()
            },
            ResultQuery {
                job: Some(2),
                ..Default::default()
            },
            ResultQuery {
                device: "stratix".into(),
                op: "copy".into(),
                ..Default::default()
            },
        ];
        for q in &queries {
            assert_eq!(store.query(q), query_scan(&store, q), "{q:?}");
        }

        // Out-of-band append (what the engine does): the index must
        // pick the new suffix up on the next query.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(store.checkpoint_path(1))
                .unwrap();
            writeln!(f, "{}", record_line("Add", 4096, "Stratix V (sim)")).unwrap();
        }
        // Append through the store API (what the cluster merge does).
        store
            .append_result_lines(2, &[record_line("Scale", 512, "Titan (sim)")])
            .unwrap();
        // A corrupt torn tail is excluded by both paths.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(store.checkpoint_path(2))
                .unwrap();
            write!(f, "{{\"key\":\"torn").unwrap();
        }
        for q in &queries {
            assert_eq!(store.query(q), query_scan(&store, q), "after append: {q:?}");
        }
        assert_eq!(store.query(&ResultQuery::default()).len(), 4);

        // Reopen indexes the compacted files on first read.
        drop(store);
        let store = ResultStore::open(&dir).unwrap();
        for q in &queries {
            assert_eq!(store.query(q), query_scan(&store, q), "after reopen: {q:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A parseable record whose newline has not landed is still in
    /// flight: every reader skips it until the newline is written.
    #[test]
    fn every_reader_skips_an_unterminated_record() {
        let dir = temp_dir("unterminated");
        let store = ResultStore::open(&dir).unwrap();
        store.record(&sample(1, JobState::Running)).unwrap();
        let path = store.checkpoint_path(1);
        let counts = || {
            let (page, total) = store.result_page(1, 0, usize::MAX);
            let job = ResultQuery {
                job: Some(1),
                ..Default::default()
            };
            [
                store.done_points(1),
                store.result_lines(1).len(),
                page.len(),
                total,
                store.query(&job).len(),
            ]
        };
        std::fs::write(
            &path,
            format!(
                "{}\n{}",
                record_line("Copy", 1024, "Xeon (sim)"),
                record_line("Triad", 1024, "Xeon (sim)")
            ),
        )
        .unwrap();
        assert_eq!(counts(), [1; 5], "unterminated record counted");
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"\n").unwrap();
        assert_eq!(counts(), [2; 5], "terminated record missed");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Pages come from the index: each `(offset, limit)` page equals the
    /// matching slice of a direct file read, and the total tracks the
    /// file through appends and a compaction that shrinks it.
    #[test]
    fn result_pages_match_the_file_through_appends_and_compaction() {
        let dir = temp_dir("pages");
        let store = ResultStore::open(&dir).unwrap();
        store.record(&sample(1, JobState::Running)).unwrap();
        let path = store.checkpoint_path(1);
        let records = |ops: &[&str]| -> Vec<String> {
            ops.iter()
                .map(|op| record_line(op, 1024, "Xeon (sim)"))
                .collect()
        };
        let pages_match_file = |stage: &str| {
            let file = scan_lines(&path);
            let total = file.len();
            for offset in [0, total / 2, total, total + 3] {
                for limit in [1, usize::MAX] {
                    let want: Vec<String> = file.iter().skip(offset).take(limit).cloned().collect();
                    let got = store.result_page(1, offset, limit);
                    assert_eq!(got, (want, total), "{stage}: offset {offset} limit {limit}");
                }
            }
            total
        };
        store
            .append_result_lines(1, &records(&["Copy", "Scale", "Add"]))
            .unwrap();
        assert_eq!(pages_match_file("first append"), 3);
        // A re-leased shard lands some records a second time.
        store
            .append_result_lines(1, &records(&["Triad", "Copy", "Scale"]))
            .unwrap();
        assert_eq!(pages_match_file("second append"), 6);
        let before = std::fs::metadata(&path).unwrap().len();
        assert_eq!(Checkpoint::compact(&path).unwrap().superseded, 2);
        assert!(std::fs::metadata(&path).unwrap().len() < before);
        assert_eq!(pages_match_file("after compaction"), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Counting keeps no lines: through appends, a foreign line, an
    /// unterminated tail and a compaction that shrinks the file, the
    /// count equals the file's complete keyed lines while the index
    /// holds none. A later page still equals a direct read of the file.
    #[test]
    fn counting_keeps_no_lines_and_tracks_the_file() {
        let dir = temp_dir("count-only");
        let store = ResultStore::open(&dir).unwrap();
        store.record(&sample(1, JobState::Running)).unwrap();
        let path = store.checkpoint_path(1);
        let count_matches_file = |stage: &str| {
            let want = scan_lines(&path).len();
            assert_eq!(store.done_points(1), want, "{stage}: count");
            assert_eq!(store.kept_lines(1), None, "{stage}: lines kept");
            want
        };
        assert_eq!(count_matches_file("no checkpoint"), 0);
        let lines: Vec<String> = ["Copy", "Scale", "Add"]
            .iter()
            .map(|op| record_line(op, 1024, "Xeon (sim)"))
            .collect();
        store.append_result_lines(1, &lines).unwrap();
        assert_eq!(count_matches_file("store append"), 3);
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            writeln!(f, "{{\"note\":\"not a record\"}}").unwrap();
            write!(f, "{}", record_line("Triad", 1024, "Xeon (sim)")).unwrap();
        }
        assert_eq!(count_matches_file("foreign line, unterminated tail"), 3);
        OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(b"\n")
            .unwrap();
        assert_eq!(count_matches_file("tail terminated"), 4);
        // A re-leased shard lands two records a second time.
        store.append_result_lines(1, &lines[..2]).unwrap();
        assert_eq!(count_matches_file("duplicates"), 6);
        let before = std::fs::metadata(&path).unwrap().len();
        Checkpoint::compact(&path).unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() < before);
        assert_eq!(count_matches_file("after compaction"), 4);

        // The first page read keeps lines from the start of the file.
        let file = scan_lines(&path);
        assert_eq!(store.result_page(1, 1, 2), (file[1..3].to_vec(), 4));
        assert_eq!(store.kept_lines(1), Some(4));
        store.append_result_lines(1, &lines[2..]).unwrap();
        assert_eq!(store.done_points(1), 5);
        assert_eq!(store.result_lines(1), scan_lines(&path));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A checkpoint outcome for `op`, as the engine records it.
    fn outcome(op: kernelgen::StreamOp) -> mpstream_core::Outcome {
        mpstream_core::Outcome::new(
            kernelgen::KernelConfig::baseline(op, 1024),
            Ok(mpstream_core::Measurement::synthetic(1.0)),
        )
    }

    /// A waiter on job A returns once A gains a record — merged or
    /// checkpointed — or changes state. Job B's records and state
    /// changes leave A's signal where it was. The waiter reports over a
    /// channel; nothing here sleeps.
    #[test]
    fn a_job_signal_moves_for_its_own_job_only() {
        use std::sync::mpsc::channel;
        let dir = temp_dir("signal");
        let store = ResultStore::open(&dir).unwrap();
        store.record(&sample(1, JobState::Running)).unwrap();
        store.record(&sample(2, JobState::Running)).unwrap();
        let a = store.signal(1);
        let b_ckpt = store.checkpoint(2).unwrap();
        let a_ckpt = store.checkpoint(1).unwrap();
        let changes: [(&str, &dyn Fn()); 3] = [
            ("merged lines", &|| {
                store
                    .append_result_lines(1, &[record_line("Copy", 1024, "Xeon (sim)")])
                    .unwrap()
            }),
            ("checkpointed record", &|| {
                a_ckpt.record(&outcome(kernelgen::StreamOp::Scale)).unwrap()
            }),
            ("state change", &|| {
                store.record(&sample(1, JobState::Done)).unwrap()
            }),
        ];
        for (what, change_a) in changes {
            let seen = a.seq();
            let (tx, rx) = channel();
            std::thread::scope(|s| {
                let waiter = Arc::clone(&a);
                s.spawn(move || {
                    tx.send(waiter.wait_past(seen, Duration::from_secs(60)))
                        .unwrap()
                });
                // Job B changes every way A can: A's signal stays put.
                store
                    .append_result_lines(2, &[record_line("Add", 1024, "Xeon (sim)")])
                    .unwrap();
                b_ckpt.record(&outcome(kernelgen::StreamOp::Triad)).unwrap();
                store.record(&sample(2, JobState::Running)).unwrap();
                assert_eq!(a.seq(), seen, "{what}: job B moved job A's signal");
                change_a();
                let woke = rx.recv().unwrap();
                assert!(woke > seen, "{what}: waiter timed out instead of waking");
            });
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Shutdown's wake reaches a waiter whose job never changes.
    #[test]
    fn wake_all_releases_every_waiter() {
        let dir = temp_dir("wake-all");
        let store = ResultStore::open(&dir).unwrap();
        let signals = [store.signal(1), store.signal(2)];
        let seen: Vec<u64> = signals.iter().map(|s| s.seq()).collect();
        std::thread::scope(|s| {
            let waiters: Vec<_> = signals
                .iter()
                .zip(&seen)
                .map(|(sig, &seen)| s.spawn(move || sig.wait_past(seen, Duration::from_secs(60))))
                .collect();
            store.wake_all();
            for (w, &seen) in waiters.into_iter().zip(&seen) {
                assert!(
                    w.join().unwrap() > seen,
                    "waiter timed out instead of waking"
                );
            }
        });
        std::fs::remove_dir_all(&dir).ok();
    }
}
