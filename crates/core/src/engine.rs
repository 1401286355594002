//! The parallel execution engine behind sweeps and DSE.
//!
//! Everything that measures more than one configuration funnels through
//! here: the engine takes a work-list of [`BenchConfig`]s, executes them
//! across a pool of scoped worker threads (one [`Runner`] per worker),
//! and returns one [`Outcome`] per input **in input order** — results
//! are byte-identical to a serial run no matter the thread count,
//! because the device models are deterministic and every run gets a
//! fresh context.
//!
//! Sizing: the pool defaults to [`default_jobs`] — the `MPSTREAM_JOBS`
//! environment variable when set, otherwise the machine's available
//! parallelism — and never spawns more workers than there are work
//! items. `--jobs` on the CLI and figure harness overrides it.
//!
//! Caching: every engine owns a [`BuildCache`] shared by its workers, so
//! a configuration is synthesized once per device model per engine
//! lifetime; sweep layers report per-call hit/miss deltas.
//!
//! Resilience: every configuration executes inside a protected retry
//! loop. Worker panics are caught (`catch_unwind`) and become
//! [`ClError::HostPanic`] outcomes instead of killing the sweep;
//! transient failures ([`ClError::is_transient`] — lost devices,
//! watchdog timeouts, synthesis-tool crashes — plus launches whose
//! STREAM validation failed, i.e. silent data corruption) are retried
//! under a [`ResiliencePolicy`] with deterministic exponential backoff
//! and an optional per-configuration deadline. Retry activity is
//! counted in [`RetryStats`], reported by sweeps next to the cache
//! counters. An [`mpcl::FaultPlan`] attached via
//! [`Engine::with_faults`] is threaded into every worker's contexts so
//! the whole machinery can be exercised deterministically.

use crate::config::BenchConfig;
use crate::runner::{Measurement, Runner};
use crate::trace::{self, Trace, TID_ENGINE};
use kernelgen::KernelConfig;
use mpcl::{BuildCache, CacheStats, ClError, FaultCounters, FaultPlan};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A shared cooperative-cancellation flag. Clone it freely: all clones
/// observe the same state. An [`Engine`] carrying a token (see
/// [`Engine::with_cancel`]) stops dispatching new configurations once
/// the token is cancelled — in-flight configurations finish (and are
/// checkpointed as usual), never-started ones come back as
/// [`ClError::Cancelled`] outcomes, which are **not** passed to the
/// checkpointing observer, so a cancelled sweep resumes exactly where
/// it stopped.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// One executed configuration: the shared result vocabulary of sweeps
/// and explorers (previously the duplicated `SweepPoint`/`Evaluation`).
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The configuration.
    pub config: KernelConfig,
    /// Measurement, or the error (typically an FPGA synthesis failure —
    /// a first-class result of a sweep, not a crash).
    pub result: Result<Measurement, ClError>,
    /// How many times the configuration was re-attempted after
    /// transient failures before this result stood.
    pub retries: u32,
}

impl Outcome {
    /// An outcome that needed no retries.
    pub fn new(config: KernelConfig, result: Result<Measurement, ClError>) -> Self {
        Outcome {
            config,
            result,
            retries: 0,
        }
    }

    /// Bandwidth if the run succeeded.
    pub fn gbps(&self) -> Option<f64> {
        self.result.as_ref().ok().map(|m| m.gbps())
    }

    /// FPGA logic usage if reported.
    pub fn logic(&self) -> Option<u64> {
        self.result
            .as_ref()
            .ok()
            .and_then(|m| m.resources)
            .map(|r| r.logic)
    }

    /// Did the run succeed?
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }
}

/// Default worker count: `MPSTREAM_JOBS` when set to a positive integer,
/// otherwise the machine's available parallelism (1 if unknown). An
/// invalid override (`0`, `abc`) falls back to hardware sizing with a
/// one-time warning on stderr rather than silently
/// (see [`crate::env::positive_or_warn`]).
pub fn default_jobs() -> usize {
    crate::env::positive_or_warn("MPSTREAM_JOBS", "hardware parallelism").unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Fault spec from `MPSTREAM_FAULTS`, if set and valid (an invalid spec
/// warns on stderr and is ignored — a typo must not silently disable an
/// intended fault campaign *and* must not abort an innocent run).
pub fn env_fault_spec() -> Option<mpcl::FaultSpec> {
    let v = std::env::var("MPSTREAM_FAULTS").ok()?;
    match mpcl::FaultSpec::parse(&v) {
        Ok(spec) if !spec.is_zero() => Some(spec),
        Ok(_) => None,
        Err(e) => {
            eprintln!("warning: ignoring invalid MPSTREAM_FAULTS: {e}");
            None
        }
    }
}

/// Fault seed from `MPSTREAM_FAULT_SEED`, if set and numeric.
pub fn env_fault_seed() -> Option<u64> {
    crate::env::parsed("MPSTREAM_FAULT_SEED")
}

/// Retry budget from `MPSTREAM_RETRIES`, if set and numeric.
pub fn env_retries() -> Option<u32> {
    crate::env::parsed("MPSTREAM_RETRIES")
}

/// FNV-1a over `bytes` (64-bit). Used wherever a *stable* identity is
/// derived from a textual key — fault-injection rolls key on it, and
/// the cluster layer derives shard ids from it — so the value must
/// never change across versions: offset basis `0xcbf29ce484222325`,
/// prime `0x100000001b3`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Split a sweep of `total` configurations into contiguous shards of at
/// most `shard_points` points each, as `(start, end)` index ranges into
/// the deterministic cartesian order of the [`crate::space::ParamSpace`].
/// The planning is a pure function of its inputs, so re-planning the
/// same sweep yields the same shards (the cluster layer relies on this
/// for idempotent re-submission). `shard_points` is clamped to >= 1;
/// the final shard may be short.
pub fn plan_shards(total: usize, shard_points: usize) -> Vec<(usize, usize)> {
    let step = shard_points.max(1);
    let mut shards = Vec::with_capacity(total.div_ceil(step));
    let mut start = 0;
    while start < total {
        let end = (start + step).min(total);
        shards.push((start, end));
        start = end;
    }
    shards
}

/// Default fault seed when a fault campaign is requested without one.
pub const DEFAULT_FAULT_SEED: u64 = 0x5EED;

/// Default retry budget when faults are enabled and no explicit budget
/// was given.
pub const DEFAULT_FAULT_RETRIES: u32 = 3;

/// How the engine responds to transient failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResiliencePolicy {
    /// Re-attempts allowed per configuration after transient failures
    /// (0 = fail fast, the historical behaviour).
    pub max_retries: u32,
    /// First backoff delay; doubles per retry (deterministic — no
    /// jitter, so reruns sleep identically).
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Wall-clock budget per configuration: once exceeded, no further
    /// retries are attempted (the in-flight attempt is not preempted).
    pub per_config_deadline: Option<Duration>,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            max_retries: 0,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(100),
            per_config_deadline: None,
        }
    }
}

impl ResiliencePolicy {
    /// A policy allowing `max_retries` re-attempts (default backoff, no
    /// deadline).
    pub fn retrying(max_retries: u32) -> Self {
        ResiliencePolicy {
            max_retries,
            ..Default::default()
        }
    }

    /// Replace the backoff schedule (base doubles per retry up to cap;
    /// `Duration::ZERO` disables sleeping, as the tests do).
    pub fn with_backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }

    /// Set the per-configuration deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.per_config_deadline = Some(deadline);
        self
    }

    /// Deterministic exponential backoff before retry number `retry`
    /// (1-based): `base * 2^(retry-1)`, capped.
    pub fn backoff_after(&self, retry: u32) -> Duration {
        let doublings = retry.saturating_sub(1).min(20);
        self.backoff_base
            .saturating_mul(1u32 << doublings)
            .min(self.backoff_cap)
    }
}

/// Counters of the engine's resilience machinery, cheap to copy out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Re-attempts performed after transient failures.
    pub retries: u64,
    /// Transient failures observed (including ones that were retried
    /// away and launches failing STREAM validation).
    pub transient_errors: u64,
    /// Configurations whose retry budget or deadline ran out while
    /// still failing transiently.
    pub gave_up: u64,
    /// Worker panics converted into [`ClError::HostPanic`] outcomes.
    pub panics_isolated: u64,
}

impl RetryStats {
    /// Counter difference since an earlier snapshot.
    pub fn since(&self, earlier: RetryStats) -> RetryStats {
        RetryStats {
            retries: self.retries.saturating_sub(earlier.retries),
            transient_errors: self
                .transient_errors
                .saturating_sub(earlier.transient_errors),
            gave_up: self.gave_up.saturating_sub(earlier.gave_up),
            panics_isolated: self.panics_isolated.saturating_sub(earlier.panics_isolated),
        }
    }
}

/// A reusable parallel executor: a thread-pool size, a shared
/// build-artifact cache, a resilience policy and (optionally) a fault
/// plan to stress it with.
#[derive(Debug)]
pub struct Engine {
    jobs: usize,
    cache: Arc<BuildCache>,
    policy: ResiliencePolicy,
    faults: Option<Arc<FaultPlan>>,
    trace: Option<Arc<Trace>>,
    cancel: Option<CancelToken>,
    retries: AtomicU64,
    transient_errors: AtomicU64,
    gave_up: AtomicU64,
    panics_isolated: AtomicU64,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// Engine sized by [`default_jobs`].
    pub fn new() -> Self {
        Engine::with_jobs(default_jobs())
    }

    /// Engine with an explicit worker count (clamped to at least 1).
    pub fn with_jobs(jobs: usize) -> Self {
        Engine {
            jobs: jobs.max(1),
            cache: Arc::new(BuildCache::new()),
            policy: ResiliencePolicy::default(),
            faults: None,
            trace: None,
            cancel: None,
            retries: AtomicU64::new(0),
            transient_errors: AtomicU64::new(0),
            gave_up: AtomicU64::new(0),
            panics_isolated: AtomicU64::new(0),
        }
    }

    /// Set the resilience policy.
    pub fn with_policy(mut self, policy: ResiliencePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attach a fault-injection plan, threaded into every worker's
    /// contexts (`None` detaches).
    pub fn with_faults(mut self, faults: Option<Arc<FaultPlan>>) -> Self {
        self.faults = faults;
        self
    }

    /// Attach a trace sink: every configuration executed through this
    /// engine records spans/counters into it (`None` detaches — the
    /// default, costing nothing).
    pub fn with_trace(mut self, trace: Option<Arc<Trace>>) -> Self {
        self.trace = trace;
        self
    }

    /// The attached trace sink, if any.
    pub fn trace(&self) -> Option<&Arc<Trace>> {
        self.trace.as_ref()
    }

    /// Attach a cooperative cancellation token (`None` detaches). Once
    /// the token fires, workers stop claiming new configurations and
    /// the retry loop stops re-attempting; see [`CancelToken`].
    pub fn with_cancel(mut self, cancel: Option<CancelToken>) -> Self {
        self.cancel = cancel;
        self
    }

    /// The attached cancel token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Has the attached token requested cancellation?
    fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The active resilience policy.
    pub fn policy(&self) -> ResiliencePolicy {
        self.policy
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// Injection counters of the attached fault plan (zero when none).
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults
            .as_ref()
            .map(|f| f.counters())
            .unwrap_or_default()
    }

    /// The shared build cache.
    pub fn cache(&self) -> &Arc<BuildCache> {
        &self.cache
    }

    /// Cumulative build-cache counters over this engine's lifetime.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Cumulative retry/panic counters over this engine's lifetime.
    pub fn retry_stats(&self) -> RetryStats {
        RetryStats {
            retries: self.retries.load(Ordering::Relaxed),
            transient_errors: self.transient_errors.load(Ordering::Relaxed),
            gave_up: self.gave_up.load(Ordering::Relaxed),
            panics_isolated: self.panics_isolated.load(Ordering::Relaxed),
        }
    }

    /// Execute `work` on a standard target, one fresh device per worker.
    pub fn run_list(&self, target: targets::TargetId, work: &[BenchConfig]) -> Vec<Outcome> {
        self.run_list_with(|| Runner::for_target(target), work)
    }

    /// Execute `work` with one runner per worker from `make_runner`
    /// (called once per worker thread; the engine's cache and fault plan
    /// are attached to each). Results are returned in `work` order.
    pub fn run_list_with(
        &self,
        make_runner: impl Fn() -> Runner + Sync,
        work: &[BenchConfig],
    ) -> Vec<Outcome> {
        self.run_list_observed(make_runner, work, |_| {})
    }

    /// Like [`run_list_with`](Self::run_list_with), calling `observe` on
    /// each outcome as soon as its worker finishes it (out of input
    /// order; the returned vector is still input-ordered). Used for
    /// incremental checkpointing.
    pub fn run_list_observed(
        &self,
        make_runner: impl Fn() -> Runner + Sync,
        work: &[BenchConfig],
        observe: impl Fn(&Outcome) + Sync,
    ) -> Vec<Outcome> {
        let slots = self.execute_indexed(
            work.len(),
            || self.equip(make_runner()),
            |runner, i| {
                let _task = self
                    .trace
                    .as_ref()
                    .map(|t| trace::begin_task(Arc::clone(t), i as u64));
                self.run_one_with(runner, &work[i])
            },
            observe,
        );
        self.fill_cancelled(slots, |i| work[i].kernel.clone())
    }

    /// Replace the `None` slots a cancelled pool run leaves behind with
    /// [`ClError::Cancelled`] outcomes (never observed, never
    /// checkpointed — a resumed sweep re-runs them).
    fn fill_cancelled(
        &self,
        slots: Vec<Option<Outcome>>,
        config_of: impl Fn(usize) -> KernelConfig,
    ) -> Vec<Outcome> {
        slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| s.unwrap_or_else(|| Outcome::new(config_of(i), Err(ClError::Cancelled))))
            .collect()
    }

    /// Attach this engine's cache and fault plan to a runner.
    fn equip(&self, runner: Runner) -> Runner {
        runner
            .with_cache(Arc::clone(&self.cache))
            .with_faults(self.faults.clone())
    }

    /// Execute one configuration on `runner` under the engine's
    /// resilience policy (retry loop, backoff, deadline, panic
    /// isolation). The runner should carry the engine's cache/fault
    /// plan — [`run_list_with`](Self::run_list_with) workers do; attach
    /// them with [`Runner::with_cache`]/[`Runner::with_faults`] when
    /// driving this directly (as the DSE climbers do).
    pub fn run_one_with(&self, runner: &Runner, bc: &BenchConfig) -> Outcome {
        self.run_protected(&bc.kernel, || runner.run(bc))
    }

    /// The resilient execution core: run `attempt` under
    /// `catch_unwind`, classify the result, and retry transient
    /// failures per the policy. Panics become [`ClError::HostPanic`]
    /// (permanent). A successful measurement that failed STREAM
    /// validation counts as transient — silent data corruption is
    /// exactly what a retry can clear.
    pub fn run_protected(
        &self,
        config: &KernelConfig,
        attempt: impl Fn() -> Result<Measurement, ClError>,
    ) -> Outcome {
        let started = Instant::now();
        let mut retries = 0u32;
        loop {
            let t0 = trace::vclock_ns();
            let result = match catch_unwind(AssertUnwindSafe(&attempt)) {
                Ok(r) => r,
                Err(payload) => {
                    self.panics_isolated.fetch_add(1, Ordering::Relaxed);
                    Err(ClError::HostPanic(panic_message(payload)))
                }
            };
            let transient = match &result {
                Err(e) => e.is_transient(),
                Ok(m) => m.validated == Some(false),
            };
            // The attempt span covers the virtual time the attempt
            // consumed (synthesis + queue activity, advanced by the
            // runner); faults and failed validations get an instant so
            // a fault-injected trace shows exactly the injected sites.
            match &result {
                Err(e) if e.is_transient() => {
                    trace::instant(TID_ENGINE, "fault", trace::vclock_ns(), || {
                        trace::args([("code", e.code().into())])
                    });
                }
                Ok(m) if m.validated == Some(false) => {
                    trace::instant(TID_ENGINE, "fault", trace::vclock_ns(), || {
                        trace::args([("code", "ValidationFailed".into())])
                    });
                }
                _ => {}
            }
            trace::span(TID_ENGINE, "attempt", t0, trace::vclock_ns() - t0, || {
                let mut span_args = trace::args([("n", retries.into())]);
                if let Err(e) = &result {
                    span_args.push(("error".into(), e.code().into()));
                }
                span_args
            });
            if !transient {
                return Outcome {
                    config: config.clone(),
                    result,
                    retries,
                };
            }
            self.transient_errors.fetch_add(1, Ordering::Relaxed);
            // A fired cancel token ends the retry loop like an exhausted
            // budget: the transient result stands (it is not recorded as
            // gave-up — the operator asked for it).
            if self.is_cancelled() {
                return Outcome {
                    config: config.clone(),
                    result,
                    retries,
                };
            }
            let deadline_passed = self
                .policy
                .per_config_deadline
                .is_some_and(|d| started.elapsed() >= d);
            if retries >= self.policy.max_retries || deadline_passed {
                self.gave_up.fetch_add(1, Ordering::Relaxed);
                return Outcome {
                    config: config.clone(),
                    result,
                    retries,
                };
            }
            retries += 1;
            self.retries.fetch_add(1, Ordering::Relaxed);
            let backoff = self.policy.backoff_after(retries);
            if !backoff.is_zero() {
                // The backoff sleep is part of the deterministic
                // schedule (no jitter), so it lives on the virtual
                // timeline too.
                let backoff_ns = backoff.as_nanos() as f64;
                trace::span(
                    TID_ENGINE,
                    "backoff",
                    trace::vclock_ns(),
                    backoff_ns,
                    || trace::args([("retry", retries.into())]),
                );
                trace::advance_vclock(backoff_ns);
                std::thread::sleep(backoff);
            }
        }
    }

    /// Execute an arbitrary per-configuration objective across the pool
    /// under the resilience policy — the engine-backed path for
    /// explorers whose objective is not a [`Runner`] (and the test
    /// hook for panic isolation). Results are input-ordered.
    pub fn run_objective_list(
        &self,
        configs: &[KernelConfig],
        objective: impl Fn(&KernelConfig) -> Result<Measurement, ClError> + Sync,
    ) -> Vec<Outcome> {
        let slots = self.execute_indexed(
            configs.len(),
            || (),
            |(), i| {
                let _task = self
                    .trace
                    .as_ref()
                    .map(|t| trace::begin_task(Arc::clone(t), i as u64));
                self.run_protected(&configs[i], || objective(&configs[i]))
            },
            |_| {},
        );
        self.fill_cancelled(slots, |i| configs[i].clone())
    }

    /// The shared pool core: evaluate indices `0..n` across up to
    /// `jobs` workers (each owning one `make_worker()` value), calling
    /// `observe` on every outcome as produced, and return outcomes in
    /// index order. A fired cancel token stops workers from claiming
    /// further indices; unclaimed slots come back `None` (callers
    /// synthesize [`ClError::Cancelled`] outcomes for them).
    fn execute_indexed<W>(
        &self,
        n: usize,
        make_worker: impl Fn() -> W + Sync,
        eval: impl Fn(&W, usize) -> Outcome + Sync,
        observe: impl Fn(&Outcome) + Sync,
    ) -> Vec<Option<Outcome>> {
        let jobs = self.jobs.min(n).max(1);
        let schedule = |worker: usize, i: usize| {
            if let Some(t) = &self.trace {
                t.wall_instant(
                    i as u64,
                    "schedule",
                    trace::args([("worker", (worker as u64).into())]),
                );
            }
        };
        if jobs == 1 {
            let worker = make_worker();
            return (0..n)
                .map(|i| {
                    if self.is_cancelled() {
                        return None;
                    }
                    schedule(0, i);
                    let outcome = eval(&worker, i);
                    observe(&outcome);
                    Some(outcome)
                })
                .collect();
        }

        // Work-stealing by atomic index; each worker owns one device and
        // reports (index, outcome) pairs, which are re-assembled in
        // input order afterwards. Configuration-level panics never reach
        // here (eval catches them); a panicking worker loop itself would
        // still only propagate after the other workers finish.
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Outcome)>();
        std::thread::scope(|s| {
            for w in 0..jobs {
                let tx = tx.clone();
                let next = &next;
                let make_worker = &make_worker;
                let eval = &eval;
                let observe = &observe;
                let schedule = &schedule;
                s.spawn(move || {
                    let worker = make_worker();
                    loop {
                        if self.is_cancelled() {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        schedule(w, i);
                        let outcome = eval(&worker, i);
                        observe(&outcome);
                        if tx.send((i, outcome)).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        drop(tx);

        let mut slots: Vec<Option<Outcome>> = (0..n).map(|_| None).collect();
        for (i, outcome) in rx {
            slots[i] = Some(outcome);
        }
        slots
    }
}

/// Render a panic payload (usually a `&str` or `String`) for
/// [`ClError::HostPanic`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BenchConfig;
    use crate::space::ParamSpace;
    use kernelgen::{LoopMode, StreamOp};
    use targets::TargetId;

    fn work_list() -> Vec<BenchConfig> {
        ParamSpace::new()
            .ops([StreamOp::Copy, StreamOp::Triad])
            .sizes_bytes([1 << 16])
            .widths([1, 2, 4, 8])
            .loop_modes([LoopMode::SingleWorkItemFlat])
            .configs()
            .into_iter()
            .map(|k| BenchConfig::new(k).with_ntimes(1).with_validation(false))
            .collect()
    }

    #[test]
    fn parallel_matches_serial_in_order_and_values() {
        let work = work_list();
        let serial = Engine::with_jobs(1).run_list(TargetId::FpgaAocl, &work);
        let parallel = Engine::with_jobs(4).run_list(TargetId::FpgaAocl, &work);
        assert_eq!(serial.len(), work.len());
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.config, p.config, "input order preserved");
            assert_eq!(s.gbps(), p.gbps(), "identical measurements");
        }
    }

    #[test]
    fn engine_cache_counts_hits_on_revisit() {
        let work = work_list();
        let engine = Engine::with_jobs(2);
        engine.run_list(TargetId::FpgaAocl, &work);
        let first = engine.cache_stats();
        assert_eq!(
            first.misses as usize,
            work.len(),
            "first pass builds everything"
        );
        engine.run_list(TargetId::FpgaAocl, &work);
        let second = engine.cache_stats().since(first);
        assert_eq!(second.misses, 0, "second pass is all hits");
        assert_eq!(second.hits as usize, work.len());
    }

    #[test]
    fn more_jobs_than_work_is_fine() {
        let work = work_list();
        let out = Engine::with_jobs(64).run_list(TargetId::Cpu, &work);
        assert_eq!(out.len(), work.len());
        assert!(out.iter().all(|o| o.is_ok()));
        assert!(out.iter().all(|o| o.retries == 0), "no faults, no retries");
    }

    #[test]
    fn empty_work_list() {
        assert!(Engine::with_jobs(4).run_list(TargetId::Cpu, &[]).is_empty());
    }

    #[test]
    fn default_jobs_is_positive_and_env_overrides() {
        assert!(default_jobs() >= 1);
        // Engine::with_jobs clamps zero.
        assert_eq!(Engine::with_jobs(0).jobs(), 1);
    }

    // MPSTREAM_JOBS override parsing (positive integers only, warn-once
    // on garbage) lives in `crate::env` now and is tested there.

    #[test]
    fn fnv1a_matches_published_vectors() {
        // Reference values for the 64-bit FNV-1a parameters.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn plan_shards_covers_the_range_exactly_once() {
        assert!(plan_shards(0, 8).is_empty());
        assert_eq!(plan_shards(5, 8), vec![(0, 5)]);
        assert_eq!(plan_shards(8, 8), vec![(0, 8)]);
        assert_eq!(plan_shards(10, 4), vec![(0, 4), (4, 8), (8, 10)]);
        assert_eq!(plan_shards(3, 0), vec![(0, 1), (1, 2), (2, 3)], "clamped");
        // Every index appears exactly once, in order, at any granularity.
        for step in 1..20 {
            let shards = plan_shards(97, step);
            let flat: Vec<usize> = shards.iter().flat_map(|&(s, e)| s..e).collect();
            assert_eq!(flat, (0..97).collect::<Vec<_>>(), "step {step}");
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = ResiliencePolicy::retrying(8)
            .with_backoff(Duration::from_millis(10), Duration::from_millis(35));
        assert_eq!(p.backoff_after(1), Duration::from_millis(10));
        assert_eq!(p.backoff_after(2), Duration::from_millis(20));
        assert_eq!(p.backoff_after(3), Duration::from_millis(35), "capped");
        assert_eq!(p.backoff_after(30), Duration::from_millis(35));
        let zero = ResiliencePolicy::retrying(1).with_backoff(Duration::ZERO, Duration::ZERO);
        assert!(zero.backoff_after(5).is_zero());
    }

    #[test]
    fn run_protected_retries_transient_and_counts() {
        let engine = Engine::with_jobs(1).with_policy(
            ResiliencePolicy::retrying(3).with_backoff(Duration::ZERO, Duration::ZERO),
        );
        let cfg = KernelConfig::baseline(StreamOp::Copy, 1024);
        let calls = AtomicU64::new(0);
        let out = engine.run_protected(&cfg, || {
            if calls.fetch_add(1, Ordering::Relaxed) < 2 {
                Err(ClError::DeviceLost)
            } else {
                Ok(Measurement::synthetic(10.0))
            }
        });
        assert!(out.is_ok());
        assert_eq!(out.retries, 2);
        let stats = engine.retry_stats();
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.transient_errors, 2);
        assert_eq!(stats.gave_up, 0);
    }

    #[test]
    fn run_protected_gives_up_after_budget() {
        let engine = Engine::with_jobs(1).with_policy(
            ResiliencePolicy::retrying(2).with_backoff(Duration::ZERO, Duration::ZERO),
        );
        let cfg = KernelConfig::baseline(StreamOp::Copy, 1024);
        let out = engine.run_protected(&cfg, || Err(ClError::Timeout("stuck".into())));
        assert_eq!(out.result, Err(ClError::Timeout("stuck".into())));
        assert_eq!(out.retries, 2, "budget exhausted");
        assert_eq!(engine.retry_stats().gave_up, 1);
    }

    #[test]
    fn run_protected_does_not_retry_permanent_errors() {
        let engine = Engine::with_jobs(1).with_policy(
            ResiliencePolicy::retrying(5).with_backoff(Duration::ZERO, Duration::ZERO),
        );
        let cfg = KernelConfig::baseline(StreamOp::Copy, 1024);
        let calls = AtomicU64::new(0);
        let out = engine.run_protected(&cfg, || {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(ClError::BuildProgramFailure("does not fit".into()))
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1, "no retry");
        assert_eq!(out.retries, 0);
        assert_eq!(engine.retry_stats(), RetryStats::default());
    }

    #[test]
    fn deadline_stops_retrying() {
        let engine = Engine::with_jobs(1).with_policy(
            ResiliencePolicy::retrying(u32::MAX)
                .with_backoff(Duration::ZERO, Duration::ZERO)
                .with_deadline(Duration::from_millis(20)),
        );
        let cfg = KernelConfig::baseline(StreamOp::Copy, 1024);
        let out = engine.run_protected(&cfg, || {
            std::thread::sleep(Duration::from_millis(5));
            Err(ClError::DeviceLost)
        });
        assert!(out.result.is_err());
        assert!(out.retries < 100, "deadline bounded the retries");
        assert_eq!(engine.retry_stats().gave_up, 1);
    }

    #[test]
    fn pre_cancelled_engine_runs_nothing() {
        let token = CancelToken::new();
        token.cancel();
        for jobs in [1, 4] {
            let engine = Engine::with_jobs(jobs).with_cancel(Some(token.clone()));
            let work = work_list();
            let out = engine.run_list(TargetId::Cpu, &work);
            assert_eq!(out.len(), work.len(), "every slot answered");
            for (o, w) in out.iter().zip(&work) {
                assert_eq!(o.config, w.kernel, "cancelled outcome keeps its config");
                assert_eq!(o.result, Err(ClError::Cancelled));
            }
        }
    }

    #[test]
    fn cancel_mid_run_stops_dispatch_and_skips_observe() {
        let token = CancelToken::new();
        let engine = Engine::with_jobs(1).with_cancel(Some(token.clone()));
        let work = work_list();
        let observed = AtomicU64::new(0);
        let out = engine.run_list_observed(
            || Runner::for_target(TargetId::Cpu),
            &work,
            |o| {
                assert!(o.result != Err(ClError::Cancelled), "never observed");
                // Cancel after the second completed configuration.
                if observed.fetch_add(1, Ordering::Relaxed) == 1 {
                    token.cancel();
                }
            },
        );
        assert_eq!(observed.load(Ordering::Relaxed), 2);
        assert_eq!(out.len(), work.len());
        assert!(out[..2].iter().all(|o| o.is_ok()));
        assert!(out[2..].iter().all(|o| o.result == Err(ClError::Cancelled)));
    }

    #[test]
    fn cancel_stops_the_retry_loop() {
        let token = CancelToken::new();
        let engine = Engine::with_jobs(1)
            .with_policy(
                ResiliencePolicy::retrying(u32::MAX).with_backoff(Duration::ZERO, Duration::ZERO),
            )
            .with_cancel(Some(token.clone()));
        let cfg = KernelConfig::baseline(StreamOp::Copy, 1024);
        let calls = AtomicU64::new(0);
        let out = engine.run_protected(&cfg, || {
            if calls.fetch_add(1, Ordering::Relaxed) == 2 {
                token.cancel();
            }
            Err(ClError::DeviceLost)
        });
        assert!(out.result.is_err());
        assert!(
            calls.load(Ordering::Relaxed) <= 4,
            "cancellation broke an otherwise unbounded retry loop"
        );
        assert_eq!(engine.retry_stats().gave_up, 0, "cancel is not give-up");
    }

    #[test]
    fn failed_validation_is_retried() {
        let engine = Engine::with_jobs(1).with_policy(
            ResiliencePolicy::retrying(1).with_backoff(Duration::ZERO, Duration::ZERO),
        );
        let cfg = KernelConfig::baseline(StreamOp::Copy, 1024);
        let calls = AtomicU64::new(0);
        let out = engine.run_protected(&cfg, || {
            let mut m = Measurement::synthetic(10.0);
            m.validated = Some(calls.fetch_add(1, Ordering::Relaxed) > 0);
            Ok(m)
        });
        assert_eq!(out.retries, 1);
        assert_eq!(
            out.result.unwrap().validated,
            Some(true),
            "retry cleared it"
        );
    }
}
