//! Structured tracing for the sweep engine: per-worker span recording
//! on the *simulated* timeline, exported as Chrome `trace_event` JSON
//! (load the file in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)).
//!
//! Two clocks coexist:
//!
//! * **Virtual** events sit on the deterministic simulated timeline —
//!   each configuration's timeline starts at 0 when its task begins and
//!   advances by synthesis time, queue time and (virtualized) backoff
//!   sleeps. Because every model is deterministic and faults are drawn
//!   from a pure function of `(seed, site, config, attempt)`, the
//!   virtual events of a sweep are identical at any `--jobs` count.
//! * **Wall** events record host-side scheduling facts that genuinely
//!   depend on thread interleaving: which worker claimed which
//!   configuration, build-cache hit/miss status (the first worker to
//!   reach a config wins the build), checkpoint writes. Their `ts` is a
//!   global sequence ordinal, not a clock — ordering, not duration.
//!
//! [`Trace::canonical_chrome_json`] keeps only the virtual events and
//! sorts them into a total order, producing byte-identical output for
//! the same seed and configuration list regardless of worker count —
//! the property the golden-trace tests (and the CI trace-determinism
//! job) pin.
//!
//! Recording is thread-local: [`begin_task`] arms the current worker
//! thread for one configuration (its `pid` in the trace); the free
//! functions ([`span`], [`counter`], [`instant`], [`advance_vclock`])
//! are no-ops on unarmed threads, so instrumented code needs no
//! plumbing and costs nothing when tracing is off. Events buffer in the
//! thread-local context and flush into the shared [`Trace`] once per
//! task, keeping the hot path off the global mutex.

use crate::json::escape;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Trace lane for engine-level activity (attempts, faults, backoff).
pub const TID_ENGINE: u64 = 0;
/// Trace lane for program builds (synthesis).
pub const TID_BUILD: u64 = 1;
/// Trace lane for command-queue activity (transfers, kernels).
pub const TID_QUEUE: u64 = 2;

/// An argument value attached to a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// A string argument.
    Str(String),
    /// A numeric argument (serialized with shortest round-trip form).
    Num(f64),
    /// A boolean argument.
    Bool(bool),
}

impl From<&str> for ArgValue {
    fn from(s: &str) -> Self {
        ArgValue::Str(s.to_string())
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::Num(v)
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::Num(v as f64)
    }
}

impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::Num(v as f64)
    }
}

impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}

/// What kind of `trace_event` an event renders as.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A complete span (`ph:"X"`) with a duration.
    Span {
        /// Span duration, nanoseconds.
        dur_ns: f64,
    },
    /// A counter sample (`ph:"C"`); args carry the series values.
    Counter,
    /// A thread-scoped instant (`ph:"i"`).
    Instant,
}

/// Which clock an event's `ts` belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The deterministic simulated timeline (jobs-invariant).
    Virtual,
    /// Host-side ordering (a global sequence ordinal, scheduler-
    /// dependent); excluded from canonical output.
    Wall,
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (`"build"`, `"kernel"`, `"attempt"`, ...).
    pub name: String,
    /// Process id in the trace: the configuration's index in its
    /// work-list, so each config gets its own track group.
    pub pid: u64,
    /// Thread id in the trace: the lane ([`TID_ENGINE`] /
    /// [`TID_BUILD`] / [`TID_QUEUE`]); wall events use lane 0.
    pub tid: u64,
    /// Timestamp, nanoseconds on the event's clock (see [`Scope`]).
    pub ts_ns: f64,
    /// Span / counter / instant.
    pub kind: EventKind,
    /// Virtual (deterministic) or wall (scheduler-dependent).
    pub scope: Scope,
    /// Key-value arguments.
    pub args: Vec<(String, ArgValue)>,
}

/// A shared trace sink: armed workers flush their buffered events here;
/// exporters read it once execution finishes.
#[derive(Debug, Default)]
pub struct Trace {
    events: Mutex<Vec<TraceEvent>>,
    wall_seq: AtomicU64,
}

impl Trace {
    /// An empty trace, ready to attach to an engine.
    pub fn new() -> Arc<Trace> {
        Arc::new(Trace::default())
    }

    /// Append one event.
    pub fn push(&self, ev: TraceEvent) {
        self.events.lock().expect("trace mutex").push(ev);
    }

    /// Append a batch of events (one lock round-trip).
    pub fn extend(&self, evs: impl IntoIterator<Item = TraceEvent>) {
        self.events.lock().expect("trace mutex").extend(evs);
    }

    /// Record a wall-scoped instant: `ts` is the next global sequence
    /// ordinal, so wall events order by emission, not by clock.
    pub fn wall_instant(&self, pid: u64, name: &str, args: Vec<(String, ArgValue)>) {
        let seq = self.wall_seq.fetch_add(1, Ordering::Relaxed);
        self.push(TraceEvent {
            name: name.to_string(),
            pid,
            tid: TID_ENGINE,
            ts_ns: seq as f64,
            kind: EventKind::Instant,
            scope: Scope::Wall,
            args,
        });
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace mutex").len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of every recorded event.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace mutex").clone()
    }

    /// Render every event (virtual and wall) as Chrome `trace_event`
    /// JSON. Event order follows recording order, which depends on the
    /// scheduler — use [`canonical_chrome_json`](Self::canonical_chrome_json)
    /// when byte stability matters.
    pub fn to_chrome_json(&self) -> String {
        render_chrome_json(self.events().iter())
    }

    /// Render only the virtual (deterministic) events, sorted into a
    /// total order: by `(pid, tid, ts)` with the serialized event line
    /// as the final tiebreaker. Same seed + same work-list ⇒ byte-
    /// identical output at any worker count.
    pub fn canonical_chrome_json(&self) -> String {
        let events = self.events();
        let mut lines: Vec<(u64, u64, f64, String)> = events
            .iter()
            .filter(|e| e.scope == Scope::Virtual)
            .map(|e| (e.pid, e.tid, e.ts_ns, render_event(e)))
            .collect();
        lines.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then(a.1.cmp(&b.1))
                .then(a.2.total_cmp(&b.2))
                .then_with(|| a.3.cmp(&b.3))
        });
        wrap_chrome_json(lines.into_iter().map(|(_, _, _, l)| l))
    }
}

/// Render an iterator of events as a complete Chrome trace JSON
/// document.
fn render_chrome_json<'a>(events: impl Iterator<Item = &'a TraceEvent>) -> String {
    wrap_chrome_json(events.map(render_event))
}

fn wrap_chrome_json(lines: impl Iterator<Item = String>) -> String {
    // Rendered lines run ~100-200 bytes; reserving up front keeps the
    // export from reallocating log2(n) times on big sweeps.
    let mut out = String::with_capacity(lines.size_hint().0 * 160 + 32);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    for line in lines {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&line);
    }
    out.push_str("\n]}\n");
    out
}

/// Nanoseconds to the microsecond field Chrome expects, with fixed
/// three-decimal formatting (exact for integer-nanosecond inputs below
/// 2^53, which keeps the canonical form byte-stable).
fn us(ns: f64) -> String {
    format!("{:.3}", ns / 1000.0)
}

/// Render one event as a single-line `trace_event` object.
fn render_event(e: &TraceEvent) -> String {
    let mut out = String::with_capacity(160);
    out.push('{');
    let _ = write!(out, "\"name\":\"{}\"", escape(&e.name));
    let cat = match e.scope {
        Scope::Virtual => "virtual",
        Scope::Wall => "wall",
    };
    let _ = write!(out, ",\"cat\":\"{cat}\"");
    match &e.kind {
        EventKind::Span { dur_ns } => {
            let _ = write!(out, ",\"ph\":\"X\",\"dur\":{}", us(*dur_ns));
        }
        EventKind::Counter => out.push_str(",\"ph\":\"C\""),
        EventKind::Instant => out.push_str(",\"ph\":\"i\",\"s\":\"t\""),
    }
    let _ = write!(
        out,
        ",\"pid\":{},\"tid\":{},\"ts\":{}",
        e.pid,
        e.tid,
        us(e.ts_ns)
    );
    if !e.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in e.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":", escape(k));
            match v {
                ArgValue::Str(s) => {
                    let _ = write!(out, "\"{}\"", escape(s));
                }
                ArgValue::Num(n) => {
                    let _ = write!(out, "{n}");
                }
                ArgValue::Bool(b) => {
                    let _ = write!(out, "{b}");
                }
            }
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// The thread-local recording context of one in-flight configuration.
struct TaskCtx {
    trace: Arc<Trace>,
    pid: u64,
    clock_ns: f64,
    buf: Vec<TraceEvent>,
}

thread_local! {
    static CTX: RefCell<Option<TaskCtx>> = const { RefCell::new(None) };
}

/// Arms the current thread's recorder for one configuration; dropping
/// it flushes the buffered events into the trace and disarms.
pub struct TaskGuard {
    prev: Option<TaskCtx>,
}

impl Drop for TaskGuard {
    fn drop(&mut self) {
        CTX.with(|c| {
            let finished = std::mem::replace(&mut *c.borrow_mut(), self.prev.take());
            if let Some(ctx) = finished {
                ctx.trace.extend(ctx.buf);
            }
        });
    }
}

/// Arm the current thread to record into `trace` for the configuration
/// at work-list index `pid`. The virtual clock starts at 0; events
/// buffer locally and flush when the returned guard drops. Nested calls
/// stack (the previous context is restored on drop).
pub fn begin_task(trace: Arc<Trace>, pid: u64) -> TaskGuard {
    CTX.with(|c| {
        let prev = c.borrow_mut().replace(TaskCtx {
            trace,
            pid,
            clock_ns: 0.0,
            // A typical task records a handful of engine spans plus one
            // queue span per command; 32 covers the common case without
            // mid-task reallocation.
            buf: Vec::with_capacity(32),
        });
        TaskGuard { prev }
    })
}

/// Is the current thread armed for recording?
pub fn is_active() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

/// The current task's virtual clock, nanoseconds (0 when unarmed).
pub fn vclock_ns() -> f64 {
    CTX.with(|c| c.borrow().as_ref().map(|t| t.clock_ns).unwrap_or(0.0))
}

/// Advance the current task's virtual clock (no-op when unarmed).
pub fn advance_vclock(ns: f64) {
    CTX.with(|c| {
        if let Some(t) = c.borrow_mut().as_mut() {
            t.clock_ns += ns;
        }
    });
}

fn record(
    tid: u64,
    name: &str,
    ts_ns: f64,
    kind: EventKind,
    args: impl FnOnce() -> Vec<(String, ArgValue)>,
) {
    CTX.with(|c| {
        if let Some(t) = c.borrow_mut().as_mut() {
            t.buf.push(TraceEvent {
                name: name.to_string(),
                pid: t.pid,
                tid,
                ts_ns,
                kind,
                scope: Scope::Virtual,
                args: args(),
            });
        }
    });
}

/// Build an args vector from `(key, value)` pairs.
pub fn args<const N: usize>(pairs: [(&str, ArgValue); N]) -> Vec<(String, ArgValue)> {
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// Record a virtual span on lane `tid` (no-op when unarmed).
///
/// `args` is a thunk so unarmed threads — every worker of an untraced
/// sweep — never allocate the key/value vector. Pass `Vec::new` when
/// there are no arguments.
pub fn span(
    tid: u64,
    name: &str,
    ts_ns: f64,
    dur_ns: f64,
    args: impl FnOnce() -> Vec<(String, ArgValue)>,
) {
    record(tid, name, ts_ns, EventKind::Span { dur_ns }, args);
}

/// Record a virtual counter sample on lane `tid` (no-op when unarmed).
/// `args` is lazy; see [`span`].
pub fn counter(tid: u64, name: &str, ts_ns: f64, args: impl FnOnce() -> Vec<(String, ArgValue)>) {
    record(tid, name, ts_ns, EventKind::Counter, args);
}

/// Record a virtual instant on lane `tid` (no-op when unarmed).
/// `args` is lazy; see [`span`].
pub fn instant(tid: u64, name: &str, ts_ns: f64, args: impl FnOnce() -> Vec<(String, ArgValue)>) {
    record(tid, name, ts_ns, EventKind::Instant, args);
}

/// Record a wall-scoped instant for the current task (no-op when
/// unarmed) — sequence-ordered, excluded from canonical output.
/// `args` is lazy; see [`span`].
pub fn wall_instant(name: &str, args: impl FnOnce() -> Vec<(String, ArgValue)>) {
    CTX.with(|c| {
        if let Some(t) = c.borrow().as_ref() {
            t.trace.wall_instant(t.pid, name, args());
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_thread_records_nothing() {
        assert!(!is_active());
        assert_eq!(vclock_ns(), 0.0);
        advance_vclock(100.0);
        span(TID_BUILD, "build", 0.0, 10.0, Vec::new);
        assert_eq!(vclock_ns(), 0.0);
    }

    #[test]
    fn guard_flushes_buffered_events_and_restores() {
        let trace = Trace::new();
        {
            let _g = begin_task(trace.clone(), 7);
            assert!(is_active());
            advance_vclock(500.0);
            assert_eq!(vclock_ns(), 500.0);
            span(TID_QUEUE, "kernel", 0.0, 500.0, || {
                args([("aborted", false.into())])
            });
            assert_eq!(trace.len(), 0, "buffered until the guard drops");
        }
        assert!(!is_active());
        assert_eq!(trace.len(), 1);
        let ev = &trace.events()[0];
        assert_eq!(ev.pid, 7);
        assert_eq!(ev.tid, TID_QUEUE);
        assert_eq!(ev.kind, EventKind::Span { dur_ns: 500.0 });
    }

    #[test]
    fn nested_tasks_stack() {
        let trace = Trace::new();
        let _outer = begin_task(trace.clone(), 1);
        advance_vclock(10.0);
        {
            let _inner = begin_task(trace.clone(), 2);
            assert_eq!(vclock_ns(), 0.0, "inner task gets a fresh clock");
            instant(TID_ENGINE, "inner", 0.0, Vec::new);
        }
        assert_eq!(vclock_ns(), 10.0, "outer clock restored");
        assert_eq!(trace.len(), 1, "inner flushed");
    }

    #[test]
    fn chrome_json_renders_all_phases() {
        let trace = Trace::new();
        {
            let _g = begin_task(trace.clone(), 0);
            span(TID_BUILD, "build", 0.0, 2500.0, Vec::new);
            counter(TID_QUEUE, "dram_rows", 2500.0, || {
                args([("hits", 3u64.into()), ("misses", 1u64.into())])
            });
            instant(TID_ENGINE, "fault", 100.0, || {
                args([("code", "timeout".into())])
            });
        }
        trace.wall_instant(0, "schedule", args([("worker", 1u64.into())]));
        let json = trace.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"ph\":\"X\",\"dur\":2.500"), "{json}");
        assert!(json.contains("\"ph\":\"C\""), "{json}");
        assert!(json.contains("\"ph\":\"i\",\"s\":\"t\""), "{json}");
        assert!(json.contains("\"cat\":\"wall\""), "{json}");
        assert!(json.trim_end().ends_with("]}"), "{json}");
    }

    #[test]
    fn canonical_excludes_wall_and_sorts_totally() {
        let trace = Trace::new();
        // Record pids out of order, as parallel workers would.
        for pid in [2u64, 0, 1] {
            let _g = begin_task(trace.clone(), pid);
            span(TID_BUILD, "build", 0.0, 100.0, Vec::new);
            span(TID_QUEUE, "kernel", 100.0, 50.0, Vec::new);
        }
        trace.wall_instant(0, "schedule", vec![]);
        let canon = trace.canonical_chrome_json();
        assert!(!canon.contains("wall"), "{canon}");
        let pids: Vec<usize> = canon
            .match_indices("\"pid\":")
            .map(|(i, _)| canon[i + 6..i + 7].parse().unwrap())
            .collect();
        let mut sorted = pids.clone();
        sorted.sort_unstable();
        assert_eq!(pids, sorted, "canonical output is pid-ordered");
    }

    #[test]
    fn canonical_is_identical_regardless_of_recording_order() {
        let make = |order: &[u64]| {
            let trace = Trace::new();
            for &pid in order {
                let _g = begin_task(trace.clone(), pid);
                span(TID_BUILD, "build", 0.0, 100.0 + pid as f64, Vec::new);
                trace.wall_instant(pid, "schedule", vec![]);
            }
            trace.canonical_chrome_json()
        };
        assert_eq!(make(&[0, 1, 2, 3]), make(&[3, 1, 0, 2]));
    }

    #[test]
    fn microsecond_formatting_is_exact_for_integer_ns() {
        assert_eq!(us(1234.0), "1.234");
        assert_eq!(us(0.0), "0.000");
        assert_eq!(us(300.0), "0.300");
        assert_eq!(us(2_500_000.0), "2500.000");
    }

    #[test]
    fn names_and_args_are_escaped() {
        let trace = Trace::new();
        {
            let _g = begin_task(trace.clone(), 0);
            instant(TID_ENGINE, "name\"with\\quote", 0.0, || {
                args([("msg", "line1\nline2".into())])
            });
        }
        let json = trace.to_chrome_json();
        assert!(json.contains("name\\\"with\\\\quote"), "{json}");
        assert!(json.contains("line1\\nline2"), "{json}");
    }
}
