//! `trace-cli`: run one `mpstream sweep|dse` command line in-process,
//! the way `core::cli` runs it, with every layer timed from outside.
//!
//! The program is reached only through public calls:
//!
//! * the request comes from `core::cli::parse_args` on the same argument
//!   vector the untraced run passes to the `mpstream` binary;
//! * points run through `Engine::run_list_observed` (what the CLI's
//!   checkpointed sweep and search paths use) with devices built by
//!   `mpcl::Device::new` around a timing wrapper of the standard
//!   `targets` backend;
//! * searches are driven through the public `Strategy` ask/tell calls;
//! * reports are rendered with `core::cli::render_*_report`.
//!
//! For every cost key seen for the first time the wrapper replays access
//! generation (`kernelgen::access_stream` + `fill`) and, when the request
//! validates, interpretation (`kernelgen::execute`), so the kernel-cost
//! time can be split into access generation and memory simulation, and
//! the queue's interpretation cost can be estimated per launch. A point's
//! first launch writes a destination array the context has only just
//! allocated, so the replay times one interpretation on fresh memory and
//! then three on the same, now resident, buffers, and charges each
//! point's first launch the first time and every later launch the median
//! of the other three.
//!
//! Span timestamps are this process's CPU clock, so steal time on a
//! shared host does not leak into layer times. The output file holds the
//! layer totals and the spans; `run.py` merges the spans of all traced
//! processes into one Chrome `trace_event` file.

use crate::sys::process_cpu_ns;
use kernelgen::{AccessPattern, ExecPlan, KernelConfig};
use mpcl::backend::{BuildArtifact, DeviceBackend, DeviceInfo, KernelCost, PowerModel};
use mpcl::{ClError, Device};
use mpstream_core::checkpoint::render_record;
use mpstream_core::cli::{self, CliMode, CliRequest};
use mpstream_core::dse::DseResult;
use mpstream_core::sweep::SweepResult;
use mpstream_core::{BenchConfig, Outcome, Runner};
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use targets::TargetId;

/// One closed span: name, CPU-clock start/end (ns) and parent index.
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
}

/// Layer counters and the span log of one traced process.
#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    /// Indices into `spans` of the open spans, innermost last.
    stack: Vec<usize>,
    kernel_cost_calls: u64,
    kernel_cost_misses: u64,
    kernel_cost_ns: u64,
    miss_ns: u64,
    repeat_results: u64,
    build_ns: u64,
    access_ns: u64,
    accesses_generated: u64,
    accesses_simulated: u64,
    interp_ns: u64,
    interp_launches: u64,
    replay_ns: u64,
    /// Per first-seen cost key: the replayed interpretation times on
    /// fresh and on resident buffers, charged on every launch of the plan.
    seen: HashMap<String, (u64, u64)>,
    /// No launch has been charged yet in the open point.
    fresh_point: bool,
    /// Cost results already produced under some key.
    costs: HashSet<String>,
}

impl Recorder {
    fn begin(&mut self, name: &'static str) {
        if name == "core.point" {
            self.fresh_point = true;
        }
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name,
            start: process_cpu_ns(),
            end: 0,
            parent,
        });
        self.stack.push(self.spans.len() - 1);
    }

    fn end(&mut self) -> u64 {
        let i = self.stack.pop().expect("span stack underflow");
        let now = process_cpu_ns();
        self.spans[i].end = now;
        now - self.spans[i].start
    }

    /// Drop the innermost open span without recording it.
    fn discard(&mut self) {
        let i = self.stack.pop().expect("span stack underflow");
        self.spans.truncate(i);
    }

    fn total(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }
}

type Shared = Arc<Mutex<Recorder>>;

/// The recorder, locked. Only this process's single engine worker and
/// the driving thread use it, one at a time.
fn lock(rec: &Shared) -> std::sync::MutexGuard<'_, Recorder> {
    rec.lock()
        .expect("recorder lock poisoned by a panicking span")
}

/// Does the fast pipeline feed this plan through kernelgen's access
/// generator? Contiguous STREAM plans on the coalescing targets take the
/// closed-form burst generator instead (`targets::common::run_plan`).
fn generates_accesses(target: TargetId, cfg: &KernelConfig) -> bool {
    target == TargetId::Cpu
        || !cfg.op.is_stream()
        || !matches!(cfg.pattern, AccessPattern::Contiguous)
}

/// Kernel-side accesses one launch of `cfg` simulates on `target`.
fn sample_cap(target: TargetId) -> u64 {
    match target {
        TargetId::Cpu => targets::cpu::CpuTuning::default().sample_cap,
        TargetId::Gpu => targets::gpu::GpuTuning::default().sample_cap,
        TargetId::FpgaAocl => targets::aocl::AoclTuning::default().sample_cap,
        TargetId::FpgaSdaccel => targets::sdaccel::SdaccelTuning::default().sample_cap,
    }
}

fn standard_backend(target: TargetId) -> Box<dyn DeviceBackend> {
    match target {
        TargetId::Cpu => Box::new(targets::CpuBackend::new()),
        TargetId::Gpu => Box::new(targets::GpuBackend::new()),
        TargetId::FpgaAocl => Box::new(targets::AoclBackend::new()),
        TargetId::FpgaSdaccel => Box::new(targets::SdaccelBackend::new()),
    }
}

/// A standard backend wrapped so every `build` and `kernel_cost` call is
/// timed and first-seen cost keys are replayed.
struct Timed {
    inner: Box<dyn DeviceBackend>,
    target: TargetId,
    validate: bool,
    rec: Shared,
}

impl Timed {
    /// Replay access generation and interpretation for a new plan,
    /// returning the interpretation times on fresh and resident buffers.
    fn replay(&self, rec: &mut Recorder, artifact: &BuildArtifact, plan: &ExecPlan) -> (u64, u64) {
        let cfg = &plan.cfg;
        let take = kernelgen::total_accesses(cfg).min(sample_cap(self.target));
        rec.accesses_simulated += take;
        rec.begin("trace.replay");
        if generates_accesses(self.target, cfg) {
            let t0 = process_cpu_ns();
            let mut stream = kernelgen::access_stream(plan, artifact.lane_group);
            let mut buf = Vec::with_capacity(1024);
            let mut left = take as usize;
            while left > 0 {
                buf.clear();
                let got = stream.fill(&mut buf, left.min(1024));
                if got == 0 {
                    break;
                }
                left -= got;
            }
            std::hint::black_box(&buf);
            rec.access_ns += process_cpu_ns() - t0;
            rec.accesses_generated += take - left as u64;
        }
        let mut interp = (0, 0);
        if self.validate {
            let bytes = cfg.array_bytes() as usize;
            let b: Vec<u8> = (0..bytes).map(|i| (i * 7 + 3) as u8).collect();
            let c: Vec<u8> = (0..bytes).map(|i| (i * 13 + 1) as u8).collect();
            // Zeroed like the context's lazily allocated destination.
            let mut a = vec![0u8; bytes];
            let mut timed = || {
                let t0 = process_cpu_ns();
                kernelgen::execute(cfg, &mut a, &b, &c);
                std::hint::black_box(&a);
                process_cpu_ns() - t0
            };
            let fresh = timed();
            // The median of three resident runs: a point charges it on
            // every launch after the first, so one slow sample would be
            // multiplied.
            let mut resident = [timed(), timed(), timed()];
            resident.sort_unstable();
            interp = (fresh, resident[1]);
        }
        rec.replay_ns += rec.end();
        interp
    }
}

impl DeviceBackend for Timed {
    fn info(&self) -> DeviceInfo {
        self.inner.info()
    }

    fn build(&mut self, cfg: &KernelConfig) -> Result<BuildArtifact, ClError> {
        lock(&self.rec).begin("targets.build");
        let out = self.inner.build(cfg);
        let mut rec = lock(&self.rec);
        rec.build_ns += rec.end();
        out
    }

    fn kernel_cost(&mut self, artifact: &BuildArtifact, plan: &ExecPlan) -> KernelCost {
        let key = format!(
            "{}|lane_group={}|fmax={:?}|{plan:?}",
            self.target.label(),
            artifact.lane_group,
            artifact.fmax_mhz
        );
        lock(&self.rec).begin("targets.kernel_cost");
        let cost = self.inner.kernel_cost(artifact, plan);
        let mut guard = lock(&self.rec);
        let rec = &mut *guard;
        let ns = rec.end();
        rec.kernel_cost_calls += 1;
        rec.kernel_cost_ns += ns;
        let (fresh, resident) = match rec.seen.get(&key) {
            Some(&interp) => interp,
            None => {
                rec.kernel_cost_misses += 1;
                rec.miss_ns += ns;
                if !rec.costs.insert(format!("{cost:?}")) {
                    rec.repeat_results += 1;
                }
                let interp = self.replay(rec, artifact, plan);
                rec.seen.insert(key, interp);
                interp
            }
        };
        if self.validate {
            rec.interp_launches += 1;
            rec.interp_ns += if rec.fresh_point { fresh } else { resident };
        }
        rec.fresh_point = false;
        cost
    }

    fn transfer_ns(&mut self, bytes: u64) -> f64 {
        self.inner.transfer_ns(bytes)
    }

    fn launch_overhead_ns(&self) -> f64 {
        self.inner.launch_overhead_ns()
    }

    fn power_model(&self) -> Option<PowerModel> {
        self.inner.power_model()
    }
}

/// Run `work` through the engine with timed devices, one span per point,
/// appending each outcome's checkpoint record to `records`.
fn run_points(
    engine: &mpstream_core::Engine,
    req: &CliRequest,
    work: &[BenchConfig],
    rec: &Shared,
    records: &Mutex<Vec<String>>,
) -> Vec<Outcome> {
    let validate = work.first().is_some_and(|b| b.validate);
    lock(rec).begin("core.engine");
    let make_runner = || {
        let backend = Timed {
            inner: standard_backend(req.target),
            target: req.target,
            validate,
            rec: Arc::clone(rec),
        };
        let runner = Runner::new(Device::new(Box::new(backend)));
        lock(rec).begin("core.point");
        runner
    };
    let observe = |o: &Outcome| {
        lock(rec).end();
        records
            .lock()
            .expect("record list lock")
            .push(render_record(o));
        lock(rec).begin("core.point");
    };
    let out = engine.run_list_observed(make_runner, work, observe);
    let mut r = lock(rec);
    if r.stack
        .last()
        .is_some_and(|&i| r.spans[i].name == "core.point")
    {
        r.discard();
    }
    r.end();
    out
}

fn run_sweep(
    engine: &mpstream_core::Engine,
    req: &CliRequest,
    rec: &Shared,
    records: &Mutex<Vec<String>>,
) -> String {
    let work: Vec<BenchConfig> = cli::sweep_param_space(req)
        .configs()
        .into_iter()
        .map(|cfg| cli::bench_protocol(req, cfg))
        .collect();
    let cache0 = engine.cache_stats();
    let points = run_points(engine, req, &work, rec, records);
    let result = SweepResult {
        points,
        cache: engine.cache_stats().since(cache0),
        retry: engine.retry_stats(),
        faults: engine.fault_counters(),
        resumed: 0,
    };
    lock(rec).begin("core.report");
    let report = cli::render_sweep_report(req, &result);
    lock(rec).end();
    report
}

fn run_dse(
    engine: &mpstream_core::Engine,
    req: &CliRequest,
    rec: &Shared,
    records: &Mutex<Vec<String>>,
) -> String {
    let space = cli::dse_param_space(req);
    let n = space.configs().len();
    let budget = cli::dse_budget(req, n);
    lock(rec).begin("core.dse");
    let mut strategy = cli::build_strategy(req, &space);
    lock(rec).end();
    let mut trace: Vec<Outcome> = Vec::new();
    let cache0 = engine.cache_stats();
    // The same loop as `core::dse::search_target` without a checkpoint
    // to resume from: ask, truncate to the budget, evaluate, tell.
    while budget == 0 || trace.len() < budget {
        lock(rec).begin("core.dse");
        let mut batch = strategy.ask();
        lock(rec).end();
        if batch.is_empty() {
            break;
        }
        if budget > 0 {
            batch.truncate(budget - trace.len());
        }
        let work: Vec<BenchConfig> = batch
            .into_iter()
            .map(|cfg| cli::bench_protocol(req, cfg))
            .collect();
        let outcomes = run_points(engine, req, &work, rec, records);
        lock(rec).begin("core.dse");
        strategy.tell(&outcomes);
        lock(rec).end();
        trace.extend(outcomes);
    }
    let failures = trace.iter().filter(|o| o.result.is_err()).count();
    let best = trace
        .iter()
        .filter_map(|o| o.gbps().filter(|g| !g.is_nan()).map(|g| (o, g)))
        .max_by(|(_, a), (_, b)| a.total_cmp(b))
        .map(|(o, _)| o.clone());
    let result = DseResult {
        best,
        trace,
        failures,
        resumed: 0,
        space_size: n,
        strategy: strategy.name().to_string(),
        cancelled: false,
        cache: engine.cache_stats().since(cache0),
        retry: engine.retry_stats(),
        faults: engine.fault_counters(),
    };
    lock(rec).begin("core.report");
    let report = cli::render_dse_report(req, &result);
    lock(rec).end();
    report
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

pub fn main(args: &[String]) -> Result<(), String> {
    let (out, argv) = match args {
        [flag, out, sep, argv @ ..] if flag == "--out" && sep == "--" => {
            (PathBuf::from(out), argv.to_vec())
        }
        _ => return Err("usage: trace-cli --out <file> -- <mpstream sweep|dse args>".into()),
    };
    let rec: Shared = Arc::new(Mutex::new(Recorder::default()));
    let records = Mutex::new(Vec::new());

    lock(&rec).begin("core.cli");
    let req = cli::parse_args(&argv)?.ok_or("trace-cli: --help is not a run")?;
    let engine = cli::build_engine(&req, None);
    lock(&rec).end();
    let report = match req.mode {
        CliMode::Sweep => run_sweep(&engine, &req, &rec, &records),
        CliMode::Dse => run_dse(&engine, &req, &rec, &records),
        CliMode::Run => return Err("trace-cli: only sweep and dse runs are traced".into()),
    };
    let cache = engine.cache_stats();
    let r = lock(&rec);

    let engine_ns = r.total("core.engine");
    let point_ns = r.total("core.point");
    let sim_ns = r.miss_ns.saturating_sub(r.access_ns);
    let runner_self =
        point_ns as f64 - (r.kernel_cost_ns + r.build_ns + r.interp_ns + r.replay_ns) as f64;
    let layers = [
        ("kernelgen.access_s", secs(r.access_ns)),
        ("kernelgen.accesses", r.accesses_generated as f64),
        ("kernelgen.interp_s", secs(r.interp_ns)),
        ("kernelgen.interp_launches", r.interp_launches as f64),
        ("memsim.sim_s", secs(sim_ns)),
        ("memsim.simulated_accesses", r.accesses_simulated as f64),
        ("targets.kernel_cost_s", secs(r.kernel_cost_ns)),
        ("targets.kernel_cost_calls", r.kernel_cost_calls as f64),
        ("targets.kernel_cost_misses", r.kernel_cost_misses as f64),
        ("targets.repeat_results", r.repeat_results as f64),
        ("targets.build_s", secs(r.build_ns)),
        ("mpcl.build_cache_misses", cache.misses as f64),
        ("core.point_s", secs(point_ns)),
        ("core.runner_self_s", runner_self * 1e-9),
        ("core.engine_self_s", secs(engine_ns - point_ns)),
        ("core.dse_s", secs(r.total("core.dse"))),
        ("core.report_s", secs(r.total("core.report"))),
        ("core.cli_s", secs(r.total("core.cli"))),
        ("trace.replay_s", secs(r.replay_ns)),
    ];
    let mut json = String::from("{\"layers\": {");
    for (i, (k, v)) in layers.iter().enumerate() {
        json.push_str(&format!("{}\"{k}\": {v}", if i > 0 { ", " } else { "" }));
    }
    json.push_str("}, \"spans\": [");
    for (i, s) in r.spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or("null".to_string(), |p| format!("\"{}\"", r.spans[p].name));
        json.push_str(&format!(
            "{}[\"{}\", {}, {}, {}]",
            if i > 0 { ", " } else { "" },
            s.name,
            s.start / 1000,
            s.end / 1000,
            parent
        ));
    }
    json.push_str("], \"records\": [");
    for (i, line) in records.lock().expect("record list lock").iter().enumerate() {
        json.push_str(&format!(
            "{}\"{}\"",
            if i > 0 { ", " } else { "" },
            line.replace('\\', "\\\\").replace('"', "\\\"")
        ));
    }
    json.push_str("]}\n");
    std::hint::black_box(report);
    let mut f = std::fs::File::create(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    f.write_all(json.as_bytes()).map_err(|e| e.to_string())
}
