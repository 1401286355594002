//! Command-line front end for the benchmark — the equivalent of the
//! original MP-STREAM's command-line tool, factored as a library so the
//! argument grammar and execution are unit-testable. The `mpstream`
//! binary in the workspace root is a thin wrapper.

use crate::checkpoint::Checkpoint;
use crate::config::BenchConfig;
use crate::engine::{
    default_jobs, env_fault_seed, env_fault_spec, env_retries, Engine, ResiliencePolicy,
    DEFAULT_FAULT_RETRIES, DEFAULT_FAULT_SEED,
};
use crate::report::Table;
use crate::runner::Runner;
use crate::space::ParamSpace;
use crate::sweep::{sweep_space, sweep_space_checkpointed};
use crate::trace::Trace;
use kernelgen::{
    AccessPattern, AoclOpts, ChannelSpec, DataType, KernelConfig, LoopMode, StreamOp, VectorWidth,
    VendorOpts,
};
use mpcl::{FaultPlan, FaultSpec};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use targets::TargetId;

/// What the request asks for: a one-shot benchmark run, a sweep over
/// vector widths and unroll factors, or an automated search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CliMode {
    /// Run each requested kernel once at the given tuning point.
    Run,
    /// Sweep the cartesian product of `--vectors` x `--unrolls`.
    Sweep,
    /// Search the same product (all loop modes) with a `--strategy`
    /// instead of exhaustively, reporting best-config and Pareto front.
    Dse,
}

/// The search strategy a `dse` request names (`--strategy`). Each maps
/// to one of the [`crate::dse::Strategy`] implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DseStrategy {
    /// Exhaustive grid — every point, like a sweep.
    Grid,
    /// Seeded uniform random sample.
    Random,
    /// Steepest-ascent hill climbing with random restarts.
    Hill,
    /// Simulated annealing.
    Anneal,
    /// Genetic search (tournament selection + one-dim mutation).
    Genetic,
    /// Surrogate-model search (ridge regression over kernel features).
    Model,
}

impl DseStrategy {
    /// The `--strategy` spelling of this variant.
    pub fn label(&self) -> &'static str {
        match self {
            DseStrategy::Grid => "grid",
            DseStrategy::Random => "random",
            DseStrategy::Hill => "hill",
            DseStrategy::Anneal => "anneal",
            DseStrategy::Genetic => "genetic",
            DseStrategy::Model => "model",
        }
    }

    /// Parse a `--strategy` value.
    pub fn from_label(s: &str) -> Option<DseStrategy> {
        Some(match s {
            "grid" => DseStrategy::Grid,
            "random" => DseStrategy::Random,
            "hill" => DseStrategy::Hill,
            "anneal" => DseStrategy::Anneal,
            "genetic" => DseStrategy::Genetic,
            "model" => DseStrategy::Model,
            _ => return None,
        })
    }
}

/// The `--dse-seed` default: searches are deterministic even when no
/// seed is given. (42 is also the seed the CI smoke job's quality bound
/// is pinned against.)
pub const DEFAULT_DSE_SEED: u64 = 42;

/// A parsed command-line request.
#[derive(Debug, Clone, PartialEq)]
pub struct CliRequest {
    /// Run or sweep (the `sweep` subcommand).
    pub mode: CliMode,
    /// Target to run on.
    pub target: TargetId,
    /// Kernels to run (default: all four).
    pub ops: Vec<StreamOp>,
    /// Array size in bytes.
    pub size_bytes: u64,
    /// Element type.
    pub dtype: DataType,
    /// Vector width.
    pub width: u32,
    /// Loop management.
    pub loop_mode: LoopMode,
    /// Access pattern.
    pub pattern: AccessPattern,
    /// Unroll factor.
    pub unroll: u32,
    /// Producer→consumer channel depth (`--channel-depth`); `None` keeps
    /// the classic single-stage kernels.
    pub channel_depth: Option<u32>,
    /// AOCL replication (SIMD, CUs).
    pub aocl: Option<(u32, u32)>,
    /// Timed repetitions.
    pub ntimes: u32,
    /// Worker threads for multi-kernel runs; `None` picks the default
    /// (`MPSTREAM_JOBS` or the machine's available parallelism).
    pub jobs: Option<usize>,
    /// Skip functional validation.
    pub no_validate: bool,
    /// Emit CSV instead of an aligned table.
    pub csv: bool,
    /// Append a deterministic ASCII chart to sweep/dse reports.
    pub chart: bool,
    /// Print the generated OpenCL kernel source instead of running.
    pub show_kernel: bool,
    /// Vector widths swept in sweep mode.
    pub widths: Vec<u32>,
    /// Unroll factors swept in sweep mode.
    pub unrolls: Vec<u32>,
    /// Fault-injection spec (`--faults`; falls back to `MPSTREAM_FAULTS`).
    pub faults: Option<FaultSpec>,
    /// Fault-plan seed (`--fault-seed`; falls back to
    /// `MPSTREAM_FAULT_SEED`, then [`DEFAULT_FAULT_SEED`]).
    pub fault_seed: Option<u64>,
    /// Per-config retry budget (`--retries`; falls back to
    /// `MPSTREAM_RETRIES`, then [`DEFAULT_FAULT_RETRIES`] when faults are
    /// enabled, else 0).
    pub retries: Option<u32>,
    /// Per-config deadline bounding retries, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Search strategy for the `dse` subcommand.
    pub strategy: DseStrategy,
    /// Evaluation budget for the `dse` subcommand (`None` picks a
    /// strategy-appropriate default; see [`dse_budget`]).
    pub budget: Option<usize>,
    /// Seed for the `dse` search (default [`DEFAULT_DSE_SEED`]).
    pub dse_seed: Option<u64>,
    /// Record finished sweep points to this JSONL checkpoint file.
    pub checkpoint: Option<PathBuf>,
    /// Skip sweep points already present in `--checkpoint`.
    pub resume: bool,
    /// Write a Chrome `trace_event` JSON trace of the run here.
    pub trace: Option<PathBuf>,
}

impl Default for CliRequest {
    fn default() -> Self {
        CliRequest {
            mode: CliMode::Run,
            target: TargetId::Cpu,
            ops: StreamOp::ALL.to_vec(),
            size_bytes: 4 << 20,
            dtype: DataType::I32,
            width: 1,
            loop_mode: LoopMode::NdRange,
            pattern: AccessPattern::Contiguous,
            unroll: 1,
            channel_depth: None,
            aocl: None,
            ntimes: 5,
            jobs: None,
            no_validate: false,
            csv: false,
            chart: false,
            show_kernel: false,
            widths: vec![1, 2, 4, 8, 16],
            unrolls: vec![1],
            faults: None,
            fault_seed: None,
            retries: None,
            deadline_ms: None,
            strategy: DseStrategy::Model,
            budget: None,
            dse_seed: None,
            checkpoint: None,
            resume: false,
            trace: None,
        }
    }
}

/// The usage string printed on `--help` or a parse error.
pub const USAGE: &str = "\
usage: mpstream [sweep|dse] [options]
  sweep                             sweep --vectors x --unrolls instead of
                                    running each kernel once
  dse                               search the sweep space (all loop modes)
                                    with --strategy instead of exhaustively,
                                    reporting the best config and the
                                    bandwidth-vs-logic Pareto front
  --target <aocl|sdaccel|cpu|gpu>   device to run on (default cpu)
  --kernel <name>                   kernel (repeatable; default the four
                                    STREAM ops). Names: copy, scale, add,
                                    triad, gups, ptrans, dgemm
  --ops <a,b,..>                    comma-separated kernel list — same
                                    names as --kernel (e.g. gups,ptrans)
  --size <N[K|M|G]>                 bytes per array (default 4M)
  --dtype <int|double>              element type (default int)
  --vector <1|2|4|8|16>             vectorization width (default 1)
  --loop <ndrange|flat|nested>      loop management (default ndrange;
                                    FPGAs default to flat)
  --pattern <contig|colmajor|strideN>  access pattern (default contig)
  --unroll <N>                      unroll factor (default 1)
  --channel-depth <N>               split each kernel into a producer ->
                                    consumer pair joined by a channel
                                    (AOCL) / pipe (SDAccel) of N elements;
                                    AOCL fuses depth 0 back to one stage,
                                    SDAccel requires a power of two
  --simd <N>                        AOCL num_simd_work_items
  --compute-units <N>               AOCL num_compute_units
  --ntimes <N>                      timed repetitions (default 5)
  --jobs <N>                        worker threads for multi-kernel runs
                                    (default: MPSTREAM_JOBS env var, else
                                    the machine's available parallelism)
  --no-validate                     skip STREAM-style result validation
  --csv                             CSV output
  --chart                           sweep/dse mode: append an ASCII chart
                                    (bandwidth by vector width, or search
                                    convergence) to the report
  --show-kernel                     print the generated OpenCL kernel
  --list-devices                    list the simulated platforms
  --vectors <a,b,..>                sweep mode: vector widths to sweep
                                    (default 1,2,4,8,16)
  --unrolls <a,b,..>                sweep mode: unroll factors to sweep
                                    (default 1)
  --faults <spec>                   inject deterministic faults, e.g.
                                    build=0.2,timeout=0.1,lost=0.05,bitflip=0.01
                                    (default: MPSTREAM_FAULTS env var)
  --fault-seed <N>                  fault-plan seed, decimal or 0x-hex
                                    (default: MPSTREAM_FAULT_SEED, else 0x5EED)
  --retries <N>                     per-config retry budget for transient
                                    faults (default: MPSTREAM_RETRIES, else 3
                                    when faults are on, else 0)
  --deadline-ms <N>                 per-config deadline bounding retries
  --strategy <name>                 dse mode: grid|random|hill|anneal|
                                    genetic|model (default model)
  --budget <N>                      dse mode: evaluation budget (default:
                                    the whole space for grid, else
                                    ~a tenth of it)
  --dse-seed <N>                    dse mode: search seed, decimal or
                                    0x-hex (default 42)
  --checkpoint <path>               sweep/dse mode: record finished points
                                    to a JSONL file as workers complete
  --resume                          sweep/dse mode: skip points already in
                                    the --checkpoint file
  --trace <file>                    write a Chrome trace_event JSON trace
                                    (open with chrome://tracing or Perfetto;
                                    MPSTREAM_TRACE_CANONICAL=1 writes the
                                    canonical jobs-invariant form)
  --help                            this text";

/// Parse a size argument like `4M`, `512K`, `1G`, `8192`.
pub fn parse_size(s: &str) -> Result<u64, String> {
    let (num, mult) = match s.char_indices().last() {
        Some((i, 'K')) | Some((i, 'k')) => (&s[..i], 1u64 << 10),
        Some((i, 'M')) | Some((i, 'm')) => (&s[..i], 1u64 << 20),
        Some((i, 'G')) | Some((i, 'g')) => (&s[..i], 1u64 << 30),
        _ => (s, 1),
    };
    // Allow decimal MB-style values like 0.25M.
    if let Ok(f) = num.parse::<f64>() {
        if f > 0.0 {
            return Ok(if mult == 1 {
                f.round() as u64
            } else {
                (f * mult as f64).round() as u64
            });
        }
    }
    Err(format!("invalid size '{s}' (try 4M, 512K, 1G){}", ""))
}

/// Parse a comma-separated list of positive integers (`--vectors`,
/// `--unrolls`).
fn parse_u32_list(v: &str, flag: &str) -> Result<Vec<u32>, String> {
    let parsed: Result<Vec<u32>, _> = v.split(',').map(|t| t.trim().parse::<u32>()).collect();
    match parsed {
        Ok(list) if !list.is_empty() && list.iter().all(|&n| n > 0) => Ok(list),
        _ => Err(format!(
            "invalid {flag} '{v}' (comma-separated positive integers)"
        )),
    }
}

/// Parse a u64 that may be written in decimal or `0x`-prefixed hex.
fn parse_u64(v: &str) -> Option<u64> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

/// Parse the full argument list (without the program name).
pub fn parse_args(args: &[String]) -> Result<Option<CliRequest>, String> {
    let mut req = CliRequest::default();
    let mut ops: Vec<StreamOp> = Vec::new();
    let mut loop_set = false;
    let mut strategy_set = false;
    // The optional leading subcommand.
    let args = match args.first().map(String::as_str) {
        Some("sweep") => {
            req.mode = CliMode::Sweep;
            &args[1..]
        }
        Some("dse") => {
            req.mode = CliMode::Dse;
            &args[1..]
        }
        _ => args,
    };
    let mut it = args.iter();
    let need = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };

    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--target" => {
                let v = need(&mut it, "--target")?;
                req.target =
                    TargetId::from_label(&v).ok_or_else(|| format!("unknown target '{v}'"))?;
            }
            "--kernel" => {
                let v = need(&mut it, "--kernel")?;
                ops.push(StreamOp::parse(&v)?);
            }
            "--ops" => {
                let v = need(&mut it, "--ops")?;
                for name in v.split(',') {
                    ops.push(StreamOp::parse(name.trim())?);
                }
            }
            "--size" => req.size_bytes = parse_size(&need(&mut it, "--size")?)?,
            "--dtype" => {
                req.dtype = match need(&mut it, "--dtype")?.as_str() {
                    "int" | "i32" => DataType::I32,
                    "double" | "f64" => DataType::F64,
                    other => return Err(format!("unknown dtype '{other}'")),
                }
            }
            "--vector" => {
                req.width = need(&mut it, "--vector")?
                    .parse()
                    .map_err(|_| "invalid --vector".to_string())?;
            }
            "--loop" => {
                loop_set = true;
                req.loop_mode = match need(&mut it, "--loop")?.as_str() {
                    "ndrange" => LoopMode::NdRange,
                    "flat" => LoopMode::SingleWorkItemFlat,
                    "nested" => LoopMode::SingleWorkItemNested,
                    other => return Err(format!("unknown loop mode '{other}'")),
                };
            }
            "--pattern" => {
                let v = need(&mut it, "--pattern")?;
                req.pattern = if v == "contig" {
                    AccessPattern::Contiguous
                } else if v == "colmajor" {
                    AccessPattern::ColMajor { cols: None }
                } else if let Some(n) = v.strip_prefix("stride") {
                    AccessPattern::Strided {
                        stride: n.parse().map_err(|_| format!("bad stride in '{v}'"))?,
                    }
                } else {
                    return Err(format!("unknown pattern '{v}'"));
                };
            }
            "--unroll" => {
                req.unroll = need(&mut it, "--unroll")?
                    .parse()
                    .map_err(|_| "invalid --unroll".to_string())?;
            }
            "--channel-depth" => {
                req.channel_depth = Some(
                    need(&mut it, "--channel-depth")?
                        .parse()
                        .map_err(|_| "invalid --channel-depth".to_string())?,
                );
            }
            "--simd" => {
                let n = need(&mut it, "--simd")?
                    .parse()
                    .map_err(|_| "invalid --simd".to_string())?;
                let (_, cu) = req.aocl.unwrap_or((1, 1));
                req.aocl = Some((n, cu));
            }
            "--compute-units" => {
                let n = need(&mut it, "--compute-units")?
                    .parse()
                    .map_err(|_| "invalid --compute-units".to_string())?;
                let (simd, _) = req.aocl.unwrap_or((1, 1));
                req.aocl = Some((simd, n));
            }
            "--ntimes" => {
                req.ntimes = need(&mut it, "--ntimes")?
                    .parse()
                    .map_err(|_| "invalid --ntimes".to_string())?;
                if req.ntimes == 0 {
                    return Err("--ntimes needs at least 1".to_string());
                }
            }
            "--jobs" => {
                let n: usize = need(&mut it, "--jobs")?
                    .parse()
                    .map_err(|_| "invalid --jobs".to_string())?;
                if n == 0 {
                    return Err("--jobs needs at least 1".to_string());
                }
                req.jobs = Some(n);
            }
            "--no-validate" => req.no_validate = true,
            "--csv" => req.csv = true,
            "--chart" => req.chart = true,
            "--show-kernel" => req.show_kernel = true,
            "--vectors" => req.widths = parse_u32_list(&need(&mut it, "--vectors")?, "--vectors")?,
            "--unrolls" => req.unrolls = parse_u32_list(&need(&mut it, "--unrolls")?, "--unrolls")?,
            "--faults" => req.faults = Some(FaultSpec::parse(&need(&mut it, "--faults")?)?),
            "--fault-seed" => {
                let v = need(&mut it, "--fault-seed")?;
                req.fault_seed =
                    Some(parse_u64(&v).ok_or_else(|| format!("invalid --fault-seed '{v}'"))?);
            }
            "--retries" => {
                req.retries = Some(
                    need(&mut it, "--retries")?
                        .parse()
                        .map_err(|_| "invalid --retries".to_string())?,
                );
            }
            "--deadline-ms" => {
                let v = need(&mut it, "--deadline-ms")?;
                let ms: u64 = v.parse().map_err(|_| "invalid --deadline-ms".to_string())?;
                if ms == 0 {
                    return Err("--deadline-ms needs at least 1".to_string());
                }
                req.deadline_ms = Some(ms);
            }
            "--strategy" => {
                let v = need(&mut it, "--strategy")?;
                req.strategy =
                    DseStrategy::from_label(&v).ok_or_else(|| format!("unknown strategy '{v}'"))?;
                strategy_set = true;
            }
            "--budget" => {
                let n: usize = need(&mut it, "--budget")?
                    .parse()
                    .map_err(|_| "invalid --budget".to_string())?;
                if n == 0 {
                    return Err("--budget needs at least 1".to_string());
                }
                req.budget = Some(n);
            }
            "--dse-seed" => {
                let v = need(&mut it, "--dse-seed")?;
                req.dse_seed =
                    Some(parse_u64(&v).ok_or_else(|| format!("invalid --dse-seed '{v}'"))?);
            }
            "--checkpoint" => req.checkpoint = Some(PathBuf::from(need(&mut it, "--checkpoint")?)),
            "--resume" => req.resume = true,
            "--trace" => req.trace = Some(PathBuf::from(need(&mut it, "--trace")?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !ops.is_empty() {
        req.ops = ops;
    }
    if req.resume && req.checkpoint.is_none() {
        return Err("--resume needs --checkpoint <path>".to_string());
    }
    if req.checkpoint.is_some() && !matches!(req.mode, CliMode::Sweep | CliMode::Dse) {
        return Err(
            "--checkpoint/--resume only apply to the sweep and dse subcommands".to_string(),
        );
    }
    if (strategy_set || req.budget.is_some() || req.dse_seed.is_some()) && req.mode != CliMode::Dse
    {
        return Err("--strategy/--budget/--dse-seed only apply to the dse subcommand".to_string());
    }
    if req.chart && !matches!(req.mode, CliMode::Sweep | CliMode::Dse) {
        return Err("--chart only applies to the sweep and dse subcommands".to_string());
    }
    // FPGAs default to their sensible loop form unless told otherwise.
    if !loop_set && req.target.is_fpga() {
        req.loop_mode = LoopMode::SingleWorkItemFlat;
    }
    Ok(Some(req))
}

/// Resolve the fault plan and resilience policy for a request: explicit
/// flags win, then the `MPSTREAM_FAULTS` / `MPSTREAM_FAULT_SEED` /
/// `MPSTREAM_RETRIES` environment, then defaults (retries default to
/// [`DEFAULT_FAULT_RETRIES`] only when faults are enabled — a fault-free
/// run has nothing transient to retry).
pub fn resilience(req: &CliRequest) -> (Option<Arc<FaultPlan>>, ResiliencePolicy) {
    let spec = req.faults.or_else(env_fault_spec);
    let plan = spec.map(|s| {
        let seed = req
            .fault_seed
            .or_else(env_fault_seed)
            .unwrap_or(DEFAULT_FAULT_SEED);
        Arc::new(FaultPlan::new(s, seed))
    });
    let retries = req
        .retries
        .or_else(env_retries)
        .unwrap_or(if plan.is_some() {
            DEFAULT_FAULT_RETRIES
        } else {
            0
        });
    let mut policy = ResiliencePolicy::retrying(retries);
    if let Some(ms) = req.deadline_ms {
        policy = policy.with_deadline(Duration::from_millis(ms));
    }
    (plan, policy)
}

/// The trace sink a request asks for: an armed [`Trace`] when `--trace`
/// was given, else `None` (tracing is then a no-op throughout).
fn trace_sink(req: &CliRequest) -> Option<Arc<Trace>> {
    req.trace.as_ref().map(|_| Trace::new())
}

/// Write the collected trace where `--trace` pointed. With
/// `MPSTREAM_TRACE_CANONICAL=1` in the environment the canonical form
/// (virtual lanes only, sorted) is written instead — byte-identical
/// across `--jobs` counts, which is what the CI determinism job diffs.
fn write_trace(req: &CliRequest, trace: Option<&Arc<Trace>>) -> Result<(), String> {
    let (Some(path), Some(t)) = (req.trace.as_ref(), trace) else {
        return Ok(());
    };
    let canonical = crate::env::flag_enabled("MPSTREAM_TRACE_CANONICAL");
    let json = if canonical {
        t.canonical_chrome_json()
    } else {
        t.to_chrome_json()
    };
    std::fs::write(path, json).map_err(|e| format!("trace {}: {e}", path.display()))
}

/// Build the kernel configuration for one op of the request.
pub fn kernel_config(req: &CliRequest, op: StreamOp) -> Result<KernelConfig, String> {
    let mut cfg = KernelConfig::baseline(op, req.size_bytes / req.dtype.word_bytes());
    cfg.dtype = req.dtype;
    cfg.vector_width = VectorWidth::new(req.width)?;
    cfg.loop_mode = req.loop_mode;
    cfg.pattern = req.pattern;
    cfg.unroll = req.unroll;
    cfg.channel = req.channel_depth.map(|depth| ChannelSpec { depth });
    if let Some((simd, cu)) = req.aocl {
        cfg.reqd_work_group_size = simd > 1;
        cfg.vendor = VendorOpts::Aocl(AoclOpts {
            num_simd_work_items: simd,
            num_compute_units: cu,
        });
    }
    Ok(cfg)
}

/// Execute a request and render the report (the binary prints this).
pub fn execute(req: &CliRequest) -> Result<String, String> {
    if req.show_kernel {
        let cfg = kernel_config(req, req.ops.first().copied().unwrap_or(StreamOp::Copy))?;
        return Ok(kernelgen::generate_source(&cfg));
    }
    if req.mode == CliMode::Sweep {
        return execute_sweep(req);
    }
    if req.mode == CliMode::Dse {
        return execute_dse(req);
    }

    let info = Runner::for_target(req.target).device().info().clone();
    let mut table = Table::new(&["kernel", "bytes/iter", "best GB/s", "avg ms", "valid"]);
    let mut failures = Vec::new();

    let mut work = Vec::with_capacity(req.ops.len());
    for &op in &req.ops {
        let cfg = kernel_config(req, op)?;
        work.push(bench_protocol(req, cfg));
    }

    // One kernel per work item, fanned across the engine's pool; the
    // outcomes come back in request order regardless of --jobs.
    let trace = trace_sink(req);
    let engine = build_engine(req, trace.clone());
    for (op, outcome) in req.ops.iter().zip(engine.run_list(req.target, &work)) {
        match outcome.result {
            Ok(m) => {
                table.row(&[
                    op.name().to_string(),
                    m.bytes_moved.to_string(),
                    format!("{:.3}", m.gbps()),
                    format!("{:.4}", m.avg_wall_ns / 1e6),
                    m.validated
                        .map(|v| v.to_string())
                        .unwrap_or_else(|| "skipped".into()),
                ]);
            }
            Err(e) => failures.push(format!("{}: {e}", op.name())),
        }
    }

    let mut out = format!(
        "MP-STREAM on {} (peak {:.1} GB/s)\narray size {} bytes x {:?}, {} repetitions\n\n",
        info.name, info.peak_gbps, req.size_bytes, req.dtype, req.ntimes
    );
    out.push_str(&if req.csv {
        table.to_csv()
    } else {
        table.to_text()
    });
    for f in failures {
        out.push_str(&format!("FAILED {f}\n"));
    }
    write_trace(req, trace.as_ref())?;
    Ok(out)
}

/// The parameter space a sweep request covers: the cartesian product of
/// the requested ops, `--vectors` and `--unrolls` at the fixed
/// size/dtype/loop/pattern. Shared by the offline CLI sweep and the
/// serve daemon so a submitted job sees exactly the points the CLI
/// would.
pub fn sweep_param_space(req: &CliRequest) -> ParamSpace {
    ParamSpace::new()
        .ops(req.ops.iter().copied())
        .sizes_bytes([req.size_bytes])
        .dtypes([req.dtype])
        .widths(req.widths.iter().copied())
        .patterns([req.pattern])
        .loop_modes([req.loop_mode])
        .unrolls(req.unrolls.iter().copied())
        .channel_depths([req.channel_depth])
}

/// The measurement protocol (repetitions, validation) a request applies
/// to one configuration.
pub fn bench_protocol(req: &CliRequest, cfg: KernelConfig) -> BenchConfig {
    BenchConfig::new(cfg)
        .with_ntimes(req.ntimes)
        .with_validation(
            !req.no_validate && req.size_bytes <= BenchConfig::AUTO_VALIDATE_LIMIT_BYTES,
        )
}

/// Build the execution engine a request asks for: `--jobs` workers, the
/// resolved resilience policy and fault plan, and the given trace sink.
pub fn build_engine(req: &CliRequest, trace: Option<Arc<Trace>>) -> Engine {
    let (plan, policy) = resilience(req);
    Engine::with_jobs(req.jobs.unwrap_or_else(default_jobs))
        .with_policy(policy)
        .with_faults(plan)
        .with_trace(trace)
}

/// Run the sweep a request describes on an already-built engine,
/// recording points to `ckpt` as workers complete when one is given.
/// Factored out of [`execute`] so the serve daemon can run the same
/// sweep (same space, same protocol) against its own per-job checkpoint
/// and cancel token.
pub fn run_sweep(
    engine: &Engine,
    req: &CliRequest,
    ckpt: Option<&Checkpoint>,
) -> crate::sweep::SweepResult {
    let space = sweep_param_space(req);
    let protocol = |cfg: KernelConfig| bench_protocol(req, cfg);
    match ckpt {
        Some(ckpt) => sweep_space_checkpointed(engine, req.target, &space, protocol, ckpt),
        None => sweep_space(engine, req.target, &space, protocol),
    }
}

/// Render the sweep report text for a result — the exact bytes the
/// offline `mpstream sweep` prints, so a served job's fetched report can
/// be compared byte-for-byte against a local run.
pub fn render_sweep_report(req: &CliRequest, result: &crate::sweep::SweepResult) -> String {
    let info = Runner::for_target(req.target).device().info().clone();
    let mut out = format!(
        "MP-STREAM sweep on {} ({} points, {} bytes x {:?}, {} repetitions)\n\n",
        info.name,
        result.points.len(),
        req.size_bytes,
        req.dtype,
        req.ntimes
    );
    out.push_str(&if req.csv {
        result.table().to_csv()
    } else {
        result.table().to_text()
    });
    out.push('\n');
    out.push_str(&result.summary().to_text());
    if let Some(best) = result.best() {
        let k = &best.config;
        if let Some(gbps) = best.gbps() {
            out.push_str(&format!(
                "\nbest: {} v{} u{} -> {:.2} GB/s\n",
                k.op.name(),
                k.vector_width.get(),
                k.unroll,
                gbps
            ));
        }
    }
    // Per-config execution metrics last: tests that compare the point
    // table across fault plans truncate at the summary, and the cache
    // column here is a scheduling fact that may differ across runs.
    out.push('\n');
    out.push_str(&if req.csv {
        result.metrics_table().to_csv()
    } else {
        result.metrics_table().to_text()
    });
    if req.chart {
        out.push('\n');
        out.push_str(&sweep_chart(result));
    }
    out
}

/// The `--chart` panel of a sweep report: best sustained bandwidth per
/// vector width, one series per kernel — the same projection the
/// paper's bandwidth figures plot. Built from the result's point list
/// (deterministic at any `--jobs`), never from wall clocks, so the
/// rendering is byte-stable across runs.
pub fn sweep_chart(result: &crate::sweep::SweepResult) -> String {
    use std::collections::BTreeMap;
    let mut per_op: BTreeMap<&'static str, BTreeMap<u32, f64>> = BTreeMap::new();
    for o in &result.points {
        if let Ok(m) = &o.result {
            let best = per_op
                .entry(o.config.op.name())
                .or_default()
                .entry(o.config.vector_width.get())
                .or_insert(f64::NEG_INFINITY);
            *best = best.max(m.gbps());
        }
    }
    let mut chart = crate::chart::Chart::new("best GB/s by vector width")
        .size(64, 12)
        .x_scale(crate::chart::Scale::Log2)
        .y_scale(crate::chart::Scale::Log10)
        .x_label("vector width")
        .y_label("GB/s");
    for (op, widths) in per_op {
        let points: Vec<(f64, f64)> = widths.into_iter().map(|(w, g)| (f64::from(w), g)).collect();
        chart = chart.line(crate::report::Series::new(op, points));
    }
    chart.render()
}

/// The `--chart` panel of a DSE report: the search convergence curve —
/// best bandwidth found so far, by evaluation index in strategy visit
/// order (deterministic for a fixed seed at any `--jobs`).
pub fn dse_chart(result: &crate::dse::DseResult) -> String {
    let mut best = f64::NEG_INFINITY;
    let mut points = Vec::new();
    for (i, p) in result.trace.iter().enumerate() {
        if let Ok(m) = &p.result {
            best = best.max(m.gbps());
        }
        if best.is_finite() {
            points.push(((i + 1) as f64, best));
        }
    }
    crate::chart::Chart::new("search convergence: best GB/s by evaluation")
        .size(64, 12)
        .y_scale(crate::chart::Scale::Log10)
        .x_label("evaluation")
        .y_label("best GB/s")
        .line(crate::report::Series::new("best-so-far", points))
        .render()
}

/// Execute a sweep request: the cartesian product of the requested ops,
/// `--vectors` and `--unrolls` at the fixed size/dtype/loop/pattern,
/// fanned across the engine's pool — optionally checkpointed so a killed
/// sweep can `--resume` without redoing finished points.
fn execute_sweep(req: &CliRequest) -> Result<String, String> {
    let trace = trace_sink(req);
    let engine = build_engine(req, trace.clone());
    let result = match &req.checkpoint {
        Some(path) => {
            let ckpt = if req.resume {
                Checkpoint::resume(path)
            } else {
                Checkpoint::create(path)
            }
            .map_err(|e| format!("checkpoint {}: {e}", path.display()))?;
            run_sweep(&engine, req, Some(&ckpt))
        }
        None => run_sweep(&engine, req, None),
    };
    let out = render_sweep_report(req, &result);
    write_trace(req, trace.as_ref())?;
    Ok(out)
}

/// The parameter space a `dse` request searches: the sweep product, but
/// over **all three** loop modes — loop management is one of the
/// dimensions a search is supposed to settle, not an input.
pub fn dse_param_space(req: &CliRequest) -> ParamSpace {
    sweep_param_space(req).loop_modes(LoopMode::ALL)
}

/// The resolved evaluation budget of a `dse` request over a space of
/// `space_len` valid points: an explicit `--budget` wins (capped at the
/// space), grid always covers everything, and the other strategies
/// default to a tenth of the space (at least 4 points).
pub fn dse_budget(req: &CliRequest, space_len: usize) -> usize {
    match (req.budget, req.strategy) {
        (Some(b), _) => b.min(space_len),
        (None, DseStrategy::Grid) => space_len,
        (None, _) => (space_len / 10).max(4).min(space_len),
    }
}

/// Build the [`crate::dse::Strategy`] a request names, over `space`.
pub fn build_strategy(req: &CliRequest, space: &ParamSpace) -> Box<dyn crate::dse::Strategy> {
    use crate::dse::{
        AnnealSearch, ExhaustiveSearch, GeneticSearch, HillClimbSearch, ModelSearch, RandomSearch,
    };
    let seed = req.dse_seed.unwrap_or(DEFAULT_DSE_SEED);
    let budget = dse_budget(req, space.configs().len());
    match req.strategy {
        DseStrategy::Grid => Box::new(ExhaustiveSearch::new(space)),
        DseStrategy::Random => Box::new(RandomSearch::new(space, budget, seed)),
        DseStrategy::Hill => Box::new(HillClimbSearch::new(space, seed)),
        DseStrategy::Anneal => Box::new(AnnealSearch::new(space, budget, seed, 8.0)),
        DseStrategy::Genetic => Box::new(GeneticSearch::new(space, budget, seed)),
        DseStrategy::Model => Box::new(ModelSearch::new(space, budget, seed)),
    }
}

/// Run the search a `dse` request describes on an already-built engine,
/// recording points to `ckpt` when one is given. Factored out of
/// [`execute`] so the serve daemon can run the same search (same space,
/// same strategy, same seed) against its own per-job checkpoint and
/// cancel token.
pub fn run_dse(
    engine: &Engine,
    req: &CliRequest,
    ckpt: Option<&Checkpoint>,
) -> crate::dse::DseResult {
    let space = dse_param_space(req);
    let n = space.configs().len();
    let mut strategy = build_strategy(req, &space);
    let mut result = crate::dse::search_target(
        engine,
        req.target,
        strategy.as_mut(),
        dse_budget(req, n),
        |cfg| bench_protocol(req, cfg),
        ckpt,
    );
    result.space_size = n;
    result
}

/// Render the DSE report text for a result — the exact bytes the offline
/// `mpstream dse` prints, byte-identical at any `--jobs`, so a served
/// job's fetched report can be compared against a local run.
pub fn render_dse_report(req: &CliRequest, result: &crate::dse::DseResult) -> String {
    let info = Runner::for_target(req.target).device().info().clone();
    let mut out = format!(
        "MP-STREAM dse on {} ({} strategy, evaluated {} of {} points, {} bytes x {:?}, {} repetitions)\n",
        info.name,
        result.strategy,
        result.evaluations(),
        result.space_size,
        req.size_bytes,
        req.dtype,
        req.ntimes
    );
    if result.resumed > 0 || result.failures > 0 || result.cancelled {
        out.push_str(&format!(
            "{} resumed, {} failed{}\n",
            result.resumed,
            result.failures,
            if result.cancelled { ", cancelled" } else { "" }
        ));
    }
    out.push('\n');

    let mut t = Table::new(&["config", "GB/s", "logic", "retries", "note"]);
    for p in &result.trace {
        let cfg = crate::report::config_label(&p.config);
        let retries = p.retries.to_string();
        match &p.result {
            Ok(m) => t.row(&[
                cfg,
                format!("{:.2}", m.gbps()),
                m.resources
                    .map(|r| r.logic.to_string())
                    .unwrap_or_else(|| "-".into()),
                retries,
                String::new(),
            ]),
            Err(e) => {
                let mut note = e.to_string().replace('\n', " | ");
                note.truncate(90);
                t.row(&[cfg, "-".into(), "-".into(), retries, note])
            }
        };
    }
    out.push_str(&if req.csv { t.to_csv() } else { t.to_text() });

    if let Some(best) = &result.best {
        if let Some(gbps) = best.gbps() {
            let k = &best.config;
            out.push_str(&format!(
                "\nbest: {} v{} u{} -> {:.2} GB/s\n",
                k.op.name(),
                k.vector_width.get(),
                k.unroll,
                gbps
            ));
        }
    }

    let pareto = result.pareto_table();
    if !pareto.is_empty() {
        out.push_str("\npareto front (bandwidth vs logic):\n");
        out.push_str(&if req.csv {
            pareto.to_csv()
        } else {
            pareto.to_text()
        });
    }
    if req.chart {
        out.push('\n');
        out.push_str(&dse_chart(result));
    }
    out
}

/// Execute a `dse` request: build the strategy, drive it through the
/// engine batch by batch, optionally checkpointed so a killed search can
/// `--resume` along the same visit order.
fn execute_dse(req: &CliRequest) -> Result<String, String> {
    let trace = trace_sink(req);
    let engine = build_engine(req, trace.clone());
    let result = match &req.checkpoint {
        Some(path) => {
            let ckpt = if req.resume {
                Checkpoint::resume(path)
            } else {
                Checkpoint::create(path)
            }
            .map_err(|e| format!("checkpoint {}: {e}", path.display()))?;
            run_dse(&engine, req, Some(&ckpt))
        }
        None => run_dse(&engine, req, None),
    };
    let out = render_dse_report(req, &result);
    write_trace(req, trace.as_ref())?;
    Ok(out)
}

/// Render the device listing for `--list-devices`.
pub fn list_devices() -> String {
    let mut t = Table::new(&["platform", "device", "type", "peak GB/s", "global mem"]);
    for p in targets::standard_platforms() {
        for d in p.devices() {
            let i = d.info();
            t.row(&[
                p.name().to_string(),
                i.name.clone(),
                format!("{:?}", i.device_type),
                format!("{:.1}", i.peak_gbps),
                format!("{} GiB", i.global_mem_bytes >> 30),
            ]);
        }
    }
    t.to_text()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<CliRequest>, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn size_suffixes() {
        assert_eq!(parse_size("4M").unwrap(), 4 << 20);
        assert_eq!(parse_size("512K").unwrap(), 512 << 10);
        assert_eq!(parse_size("1G").unwrap(), 1 << 30);
        assert_eq!(parse_size("8192").unwrap(), 8192);
        assert_eq!(parse_size("0.25M").unwrap(), 256 << 10);
        assert!(parse_size("x").is_err());
        assert!(parse_size("-4M").is_err());
    }

    #[test]
    fn defaults() {
        let r = parse(&[]).unwrap().unwrap();
        assert_eq!(r.target, TargetId::Cpu);
        assert_eq!(r.ops.len(), 4);
        assert_eq!(r.size_bytes, 4 << 20);
    }

    #[test]
    fn full_flag_set() {
        let r = parse(&[
            "--target",
            "aocl",
            "--kernel",
            "triad",
            "--size",
            "16M",
            "--dtype",
            "double",
            "--vector",
            "8",
            "--loop",
            "nested",
            "--pattern",
            "stride4",
            "--unroll",
            "2",
            "--simd",
            "2",
            "--compute-units",
            "4",
            "--ntimes",
            "7",
            "--no-validate",
            "--csv",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(r.target, TargetId::FpgaAocl);
        assert_eq!(r.ops, vec![StreamOp::Triad]);
        assert_eq!(r.size_bytes, 16 << 20);
        assert_eq!(r.dtype, DataType::F64);
        assert_eq!(r.width, 8);
        assert_eq!(r.loop_mode, LoopMode::SingleWorkItemNested);
        assert_eq!(r.pattern, AccessPattern::Strided { stride: 4 });
        assert_eq!(r.aocl, Some((2, 4)));
        assert_eq!(r.ntimes, 7);
        assert!(r.no_validate && r.csv);
    }

    #[test]
    fn fpga_defaults_to_flat_loop() {
        let r = parse(&["--target", "sdaccel"]).unwrap().unwrap();
        assert_eq!(r.loop_mode, LoopMode::SingleWorkItemFlat);
        let r = parse(&["--target", "sdaccel", "--loop", "ndrange"])
            .unwrap()
            .unwrap();
        assert_eq!(r.loop_mode, LoopMode::NdRange);
    }

    #[test]
    fn chart_flag_is_sweep_and_dse_only() {
        assert!(parse(&["sweep", "--chart"]).unwrap().unwrap().chart);
        assert!(parse(&["dse", "--chart"]).unwrap().unwrap().chart);
        assert!(parse(&["--chart"]).is_err(), "run mode has no chart");
    }

    #[test]
    fn chart_report_is_identical_across_jobs_and_appends_a_chart() {
        let args = [
            "sweep",
            "--size",
            "64K",
            "--ntimes",
            "1",
            "--vectors",
            "1,4",
            "--chart",
        ];
        let mut serial = parse(&args).unwrap().unwrap();
        serial.jobs = Some(1);
        let mut wide = parse(&args).unwrap().unwrap();
        wide.jobs = Some(4);
        let a = execute(&serial).unwrap();
        let b = execute(&wide).unwrap();
        assert_eq!(a, b, "--chart output must be jobs-invariant");
        assert!(a.contains("best GB/s by vector width"), "{a}");
        assert!(a.contains("x: 2^0.0 .. 2^2.0 (log2)"), "{a}");
    }

    #[test]
    fn ntimes_zero_is_rejected_not_clamped_to_one() {
        // A run always makes at least one timed launch, so a request for
        // none would report repetitions it never ran.
        assert_eq!(parse(&["--ntimes", "1"]).unwrap().unwrap().ntimes, 1);
        for argv in [&["--ntimes", "0"][..], &["sweep", "--ntimes", "0"]] {
            let err = parse(argv).unwrap_err();
            assert!(err.contains("--ntimes"), "{err}");
        }
        // The binary answers --list-devices before parsing; the parser
        // has no sentinel request for it.
        assert!(parse(&["--list-devices"]).is_err());
    }

    #[test]
    fn jobs_flag_parses_and_rejects_zero() {
        assert_eq!(parse(&[]).unwrap().unwrap().jobs, None);
        assert_eq!(parse(&["--jobs", "2"]).unwrap().unwrap().jobs, Some(2));
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--jobs", "many"]).is_err());
    }

    #[test]
    fn execute_is_identical_across_jobs() {
        let mut serial = parse(&["--size", "64K", "--ntimes", "1", "--jobs", "1"])
            .unwrap()
            .unwrap();
        serial.ops = StreamOp::ALL.to_vec();
        let parallel = CliRequest {
            jobs: Some(4),
            ..serial.clone()
        };
        assert_eq!(execute(&serial).unwrap(), execute(&parallel).unwrap());
    }

    #[test]
    fn help_returns_none() {
        assert_eq!(parse(&["--help"]).unwrap(), None);
    }

    #[test]
    fn unknown_flags_error() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--target", "tpu"]).is_err());
        assert!(parse(&["--kernel", "fma"]).is_err());
        assert!(parse(&["--target"]).is_err(), "missing value");
    }

    #[test]
    fn ops_flag_parses_family_names_and_lists_valid_ones_on_error() {
        let r = parse(&["--ops", "gups,ptrans,dgemm"]).unwrap().unwrap();
        assert_eq!(
            r.ops,
            vec![
                StreamOp::RandomAccess,
                StreamOp::Ptrans,
                StreamOp::DgemmLite
            ]
        );
        // --kernel speaks the same vocabulary.
        let r = parse(&["--kernel", "gups"]).unwrap().unwrap();
        assert_eq!(r.ops, vec![StreamOp::RandomAccess]);
        // An unknown name fails, naming every valid op.
        let err = parse(&["--ops", "copy,warp"]).unwrap_err();
        for name in ["copy", "scale", "add", "triad", "gups", "ptrans", "dgemm"] {
            assert!(err.contains(name), "{err}");
        }
    }

    #[test]
    fn channel_depth_flag_reaches_the_kernel_config() {
        let r = parse(&["--ops", "triad", "--channel-depth", "4"])
            .unwrap()
            .unwrap();
        assert_eq!(r.channel_depth, Some(4));
        let cfg = kernel_config(&r, StreamOp::Triad).unwrap();
        assert_eq!(cfg.channel, Some(ChannelSpec { depth: 4 }));
        assert!(parse(&["--channel-depth", "deep"]).is_err());
        // Default stays single-stage.
        assert_eq!(parse(&[]).unwrap().unwrap().channel_depth, None);
    }

    #[test]
    fn execute_runs_hpcc_kernels_with_channels() {
        let r = parse(&[
            "--ops",
            "gups,ptrans,dgemm",
            "--size",
            "64K",
            "--ntimes",
            "1",
            "--channel-depth",
            "8",
        ])
        .unwrap()
        .unwrap();
        let out = execute(&r).expect("runs");
        for name in ["gups", "ptrans", "dgemm"] {
            assert!(out.contains(name), "{out}");
        }
        assert!(out.contains("true"), "validated: {out}");
        assert!(!out.contains("false"), "all valid: {out}");
    }

    #[test]
    fn execute_runs_all_kernels_and_reports() {
        let mut r = parse(&["--size", "64K", "--ntimes", "1"]).unwrap().unwrap();
        r.ops = vec![StreamOp::Copy, StreamOp::Triad];
        let out = execute(&r).expect("runs");
        assert!(out.contains("copy"), "{out}");
        assert!(out.contains("triad"));
        assert!(out.contains("true"), "validated: {out}");
    }

    #[test]
    fn execute_reports_synthesis_failures() {
        let mut r = parse(&["--target", "aocl", "--vector", "16", "--unroll", "16"])
            .unwrap()
            .unwrap();
        r.ops = vec![StreamOp::Copy];
        let out = execute(&r).expect("report produced");
        assert!(out.contains("FAILED copy"), "{out}");
    }

    #[test]
    fn show_kernel_prints_source() {
        let r = parse(&["--show-kernel", "--kernel", "scale"])
            .unwrap()
            .unwrap();
        let out = execute(&r).expect("source");
        assert!(out.contains("__kernel void mp_scale"));
    }

    #[test]
    fn list_devices_names_all_platforms() {
        let out = list_devices();
        for name in ["Intel", "NVIDIA", "Altera", "Xilinx"] {
            assert!(out.contains(name), "{out}");
        }
    }

    #[test]
    fn sweep_subcommand_parses_dimensions_and_resilience_flags() {
        let r = parse(&[
            "sweep",
            "--kernel",
            "triad",
            "--vectors",
            "1,4,16",
            "--unrolls",
            "1,2",
            "--faults",
            "build=0.2,timeout=0.1",
            "--fault-seed",
            "0x5EED",
            "--retries",
            "5",
            "--deadline-ms",
            "250",
            "--checkpoint",
            "/tmp/ck.jsonl",
            "--resume",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(r.mode, CliMode::Sweep);
        assert_eq!(r.widths, vec![1, 4, 16]);
        assert_eq!(r.unrolls, vec![1, 2]);
        let spec = r.faults.expect("spec parsed");
        assert_eq!(spec.build, 0.2);
        assert_eq!(spec.timeout, 0.1);
        assert_eq!(r.fault_seed, Some(0x5EED));
        assert_eq!(r.retries, Some(5));
        assert_eq!(r.deadline_ms, Some(250));
        assert_eq!(r.checkpoint, Some(PathBuf::from("/tmp/ck.jsonl")));
        assert!(r.resume);
    }

    #[test]
    fn sweep_flag_validation() {
        assert!(parse(&["sweep", "--vectors", ""]).is_err());
        assert!(parse(&["sweep", "--vectors", "1,0"]).is_err());
        assert!(parse(&["sweep", "--unrolls", "x"]).is_err());
        assert!(parse(&["sweep", "--faults", "build=2.0"]).is_err());
        assert!(parse(&["sweep", "--fault-seed", "zebra"]).is_err());
        assert!(parse(&["sweep", "--deadline-ms", "0"]).is_err());
        // --resume without a checkpoint path is meaningless.
        assert!(parse(&["sweep", "--resume"]).is_err());
        // Checkpointing only exists in sweep mode.
        assert!(parse(&["--checkpoint", "/tmp/ck.jsonl"]).is_err());
    }

    #[test]
    fn resilience_defaults_follow_fault_presence() {
        // Env-aware on purpose: the CI fault-injection job runs this
        // suite with MPSTREAM_FAULTS/MPSTREAM_RETRIES set, which is
        // exactly the fallback chain under test.
        let bare = parse(&[]).unwrap().unwrap();
        let (plan, policy) = resilience(&bare);
        match env_fault_spec() {
            None => {
                assert!(plan.is_none());
                assert_eq!(policy.max_retries, env_retries().unwrap_or(0));
            }
            Some(spec) => {
                let plan = plan.expect("env spec builds a plan");
                assert_eq!(plan.spec(), spec);
                assert_eq!(plan.seed(), env_fault_seed().unwrap_or(DEFAULT_FAULT_SEED));
            }
        }

        let faulty = parse(&["--faults", "build=0.3"]).unwrap().unwrap();
        let (plan, policy) = resilience(&faulty);
        let plan = plan.expect("plan built");
        assert_eq!(plan.spec().build, 0.3, "explicit spec beats env");
        assert_eq!(plan.seed(), env_fault_seed().unwrap_or(DEFAULT_FAULT_SEED));
        assert_eq!(
            policy.max_retries,
            env_retries().unwrap_or(DEFAULT_FAULT_RETRIES)
        );

        // Explicit flags always win, environment or not.
        let tuned = parse(&[
            "--faults",
            "build=0.3",
            "--fault-seed",
            "7",
            "--retries",
            "0",
        ])
        .unwrap()
        .unwrap();
        let (plan, policy) = resilience(&tuned);
        assert_eq!(plan.expect("plan built").seed(), 7);
        assert_eq!(policy.max_retries, 0);
        assert_eq!(policy.per_config_deadline, None);
    }

    #[test]
    fn dse_subcommand_parses_strategy_flags() {
        let r = parse(&[
            "dse",
            "--target",
            "aocl",
            "--strategy",
            "genetic",
            "--budget",
            "12",
            "--dse-seed",
            "0x5EED",
            "--checkpoint",
            "/tmp/dse.jsonl",
            "--resume",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(r.mode, CliMode::Dse);
        assert_eq!(r.strategy, DseStrategy::Genetic);
        assert_eq!(r.budget, Some(12));
        assert_eq!(r.dse_seed, Some(0x5EED));
        assert_eq!(r.checkpoint, Some(PathBuf::from("/tmp/dse.jsonl")));
        assert!(r.resume);
        // Default strategy is the surrogate model.
        let d = parse(&["dse"]).unwrap().unwrap();
        assert_eq!(d.strategy, DseStrategy::Model);
        assert_eq!(d.budget, None);
    }

    #[test]
    fn dse_flag_validation() {
        assert!(parse(&["dse", "--strategy", "simplex"]).is_err());
        assert!(parse(&["dse", "--budget", "0"]).is_err());
        assert!(parse(&["dse", "--dse-seed", "zebra"]).is_err());
        // dse-only flags are rejected outside the dse subcommand.
        assert!(parse(&["--strategy", "model"]).is_err());
        assert!(parse(&["sweep", "--budget", "5"]).is_err());
        assert!(parse(&["--dse-seed", "1"]).is_err());
        // But checkpointing works for dse like it does for sweep.
        assert!(parse(&["dse", "--checkpoint", "/tmp/ck.jsonl"]).is_ok());
    }

    #[test]
    fn dse_space_covers_all_loop_modes_and_budget_defaults() {
        let r = parse(&[
            "dse",
            "--target",
            "aocl",
            "--kernel",
            "copy",
            "--kernel",
            "triad",
            "--vectors",
            "1,2,4,8,16",
            "--unrolls",
            "1,2,4",
        ])
        .unwrap()
        .unwrap();
        let n = dse_param_space(&r).configs().len();
        assert_eq!(n, 90, "2 ops x 5 widths x 3 unrolls x 3 loop modes");
        assert_eq!(dse_budget(&r, n), 9, "default budget is a tenth");
        let grid = CliRequest {
            strategy: DseStrategy::Grid,
            ..r.clone()
        };
        assert_eq!(dse_budget(&grid, n), n, "grid covers everything");
        let capped = CliRequest {
            budget: Some(1000),
            ..r
        };
        assert_eq!(dse_budget(&capped, n), n, "budget capped at the space");
    }

    #[test]
    fn execute_dse_reports_best_and_pareto() {
        let r = parse(&[
            "dse",
            "--target",
            "aocl",
            "--kernel",
            "copy",
            "--size",
            "64K",
            "--ntimes",
            "1",
            "--strategy",
            "model",
            "--budget",
            "10",
            "--jobs",
            "2",
        ])
        .unwrap()
        .unwrap();
        let out = execute(&r).expect("dse runs");
        assert!(out.contains("dse on"), "{out}");
        assert!(out.contains("model strategy"), "{out}");
        assert!(out.contains("of 15 points"), "{out}");
        assert!(out.contains("best: copy"), "{out}");
        assert!(out.contains("pareto front"), "{out}");
    }

    #[test]
    fn execute_dse_is_identical_across_jobs() {
        let base = parse(&[
            "dse",
            "--target",
            "sdaccel",
            "--kernel",
            "triad",
            "--size",
            "64K",
            "--ntimes",
            "1",
            "--strategy",
            "genetic",
            "--budget",
            "12",
            "--dse-seed",
            "7",
            "--jobs",
            "1",
        ])
        .unwrap()
        .unwrap();
        let serial = execute(&base).unwrap();
        let parallel = execute(&CliRequest {
            jobs: Some(8),
            ..base
        })
        .unwrap();
        assert_eq!(serial, parallel, "visit order and report jobs-invariant");
    }

    #[test]
    fn execute_sweep_reports_points_and_summary() {
        let r = parse(&[
            "sweep",
            "--kernel",
            "copy",
            "--size",
            "64K",
            "--ntimes",
            "1",
            "--vectors",
            "1,2",
            "--jobs",
            "1",
        ])
        .unwrap()
        .unwrap();
        let out = execute(&r).expect("sweep runs");
        assert!(out.contains("sweep on"), "{out}");
        assert!(out.contains("2 points"), "{out}");
        assert!(out.contains("retried"), "summary rendered: {out}");
        assert!(out.contains("best: copy"), "{out}");
    }

    #[test]
    fn execute_sweep_with_faults_matches_fault_free_run() {
        let base = parse(&[
            "sweep",
            "--kernel",
            "triad",
            "--size",
            "64K",
            "--ntimes",
            "1",
            "--vectors",
            "1,2,4",
            "--jobs",
            "2",
        ])
        .unwrap()
        .unwrap();
        let clean = execute(&base).expect("fault-free sweep");
        let faulty = CliRequest {
            faults: Some(FaultSpec::parse("build=0.2,timeout=0.1,lost=0.05,bitflip=0.05").unwrap()),
            fault_seed: Some(42),
            retries: Some(10),
            ..base
        };
        let out = execute(&faulty).expect("faulty sweep");
        // Same measurements survive the injected faults; only the summary
        // counters differ.
        let table_of = |s: &str| {
            s.lines()
                .take_while(|l| !l.contains("retried"))
                .filter(|l| l.contains("triad"))
                .map(|l| {
                    // Drop the per-point retries column (second-to-last).
                    let cells: Vec<&str> = l.split_whitespace().collect();
                    cells[..cells.len() - 1].join(" ")
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(table_of(&clean), table_of(&out));
    }
}
