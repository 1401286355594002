//! The benchmark runner: executes one [`BenchConfig`] on one device the
//! way MP-STREAM's host program does.
//!
//! Protocol (per configuration): allocate the arrays, initialize the
//! sources with known patterns and transfer them (untimed, as STREAM
//! does), build the kernel (FPGA synthesis may fail — that is a result,
//! not a crash), one warm-up launch, `ntimes` timed launches keeping the
//! best, then STREAM-style validation of the destination array against
//! the closed-form expectation. Bandwidth divides STREAM-counted bytes
//! by the best *wall* time of one launch (queue→end), which is what
//! makes small arrays overhead-bound exactly as in the paper's figures.

use crate::config::{BenchConfig, StreamLocation};
use crate::trace;
use kernelgen::{DataType, KernelConfig, StreamOp};
use mpcl::{
    Buffer, BuildCache, CacheStatus, ClError, CmdKind, CmdRecord, CommandQueue, Context, Device,
    FaultPlan, Kernel, MemFlags, Program, ResourceUsage,
};
use std::sync::Arc;

/// The outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Device name the run executed on.
    pub device: String,
    /// STREAM-counted payload bytes per kernel invocation.
    pub bytes_moved: u64,
    /// Best (minimum) wall time of a timed launch, ns (queue→end).
    pub best_wall_ns: f64,
    /// Mean wall time over the timed launches, ns.
    pub avg_wall_ns: f64,
    /// Best device-only execution time (start→end), ns.
    pub best_kernel_ns: f64,
    /// Validation verdict: `None` when skipped, `Some(true)` when every
    /// element matched.
    pub validated: Option<bool>,
    /// Device DRAM bus traffic of one launch, bytes — includes waste
    /// (partial segments, fills, writebacks), so it can exceed
    /// `bytes_moved`.
    pub dram_bytes_per_launch: u64,
    /// Energy of the best launch, joules (when the target has a power
    /// model): board power over the wall time plus per-byte DRAM energy.
    pub energy_j: Option<f64>,
    /// Synthesis clock, when the target reports one (FPGAs).
    pub fmax_mhz: Option<f64>,
    /// FPGA resource usage, when reported.
    pub resources: Option<ResourceUsage>,
    /// Compiler/synthesis log.
    pub build_log: String,
    /// Modelled synthesis/compile time of the configuration, ns — a
    /// property of the configuration, identical whether the artifact
    /// came from a fresh build or the cache.
    pub build_ns: f64,
    /// Total simulated host↔device transfer time (writes + reads), ns.
    pub xfer_ns: f64,
    /// Total simulated device execution time of completed (non-aborted)
    /// kernel launches, ns, summed over warm-up and timed repetitions.
    pub kernel_ns: f64,
    /// Whether the build artifact came from the shared cache. Excluded
    /// from equality: which worker builds first is a scheduling fact.
    pub cache: CacheStatus,
    /// DRAM row-buffer hits across completed kernel launches.
    pub row_hits: u64,
    /// DRAM row-buffer misses (row conflict) across completed launches.
    pub row_misses: u64,
    /// DRAM row-buffer empty activations across completed launches.
    pub row_empty: u64,
    /// Channel/pipe stall time summed over completed kernel launches,
    /// ns (zero for single-stage kernels).
    pub stall_ns: f64,
}

impl PartialEq for Measurement {
    fn eq(&self, other: &Self) -> bool {
        // `cache` is deliberately excluded: hit-vs-miss depends on
        // which worker reached the configuration (or retry attempt)
        // first, not on what was measured.
        self.device == other.device
            && self.bytes_moved == other.bytes_moved
            && self.best_wall_ns == other.best_wall_ns
            && self.avg_wall_ns == other.avg_wall_ns
            && self.best_kernel_ns == other.best_kernel_ns
            && self.validated == other.validated
            && self.dram_bytes_per_launch == other.dram_bytes_per_launch
            && self.energy_j == other.energy_j
            && self.fmax_mhz == other.fmax_mhz
            && self.resources == other.resources
            && self.build_log == other.build_log
            && self.build_ns == other.build_ns
            && self.xfer_ns == other.xfer_ns
            && self.kernel_ns == other.kernel_ns
            && self.row_hits == other.row_hits
            && self.row_misses == other.row_misses
            && self.row_empty == other.row_empty
            && self.stall_ns == other.stall_ns
    }
}

impl Measurement {
    /// Sustained bandwidth, GB/s (1 GB = 1e9 B), from the best wall time.
    pub fn gbps(&self) -> f64 {
        self.bytes_moved as f64 / self.best_wall_ns
    }

    /// Energy efficiency, payload gigabytes per joule (when the target
    /// has a power model).
    pub fn gb_per_joule(&self) -> Option<f64> {
        self.energy_j.map(|e| self.bytes_moved as f64 / 1e9 / e)
    }

    /// DRAM traffic amplification: bus bytes per payload byte (1.0 is
    /// ideal; strided patterns and write-allocate fills push it up).
    pub fn traffic_amplification(&self) -> f64 {
        self.dram_bytes_per_launch as f64 / self.bytes_moved as f64
    }

    /// DRAM row-buffer hit rate over the completed kernel launches
    /// (1.0 when the model recorded no row activity).
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_empty;
        if total == 0 {
            1.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// A fabricated measurement with the given bandwidth, for testing
    /// search strategies without a device (everything but `gbps()` is
    /// placeholder).
    pub fn synthetic(gbps: f64) -> Measurement {
        let bytes_moved = 1u64 << 20;
        Measurement {
            device: "synthetic".into(),
            bytes_moved,
            best_wall_ns: bytes_moved as f64 / gbps.max(f64::MIN_POSITIVE),
            avg_wall_ns: bytes_moved as f64 / gbps.max(f64::MIN_POSITIVE),
            best_kernel_ns: bytes_moved as f64 / gbps.max(f64::MIN_POSITIVE),
            validated: None,
            dram_bytes_per_launch: bytes_moved,
            energy_j: None,
            fmax_mhz: None,
            resources: None,
            build_log: String::new(),
            build_ns: 0.0,
            xfer_ns: 0.0,
            kernel_ns: 0.0,
            cache: CacheStatus::Uncached,
            row_hits: 0,
            row_misses: 0,
            row_empty: 0,
            stall_ns: 0.0,
        }
    }
}

/// Runs benchmark configurations on one device. Clones share the device
/// and the build cache, so a clone per worker thread is cheap.
#[derive(Clone)]
pub struct Runner {
    device: Device,
    cache: Option<Arc<BuildCache>>,
    faults: Option<Arc<FaultPlan>>,
}

impl Runner {
    /// Wrap a device.
    pub fn new(device: Device) -> Self {
        Runner {
            device,
            cache: None,
            faults: None,
        }
    }

    /// Runner for one of the four standard paper targets.
    pub fn for_target(id: targets::TargetId) -> Self {
        Runner::new(targets::standard_device(id))
    }

    /// Attach a build-artifact cache: repeated configurations skip the
    /// synthesis model (see [`mpcl::BuildCache`] for keying).
    pub fn with_cache(mut self, cache: Arc<BuildCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached build cache, if any.
    pub fn cache(&self) -> Option<&Arc<BuildCache>> {
        self.cache.as_ref()
    }

    /// Attach (or detach) a fault-injection plan: every run's context is
    /// created with it, so builds and launches roll the plan's dice.
    pub fn with_faults(mut self, faults: Option<Arc<FaultPlan>>) -> Self {
        self.faults = faults;
        self
    }

    /// The attached fault plan, if any.
    pub fn faults(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// The device this runner drives.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Execute one configuration. Build failures (FPGA synthesis) and
    /// invalid configurations surface as `Err`.
    ///
    /// When the calling thread is armed for tracing
    /// ([`trace::begin_task`]), the attempt's build and queue activity
    /// is recorded on the virtual timeline — even for failed attempts,
    /// so aborted launches keep their timestamps in the trace.
    pub fn run(&self, bc: &BenchConfig) -> Result<Measurement, ClError> {
        let ctx = Context::with_faults(self.device.clone(), self.faults.clone());
        let queue = if bc.validate {
            CommandQueue::new(&ctx)
        } else {
            CommandQueue::new_timing_only(&ctx)
        };
        let mut build: Option<(f64, CacheStatus)> = None;
        let result = self.run_inner(bc, &ctx, &queue, &mut build);
        let log = queue.take_log();
        self.emit_trace(&queue, &log, build);
        result.map(|mut m| {
            if let Some((synthesis_ns, status)) = build {
                m.build_ns = synthesis_ns;
                m.cache = status;
            }
            for rec in &log {
                match rec.kind {
                    CmdKind::Write | CmdKind::Read => m.xfer_ns += rec.event.duration_ns(),
                    CmdKind::Kernel if !rec.aborted => {
                        m.kernel_ns += rec.event.duration_ns();
                        m.row_hits += rec.event.row_hits;
                        m.row_misses += rec.event.row_misses;
                        m.row_empty += rec.event.row_empty;
                        m.stall_ns += rec.event.stall_ns;
                    }
                    _ => {}
                }
            }
            m
        })
    }

    /// Record this attempt's build span, cache status, queue-command
    /// spans and DRAM row counters, then advance the virtual clock past
    /// everything the attempt simulated. No-op on unarmed threads.
    fn emit_trace(
        &self,
        queue: &CommandQueue,
        log: &[CmdRecord],
        build: Option<(f64, CacheStatus)>,
    ) {
        if !trace::is_active() {
            return;
        }
        let base = trace::vclock_ns();
        let mut synth = 0.0;
        if let Some((synthesis_ns, status)) = build {
            synth = synthesis_ns;
            // The span duration is the configuration's synthesis cost
            // whether or not this worker actually built it — the trace
            // shows the modelled timeline, and stays byte-identical
            // across worker counts. Which worker won the build is a
            // wall fact, recorded as such.
            trace::span(trace::TID_BUILD, "build", base, synthesis_ns, Vec::new);
            trace::wall_instant("cache", || trace::args([("status", status.label().into())]));
        }
        let q0 = base + synth;
        for rec in log {
            let ev = &rec.event;
            trace::span(
                trace::TID_QUEUE,
                rec.kind.name(),
                q0 + ev.queued_ns,
                ev.end_ns - ev.queued_ns,
                || {
                    if rec.aborted {
                        vec![("aborted".to_string(), true.into())]
                    } else {
                        Vec::new()
                    }
                },
            );
            if rec.kind == CmdKind::Kernel {
                trace::counter(trace::TID_QUEUE, "dram_rows", q0 + ev.end_ns, || {
                    trace::args([
                        ("hits", ev.row_hits.into()),
                        ("misses", ev.row_misses.into()),
                        ("empty", ev.row_empty.into()),
                    ])
                });
                if ev.stall_ns > 0.0 {
                    // Render the FIFO backpressure of a channeled launch
                    // as its own span, nested at the tail of the kernel
                    // span (the blocked side idles while the other
                    // drains).
                    trace::span(
                        trace::TID_QUEUE,
                        "channel_stall",
                        q0 + ev.end_ns - ev.stall_ns,
                        ev.stall_ns,
                        Vec::new,
                    );
                }
            }
        }
        trace::advance_vclock(synth + queue.now_ns());
    }

    fn run_inner(
        &self,
        bc: &BenchConfig,
        ctx: &Context,
        queue: &CommandQueue,
        build: &mut Option<(f64, CacheStatus)>,
    ) -> Result<Measurement, ClError> {
        let kernel_cfg = &bc.kernel;
        let bytes = kernel_cfg.array_bytes();
        let a = Buffer::new(ctx, MemFlags::WriteOnly, bytes)?;
        let b = Buffer::new(ctx, MemFlags::ReadOnly, bytes)?;
        let c = if kernel_cfg.op.uses_c() {
            Some(Buffer::new(ctx, MemFlags::ReadOnly, bytes)?)
        } else {
            None
        };

        // Initialize sources (untimed) when running functionally.
        if bc.validate {
            queue.enqueue_write(&b, &init_array(kernel_cfg, Source::B))?;
            if let Some(c) = &c {
                queue.enqueue_write(c, &init_array(kernel_cfg, Source::C))?;
            }
        }

        let program = match &self.cache {
            Some(cache) => Program::build_cached(ctx, kernel_cfg.clone(), cache)?,
            None => Program::build(ctx, kernel_cfg.clone())?,
        };
        *build = Some((program.artifact().synthesis_ns, program.cache_status()));
        let kernel = Kernel::new(&program, &a, &b, c.as_ref())?;

        for _ in 0..bc.warmup {
            queue.enqueue_kernel(&kernel)?;
        }

        let mut best_wall = f64::INFINITY;
        let mut best_kernel = f64::INFINITY;
        let mut sum_wall = 0.0;
        let mut dram_bytes = 0u64;
        for _ in 0..bc.ntimes.max(1) {
            let wall = match bc.location {
                StreamLocation::DeviceGlobal => {
                    let ev = queue.enqueue_kernel(&kernel)?;
                    best_kernel = best_kernel.min(ev.duration_ns());
                    dram_bytes = ev.dram_bytes;
                    ev.wall_ns()
                }
                StreamLocation::HostOverLink => {
                    // Arrays cross the link every repetition: source
                    // download(s), execute, result upload.
                    let t0 = queue.now_ns();
                    if bc.validate {
                        queue.enqueue_write(&b, &init_array(kernel_cfg, Source::B))?;
                        if let Some(c) = &c {
                            queue.enqueue_write(c, &init_array(kernel_cfg, Source::C))?;
                        }
                    } else {
                        // Timing-only: model the transfers with zero-fill.
                        queue.enqueue_write(&b, &vec![0u8; bytes as usize])?;
                        if let Some(c) = &c {
                            queue.enqueue_write(c, &vec![0u8; bytes as usize])?;
                        }
                    }
                    let ev = queue.enqueue_kernel(&kernel)?;
                    best_kernel = best_kernel.min(ev.duration_ns());
                    dram_bytes = ev.dram_bytes;
                    let mut sink = vec![0u8; bytes as usize];
                    queue.enqueue_read(&a, &mut sink)?;
                    queue.now_ns() - t0
                }
            };
            best_wall = best_wall.min(wall);
            sum_wall += wall;
        }

        let validated = if bc.validate {
            let mut out = vec![0u8; bytes as usize];
            queue.enqueue_read(&a, &mut out)?;
            Some(check_results(kernel_cfg, &out))
        } else {
            None
        };

        let energy_j = self
            .device
            .power_model()
            .map(|p| p.energy_j(best_wall, dram_bytes));

        Ok(Measurement {
            device: self.device.info().name.clone(),
            bytes_moved: kernel_cfg.bytes_moved(),
            best_wall_ns: best_wall,
            avg_wall_ns: sum_wall / bc.ntimes.max(1) as f64,
            best_kernel_ns: best_kernel,
            dram_bytes_per_launch: dram_bytes,
            energy_j,
            validated,
            fmax_mhz: program.artifact().fmax_mhz,
            resources: program.artifact().resources,
            build_log: program.artifact().build_log.clone(),
            // Filled by `run` from the build record and command log.
            build_ns: 0.0,
            xfer_ns: 0.0,
            kernel_ns: 0.0,
            cache: CacheStatus::Uncached,
            row_hits: 0,
            row_misses: 0,
            row_empty: 0,
            stall_ns: 0.0,
        })
    }
}

/// Which source array to initialize.
#[derive(Debug, Clone, Copy)]
enum Source {
    B,
    C,
}

/// Deterministic init patterns with closed-form expected results —
/// kept small so `q * b + c` never overflows an i32.
fn src_values(i: u64, which: Source) -> i64 {
    match which {
        Source::B => (i % 1021) as i64 + 1,
        Source::C => (i % 511) as i64 * 2,
    }
}

fn init_array(cfg: &KernelConfig, which: Source) -> Vec<u8> {
    let n = cfg.n_words;
    let mut out = vec![0u8; (n * cfg.dtype.word_bytes()) as usize];
    match cfg.dtype {
        DataType::I32 => {
            for i in 0..n {
                let v = src_values(i, which) as i32;
                out[(i * 4) as usize..(i * 4 + 4) as usize].copy_from_slice(&v.to_ne_bytes());
            }
        }
        DataType::F64 => {
            for i in 0..n {
                let v = src_values(i, which) as f64;
                out[(i * 8) as usize..(i * 8 + 8) as usize].copy_from_slice(&v.to_ne_bytes());
            }
        }
    }
    out
}

/// Expected destination value (the closed form STREAM validates against).
fn expected(cfg: &KernelConfig, i: u64) -> f64 {
    let b = src_values(i, Source::B) as f64;
    let c = src_values(i, Source::C) as f64;
    let q = match cfg.dtype {
        DataType::I32 => cfg.q as i64 as f64,
        DataType::F64 => cfg.q,
    };
    match cfg.op {
        StreamOp::Copy => b,
        StreamOp::Scale => q * b,
        StreamOp::Add => b + c,
        StreamOp::Triad => b + q * c,
        _ => unreachable!("HPCC ops validate via expected_hpcc"),
    }
}

/// Host replay of the HPCC-family kernels from the closed-form init
/// patterns — computed from `src_values` directly, so it is an oracle
/// independent of the interpreter the simulated device executed.
fn expected_hpcc(cfg: &KernelConfig) -> Vec<u8> {
    let n = cfg.n_words;
    let w = cfg.dtype.word_bytes();
    let mut out = vec![0u8; (n * w) as usize];
    let (rows, cols) = cfg.matrix_shape();
    match cfg.op {
        StreamOp::RandomAccess => {
            // XOR-scatter of b into a zeroed table.
            let mut acc = vec![0i32; n as usize];
            for i in 0..n {
                acc[kernelgen::gups_index(i, n) as usize] ^= src_values(i, Source::B) as i32;
            }
            for (i, v) in acc.iter().enumerate() {
                out[i * 4..i * 4 + 4].copy_from_slice(&v.to_ne_bytes());
            }
        }
        StreamOp::Ptrans => {
            for i in 0..n {
                let (r, c) = (i / cols, i % cols);
                let dst = ((c * rows + r) * w) as usize;
                match cfg.dtype {
                    DataType::I32 => out[dst..dst + 4]
                        .copy_from_slice(&(src_values(i, Source::B) as i32).to_ne_bytes()),
                    DataType::F64 => out[dst..dst + 8]
                        .copy_from_slice(&(src_values(i, Source::B) as f64).to_ne_bytes()),
                }
            }
        }
        StreamOp::DgemmLite => {
            // Wrapping i32 matmul of the init patterns; the `c` operand
            // is its first cols x cols elements.
            for i in 0..n {
                let (r, c) = (i / cols, i % cols);
                let mut acc = 0i32;
                for k in 0..cols {
                    let bv = src_values(r * cols + k, Source::B) as i32;
                    let cv = src_values(k * cols + c, Source::C) as i32;
                    acc = acc.wrapping_add(bv.wrapping_mul(cv));
                }
                out[(i * 4) as usize..(i * 4 + 4) as usize].copy_from_slice(&acc.to_ne_bytes());
            }
        }
        _ => unreachable!("stream ops use the closed form"),
    }
    out
}

/// STREAM-style full-array validation.
fn check_results(cfg: &KernelConfig, a: &[u8]) -> bool {
    if !cfg.op.is_stream() {
        return a == expected_hpcc(cfg);
    }
    let n = cfg.n_words;
    match cfg.dtype {
        DataType::I32 => (0..n).all(|i| {
            let got = i32::from_ne_bytes(
                a[(i * 4) as usize..(i * 4 + 4) as usize]
                    .try_into()
                    .expect("4"),
            );
            got as f64 == expected(cfg, i)
        }),
        DataType::F64 => (0..n).all(|i| {
            let got = f64::from_ne_bytes(
                a[(i * 8) as usize..(i * 8 + 8) as usize]
                    .try_into()
                    .expect("8"),
            );
            (got - expected(cfg, i)).abs() <= 1e-9 * expected(cfg, i).abs().max(1.0)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernelgen::{AoclOpts, LoopMode, VectorWidth, VendorOpts};
    use targets::TargetId;

    fn quick(op: StreamOp, n_words: u64, target: TargetId) -> Measurement {
        let mut kernel = KernelConfig::baseline(op, n_words);
        if target.is_fpga() {
            kernel.loop_mode = LoopMode::SingleWorkItemFlat;
        }
        Runner::for_target(target)
            .run(&BenchConfig::new(kernel))
            .expect("run ok")
    }

    #[test]
    fn copy_runs_and_validates_on_all_targets() {
        for target in TargetId::ALL {
            let m = quick(StreamOp::Copy, 1 << 14, target);
            assert_eq!(m.validated, Some(true), "{target:?}");
            assert!(m.gbps() > 0.0);
            assert!(m.best_wall_ns >= m.best_kernel_ns);
        }
    }

    #[test]
    fn all_ops_validate_f64_too() {
        for op in StreamOp::ALL {
            let mut kernel = KernelConfig::baseline(op, 1 << 12);
            kernel.dtype = DataType::F64;
            kernel.q = 2.5;
            let m = Runner::for_target(TargetId::Cpu)
                .run(&BenchConfig::new(kernel))
                .expect("ok");
            assert_eq!(m.validated, Some(true), "{op:?}");
        }
    }

    #[test]
    fn vectorized_triad_validates() {
        let mut kernel = KernelConfig::baseline(StreamOp::Triad, 1 << 14);
        kernel.vector_width = VectorWidth::new(8).unwrap();
        kernel.loop_mode = LoopMode::SingleWorkItemFlat;
        let m = Runner::for_target(TargetId::FpgaAocl)
            .run(&BenchConfig::new(kernel))
            .expect("ok");
        assert_eq!(m.validated, Some(true));
        assert!(m.fmax_mhz.is_some(), "FPGA reports a clock");
        assert!(m.resources.is_some(), "FPGA reports resources");
    }

    #[test]
    fn build_failure_is_an_error_result() {
        let mut kernel = KernelConfig::baseline(StreamOp::Copy, 1 << 14);
        kernel.loop_mode = LoopMode::NdRange;
        kernel.reqd_work_group_size = true;
        kernel.vector_width = VectorWidth::new(16).unwrap();
        kernel.vendor = VendorOpts::Aocl(AoclOpts {
            num_simd_work_items: 16,
            num_compute_units: 16,
        });
        let err = Runner::for_target(TargetId::FpgaAocl).run(&BenchConfig::new(kernel));
        assert!(matches!(err, Err(ClError::BuildProgramFailure(_))));
    }

    #[test]
    fn timing_only_skips_validation() {
        let bc = BenchConfig::copy_of_bytes(1 << 20).with_validation(false);
        let m = Runner::for_target(TargetId::Gpu).run(&bc).expect("ok");
        assert_eq!(m.validated, None);
    }

    #[test]
    fn host_over_link_is_slower_than_device_global() {
        let n = 1 << 18; // 1 MiB arrays
        let device = BenchConfig::copy_of_bytes(n * 4);
        let link = BenchConfig::copy_of_bytes(n * 4).over_link();
        let r = Runner::for_target(TargetId::Gpu);
        let dg = r.run(&device).expect("ok");
        let hl = r.run(&link).expect("ok");
        assert!(
            hl.gbps() < dg.gbps() / 2.0,
            "link {} vs device {}",
            hl.gbps(),
            dg.gbps()
        );
    }

    #[test]
    fn best_of_reports_minimum() {
        let bc = BenchConfig::copy_of_bytes(1 << 16).with_ntimes(5);
        let m = Runner::for_target(TargetId::Cpu).run(&bc).expect("ok");
        assert!(m.best_wall_ns <= m.avg_wall_ns);
    }

    #[test]
    fn init_patterns_do_not_overflow_i32() {
        // q * b + c max: 3 * 1021 + 1020 << i32::MAX.
        let cfg = KernelConfig::baseline(StreamOp::Triad, 4096);
        for i in [0u64, 1, 1020, 1021, 4095] {
            assert!(expected(&cfg, i) < i32::MAX as f64);
        }
    }
}
