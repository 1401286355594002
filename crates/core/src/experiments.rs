//! Regeneration of every figure in the paper's evaluation (§IV).
//!
//! One function per figure panel; each builds the same parameter sweep
//! the paper ran, executes it on the four simulated targets via the
//! [`Engine`], and returns labelled [`Series`] ready for the report
//! layer. FPGA synthesis failures become notes (and missing points),
//! exactly as a real sweep would record them.
//!
//! Loop management: the paper states Figure 1/2 use the optimal loop
//! form per target. We use NDRange for CPU/GPU and the single-work-item
//! flat loop for both FPGAs (the paper's own Figure 1a/1b levels match
//! the flat-loop rates on SDAccel; its nested-loop discovery is explored
//! separately in Figure 3).

use crate::bandwidth::{fig1_sizes, fig2_sizes, gbps_to_kbps};
use crate::config::BenchConfig;
use crate::engine::{
    default_jobs, Engine, ResiliencePolicy, DEFAULT_FAULT_RETRIES, DEFAULT_FAULT_SEED,
};
use crate::report::Series;
use crate::trace::Trace;
use kernelgen::{
    AccessPattern, AoclOpts, KernelConfig, LoopMode, StreamOp, VectorWidth, VendorOpts,
};
use mpcl::{FaultPlan, FaultSpec};
use std::sync::Arc;
use targets::TargetId;

/// Figure identifiers, matching the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FigureId {
    /// Fig. 1a: bandwidth vs array size.
    Fig1a,
    /// Fig. 1b: bandwidth vs vector width.
    Fig1b,
    /// Fig. 2: contiguity (contiguous vs column-major) vs array size.
    Fig2,
    /// Fig. 3: loop management per target (KB/s).
    Fig3,
    /// Fig. 4a: all four STREAM kernels per target (KB/s).
    Fig4a,
    /// Fig. 4b: AOCL vendor optimizations vs native vectorization.
    Fig4b,
}

impl FigureId {
    /// All six panels.
    pub const ALL: [FigureId; 6] = [
        FigureId::Fig1a,
        FigureId::Fig1b,
        FigureId::Fig2,
        FigureId::Fig3,
        FigureId::Fig4a,
        FigureId::Fig4b,
    ];

    /// Short name used in filenames and CLI arguments.
    pub fn name(self) -> &'static str {
        match self {
            FigureId::Fig1a => "fig1a",
            FigureId::Fig1b => "fig1b",
            FigureId::Fig2 => "fig2",
            FigureId::Fig3 => "fig3",
            FigureId::Fig4a => "fig4a",
            FigureId::Fig4b => "fig4b",
        }
    }

    /// Parse a short name.
    pub fn from_name(s: &str) -> Option<FigureId> {
        FigureId::ALL.into_iter().find(|f| f.name() == s)
    }
}

/// A regenerated figure.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Which panel.
    pub id: FigureId,
    /// Human title.
    pub title: String,
    /// Axis labels.
    pub x_label: String,
    /// Axis labels.
    pub y_label: String,
    /// The measured series.
    pub series: Vec<Series>,
    /// Anything noteworthy (synthesis failures, skipped points).
    pub notes: Vec<String>,
}

/// The loop management each target prefers (used where the paper says
/// "loop-management is optimal for each target").
pub fn optimal_loop(target: TargetId) -> LoopMode {
    if target.is_fpga() {
        LoopMode::SingleWorkItemFlat
    } else {
        LoopMode::NdRange
    }
}

/// 4 MB in bytes — the fixed array size the paper uses once sizes
/// plateau ("we see the bandwidths plateau around 4 MB").
pub const PLATEAU_BYTES: u64 = 4 << 20;

fn copy_kernel(target: TargetId, bytes: u64) -> KernelConfig {
    let mut k = KernelConfig::baseline(StreamOp::Copy, bytes / 4);
    k.loop_mode = optimal_loop(target);
    k
}

/// Run a batch of kernels on one target across the engine's thread
/// pool, in order; `Err` text is a note, `Ok` is GB/s.
fn measure_list(
    engine: &Engine,
    target: TargetId,
    kernels: Vec<KernelConfig>,
    ntimes: u32,
) -> Vec<Result<f64, String>> {
    let work: Vec<BenchConfig> = kernels
        .into_iter()
        .map(|k| BenchConfig::new(k).with_ntimes(ntimes))
        .collect();
    engine
        .run_list(target, &work)
        .into_iter()
        .map(|o| {
            o.result
                .map(|m| {
                    debug_assert!(
                        m.validated != Some(false),
                        "validation failed on {target:?}"
                    );
                    m.gbps()
                })
                .map_err(|e| format!("{}: {e}", target.label()))
        })
        .collect()
}

/// Options controlling sweep sizes (tests use `quick`) and parallelism.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Reduce point counts and repetitions for fast smoke runs.
    pub quick: bool,
    /// Worker threads per figure; `None` picks the default
    /// (`MPSTREAM_JOBS` or the machine's available parallelism).
    pub jobs: Option<usize>,
    /// Inject deterministic faults into every figure's sweep.
    pub faults: Option<FaultSpec>,
    /// Fault-plan seed; `None` uses [`DEFAULT_FAULT_SEED`].
    pub fault_seed: Option<u64>,
    /// Per-config retry budget; `None` uses [`DEFAULT_FAULT_RETRIES`]
    /// when faults are on, else 0.
    pub retries: Option<u32>,
    /// Trace sink shared by every figure's engine (`--trace`).
    pub trace: Option<Arc<Trace>>,
}

impl RunOpts {
    /// Full paper-fidelity sweep.
    pub fn full() -> Self {
        RunOpts {
            quick: false,
            jobs: None,
            faults: None,
            fault_seed: None,
            retries: None,
            trace: None,
        }
    }

    /// Reduced sweep for tests.
    pub fn quick() -> Self {
        RunOpts {
            quick: true,
            ..Self::full()
        }
    }

    /// Builder: set the worker-thread count.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs.max(1));
        self
    }

    /// Builder: inject deterministic faults (seeded by
    /// [`Self::with_fault_seed`], else [`DEFAULT_FAULT_SEED`]).
    pub fn with_faults(mut self, spec: FaultSpec) -> Self {
        self.faults = Some(spec);
        self
    }

    /// Builder: set the fault-plan seed.
    pub fn with_fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = Some(seed);
        self
    }

    /// Builder: set the per-config retry budget.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = Some(retries);
        self
    }

    /// Builder: collect structured trace events into `trace`.
    pub fn with_trace(mut self, trace: Arc<Trace>) -> Self {
        self.trace = Some(trace);
        self
    }

    fn engine(&self) -> Engine {
        let plan = self.faults.map(|spec| {
            Arc::new(FaultPlan::new(
                spec,
                self.fault_seed.unwrap_or(DEFAULT_FAULT_SEED),
            ))
        });
        let retries = self.retries.unwrap_or(if plan.is_some() {
            DEFAULT_FAULT_RETRIES
        } else {
            0
        });
        Engine::with_jobs(self.jobs.unwrap_or_else(default_jobs))
            .with_policy(ResiliencePolicy::retrying(retries))
            .with_faults(plan)
            .with_trace(self.trace.clone())
    }

    fn ntimes(&self) -> u32 {
        if self.quick {
            1
        } else {
            3
        }
    }

    /// Quick mode keeps every third element and the last, so a thinned
    /// sweep still reaches the largest size its shape checks look at.
    fn thin<T: Copy>(&self, xs: Vec<T>) -> Vec<T> {
        if self.quick {
            let last = xs.len().saturating_sub(1);
            xs.into_iter()
                .enumerate()
                .filter(|&(i, _)| i % 3 == 0 || i == last)
                .map(|(_, x)| x)
                .collect()
        } else {
            xs
        }
    }
}

/// Regenerate one figure.
pub fn run_figure(id: FigureId, opts: RunOpts) -> Figure {
    match id {
        FigureId::Fig1a => fig1a(opts),
        FigureId::Fig1b => fig1b(opts),
        FigureId::Fig2 => fig2(opts),
        FigureId::Fig3 => fig3(opts),
        FigureId::Fig4a => fig4a(opts),
        FigureId::Fig4b => fig4b(opts),
    }
}

/// Figure 1a: COPY bandwidth vs array size on all four targets.
pub fn fig1a(opts: RunOpts) -> Figure {
    let engine = opts.engine();
    let sizes = opts.thin(fig1_sizes());
    let mut series = Vec::new();
    let mut notes = Vec::new();
    for target in TargetId::ALL {
        let kernels = sizes
            .iter()
            .map(|&bytes| copy_kernel(target, bytes))
            .collect();
        let mut pts = Vec::new();
        for (&bytes, r) in sizes
            .iter()
            .zip(measure_list(&engine, target, kernels, opts.ntimes()))
        {
            match r {
                Ok(gbps) => pts.push((bytes as f64 / 1e6, gbps)),
                Err(e) => notes.push(e),
            }
        }
        series.push(Series::new(target.label(), pts));
    }
    Figure {
        id: FigureId::Fig1a,
        title: "Memory bandwidth for COPY with varying array sizes".into(),
        x_label: "Array size (MB)".into(),
        y_label: "Global Memory B'width (GB/s)".into(),
        series,
        notes,
    }
}

/// Figure 1b: COPY bandwidth vs vector width at 4 MB arrays.
pub fn fig1b(opts: RunOpts) -> Figure {
    let engine = opts.engine();
    let widths: Vec<u32> = if opts.quick {
        vec![1, 4, 16]
    } else {
        vec![1, 2, 4, 8, 16]
    };
    let mut series = Vec::new();
    let mut notes = Vec::new();
    for target in TargetId::ALL {
        let kernels = widths
            .iter()
            .map(|&w| {
                let mut k = copy_kernel(target, PLATEAU_BYTES);
                k.vector_width = VectorWidth::new(w).expect("allowed width");
                k
            })
            .collect();
        let mut pts = Vec::new();
        for (&w, r) in widths
            .iter()
            .zip(measure_list(&engine, target, kernels, opts.ntimes()))
        {
            match r {
                Ok(gbps) => pts.push((w as f64, gbps)),
                Err(e) => notes.push(e),
            }
        }
        series.push(Series::new(target.label(), pts));
    }
    Figure {
        id: FigureId::Fig1b,
        title: "COPY bandwidth vs vector width (memory coalescing)".into(),
        x_label: "Vector Width (words)".into(),
        y_label: "Global Memory B'width (GB/s)".into(),
        series,
        notes,
    }
}

/// Figure 2: contiguous vs column-major ("strided") access across sizes.
pub fn fig2(opts: RunOpts) -> Figure {
    let engine = opts.engine();
    let mut series = Vec::new();
    let mut notes = Vec::new();
    for (pattern, suffix) in [
        (AccessPattern::Contiguous, "contig"),
        (AccessPattern::ColMajor { cols: None }, "strided"),
    ] {
        for target in TargetId::ALL {
            // The paper's FPGA series stop at 64 MB; CPU/GPU go to ~1 GB.
            let sizes = opts.thin(if target.is_fpga() {
                fig1_sizes()
            } else {
                fig2_sizes()
            });
            let kernels = sizes
                .iter()
                .map(|&bytes| {
                    let mut k = copy_kernel(target, bytes);
                    k.pattern = pattern;
                    k
                })
                .collect();
            let mut pts = Vec::new();
            for (&bytes, r) in
                sizes
                    .iter()
                    .zip(measure_list(&engine, target, kernels, opts.ntimes()))
            {
                match r {
                    Ok(gbps) => pts.push((bytes as f64 / 1e6, gbps)),
                    Err(e) => notes.push(e),
                }
            }
            series.push(Series::new(format!("{}-{suffix}", target.label()), pts));
        }
    }
    Figure {
        id: FigureId::Fig2,
        title: "COPY bandwidth with varying array sizes and contiguity".into(),
        x_label: "Array size (MB) [column-major strided]".into(),
        y_label: "Global Memory B'width (GB/s)".into(),
        series,
        notes,
    }
}

/// Figure 3: the three loop managements on each target (KB/s).
pub fn fig3(opts: RunOpts) -> Figure {
    let engine = opts.engine();
    let mut series = Vec::new();
    let mut notes = Vec::new();
    // Batch per target (each batch shares one device across the pool),
    // then regroup the cells into one series per loop mode.
    let cells: Vec<Vec<Result<f64, String>>> = TargetId::ALL
        .into_iter()
        .map(|target| {
            let kernels = LoopMode::ALL
                .into_iter()
                .map(|mode| {
                    let mut k = copy_kernel(target, PLATEAU_BYTES);
                    k.loop_mode = mode;
                    k
                })
                .collect();
            measure_list(&engine, target, kernels, opts.ntimes())
        })
        .collect();
    for (j, mode) in LoopMode::ALL.into_iter().enumerate() {
        let mut pts = Vec::new();
        for (i, row) in cells.iter().enumerate() {
            match &row[j] {
                Ok(gbps) => pts.push((i as f64 + 1.0, gbps_to_kbps(*gbps))),
                Err(e) => notes.push(e.clone()),
            }
        }
        series.push(Series::new(mode.label(), pts));
    }
    Figure {
        id: FigureId::Fig3,
        title: "Effect of loop management on all four targets (4 MB)".into(),
        x_label: "Target (1=aocl 2=sdaccel 3=cpu 4=gpu)".into(),
        y_label: "Global Memory B'width (KB/s)".into(),
        series,
        notes,
    }
}

/// Figure 4a: all four STREAM kernels on all targets (KB/s).
pub fn fig4a(opts: RunOpts) -> Figure {
    let engine = opts.engine();
    let mut series = Vec::new();
    let mut notes = Vec::new();
    let cells: Vec<Vec<Result<f64, String>>> = TargetId::ALL
        .into_iter()
        .map(|target| {
            let kernels = StreamOp::ALL
                .into_iter()
                .map(|op| {
                    let mut k = copy_kernel(target, PLATEAU_BYTES);
                    k.op = op;
                    k
                })
                .collect();
            measure_list(&engine, target, kernels, opts.ntimes())
        })
        .collect();
    for (j, op) in StreamOp::ALL.into_iter().enumerate() {
        let mut pts = Vec::new();
        for (i, row) in cells.iter().enumerate() {
            match &row[j] {
                Ok(gbps) => pts.push((i as f64 + 1.0, gbps_to_kbps(*gbps))),
                Err(e) => notes.push(e.clone()),
            }
        }
        series.push(Series::new(op.name(), pts));
    }
    Figure {
        id: FigureId::Fig4a,
        title: "All four STREAM kernels on all targets (4 MB)".into(),
        x_label: "Target (1=aocl 2=sdaccel 3=cpu 4=gpu)".into(),
        y_label: "Global Memory B'width (KB/s)".into(),
        series,
        notes,
    }
}

/// Figure 4b: AOCL-specific replication vs native vectorization, on the
/// AOCL target, N in {1, 2, 4, 8, 16}.
pub fn fig4b(opts: RunOpts) -> Figure {
    let engine = opts.engine();
    let ns: Vec<u32> = if opts.quick {
        vec![1, 4, 16]
    } else {
        vec![1, 2, 4, 8, 16]
    };
    let target = TargetId::FpgaAocl;
    let mut notes = Vec::new();

    // Three kernels per N — native vectorization, num_simd_work_items
    // (requires NDRange + reqd work-group size), num_compute_units — in
    // one engine batch.
    let mut kernels = Vec::with_capacity(3 * ns.len());
    for &n in &ns {
        let mut k = copy_kernel(target, PLATEAU_BYTES);
        k.vector_width = VectorWidth::new(n).expect("allowed");
        kernels.push(k);

        let mut k = copy_kernel(target, PLATEAU_BYTES);
        k.loop_mode = LoopMode::NdRange;
        k.reqd_work_group_size = true;
        k.vendor = VendorOpts::Aocl(AoclOpts {
            num_simd_work_items: n,
            num_compute_units: 1,
        });
        kernels.push(k);

        let mut k = copy_kernel(target, PLATEAU_BYTES);
        k.vendor = VendorOpts::Aocl(AoclOpts {
            num_simd_work_items: 1,
            num_compute_units: n,
        });
        kernels.push(k);
    }
    let results = measure_list(&engine, target, kernels, opts.ntimes());

    let mut vec_pts = Vec::new();
    let mut simd_pts = Vec::new();
    let mut cu_pts = Vec::new();
    for (chunk, &n) in results.chunks(3).zip(&ns) {
        for (r, (pts, label)) in chunk.iter().zip([
            (&mut vec_pts, "vec"),
            (&mut simd_pts, "simd"),
            (&mut cu_pts, "cu"),
        ]) {
            match r {
                Ok(g) => pts.push((n as f64, *g)),
                Err(e) => notes.push(format!("{label}{n}: {e}")),
            }
        }
    }

    Figure {
        id: FigureId::Fig4b,
        title: "AOCL optimizations vs native vectorization".into(),
        x_label: "N (vector width | SIMD work-items | compute units)".into(),
        y_label: "Global Memory B'width (GB/s)".into(),
        series: vec![
            Series::new("vector-size", vec_pts),
            Series::new("num-simd-work-items", simd_pts),
            Series::new("num-compute-units", cu_pts),
        ],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_ids_round_trip() {
        for id in FigureId::ALL {
            assert_eq!(FigureId::from_name(id.name()), Some(id));
        }
        assert_eq!(FigureId::from_name("fig9"), None);
    }

    #[test]
    fn fig1a_quick_has_four_series_rising() {
        let f = fig1a(RunOpts::quick());
        assert_eq!(f.series.len(), 4);
        for s in &f.series {
            assert!(!s.points.is_empty(), "{}", s.label);
            let ys = s.ys();
            assert!(
                ys.last().unwrap() > ys.first().unwrap(),
                "{} should rise: {ys:?}",
                s.label
            );
        }
        assert!(f.notes.is_empty(), "{:?}", f.notes);
    }

    #[test]
    fn fig3_quick_fpga_prefers_single_work_item() {
        let f = fig3(RunOpts::quick());
        let find = |label: &str| {
            f.series
                .iter()
                .find(|s| s.label == label)
                .expect("series")
                .points
                .clone()
        };
        let nd = find("ndrange-kernel");
        let flat = find("kernel-loop-flat");
        let nested = find("kernel-loop-nested");
        // x = 1 is aocl, x = 2 sdaccel, 3 cpu, 4 gpu.
        assert!(flat[0].1 > nd[0].1, "aocl prefers the loop form");
        assert!(nested[1].1 > flat[1].1, "sdaccel prefers the nested form");
        assert!(nd[2].1 > flat[2].1, "cpu prefers ndrange");
        assert!(
            nd[3].1 > 100.0 * flat[3].1,
            "gpu collapses on one work-item"
        );
    }

    #[test]
    fn fig1b_quick_with_faults_and_retries_matches_fault_free() {
        let clean = fig1b(RunOpts::quick().with_jobs(2));
        let spec = FaultSpec::parse("build=0.2,timeout=0.1,lost=0.05,bitflip=0.05").unwrap();
        let faulty = fig1b(
            RunOpts::quick()
                .with_jobs(2)
                .with_faults(spec)
                .with_fault_seed(42)
                .with_retries(10),
        );
        assert!(faulty.notes.is_empty(), "{:?}", faulty.notes);
        for (a, b) in clean.series.iter().zip(&faulty.series) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.points, b.points, "{}", a.label);
        }
    }

    #[test]
    fn fig4b_quick_native_vectorization_wins_at_16() {
        let f = fig4b(RunOpts::quick());
        let last = |label: &str| {
            f.series
                .iter()
                .find(|s| s.label == label)
                .expect("series")
                .points
                .last()
                .copied()
        };
        let v = last("vector-size").expect("vec point");
        let cu = last("num-compute-units").expect("cu point");
        assert!(v.1 > cu.1, "native vec {v:?} beats CU replication {cu:?}");
    }
}
