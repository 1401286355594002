//! FPGA target #1: Altera Stratix V GS D5 on a Nallatech PCIe-385N,
//! compiled with the Altera SDK for OpenCL (AOCL) 15.1 — "25 GB/s Peak
//! BW" in the paper.
//!
//! AOCL synthesizes single-work-item kernels into a pipeline with one
//! load/store unit per pointer argument. Scalar kernels issue one element
//! per clock, so bandwidth is pipeline-bound far below DRAM peak; OpenCL
//! vector types widen the LSU data path ("translates to a memory
//! controller on the FPGA that coalesces memory accesses"), approaching
//! peak at width 16 (Fig. 1b). LSUs buffer consecutive accesses into DRAM
//! bursts; the column-major pattern defeats burst formation and row
//! locality, collapsing bandwidth (Fig. 2). The vendor replication
//! attributes (`num_simd_work_items`, `num_compute_units`) add datapath
//! copies but cost resources, fmax and memory-controller arbitration —
//! which is why they underperform native vectorization (Fig. 4b).

use crate::common::run_plan;
use crate::resources::{FpgaCapacity, ResourceModel};
use kernelgen::{ExecPlan, KernelConfig, LoopMode, VendorOpts};
use memsim::{Coalescer, DramConfig, Link, LinkConfig, MemHierarchyConfig, WritePolicy};
use mpcl::{BuildArtifact, ClError, DeviceBackend, DeviceInfo, DeviceType, KernelCost, PowerModel};

/// Tuning constants of the AOCL model.
#[derive(Debug, Clone)]
pub struct AoclTuning {
    /// Kernel clock before congestion degradation, MHz.
    pub base_fmax_mhz: f64,
    /// fmax loss per unit of device utilisation (routing congestion).
    pub fmax_util_slope: f64,
    /// Elements each LSU buffers before issuing a DRAM burst.
    pub lsu_burst_elems: u32,
    /// Maximum burst length, bytes.
    pub lsu_max_burst_bytes: u32,
    /// Outstanding bursts per compute unit's LSUs.
    pub mlp_per_cu: usize,
    /// Board DRAM.
    pub dram: DramConfig,
    /// Memory-interconnect latency per burst, ns.
    pub dram_extra_latency_ns: f64,
    /// NDRange work-item scheduling inflates the initiation interval by
    /// this factor relative to a single-work-item loop.
    pub ndrange_ii_factor: f64,
    /// Per-extra-compute-unit arbitration slowdown (fractional).
    pub cu_contention: f64,
    /// Kernel launch overhead (OpenCL runtime + board driver), ns.
    pub launch_overhead_ns: f64,
    /// PCIe link.
    pub link: LinkConfig,
    /// Resource model and device capacity.
    pub resources: ResourceModel,
    pub capacity: FpgaCapacity,
    /// Simulation sample cap.
    pub sample_cap: u64,
}

impl Default for AoclTuning {
    fn default() -> Self {
        AoclTuning {
            base_fmax_mhz: 290.0,
            fmax_util_slope: 0.25,
            lsu_burst_elems: 64,
            lsu_max_burst_bytes: 1024,
            mlp_per_cu: 16,
            dram: DramConfig::ddr3_fpga_aocl(),
            dram_extra_latency_ns: 100.0,
            ndrange_ii_factor: 2.5,
            cu_contention: 0.10,
            launch_overhead_ns: 50_000.0,
            link: LinkConfig::pcie_gen3_x8(),
            resources: ResourceModel::default(),
            capacity: FpgaCapacity::stratix_v_gsd5(),
            sample_cap: 1_000_000,
        }
    }
}

impl AoclTuning {
    /// The "newer FPGA board" outlook (paper §V: "we plan to update our
    /// results with newer FPGA boards and OpenCL compiler versions"): an
    /// Arria 10 with DDR4-2133 and the 17.x-era AOCL flow — higher fmax,
    /// a hardened floating-point fabric, deeper LSU queues.
    pub fn arria10() -> Self {
        AoclTuning {
            base_fmax_mhz: 420.0,
            fmax_util_slope: 0.20,
            mlp_per_cu: 32,
            dram: memsim::DramConfig::ddr4_fpga_arria10(),
            dram_extra_latency_ns: 90.0,
            launch_overhead_ns: 30_000.0,
            capacity: crate::resources::FpgaCapacity::arria10_gx1150(),
            ..Default::default()
        }
    }
}

/// An Arria-10 generation AOCL device (the paper's "newer boards").
pub fn arria10_device() -> mpcl::Device {
    mpcl::Device::new(Box::new(AoclBackendNamed {
        inner: AoclBackend::with_tuning(AoclTuning::arria10()),
        name: "Intel Arria 10 GX1150 (DDR4), AOCL 17.1",
    }))
}

/// An [`AoclBackend`] with an overridden device name (board variants).
#[derive(Debug)]
struct AoclBackendNamed {
    inner: AoclBackend,
    name: &'static str,
}

impl DeviceBackend for AoclBackendNamed {
    fn info(&self) -> DeviceInfo {
        DeviceInfo {
            name: self.name.into(),
            ..self.inner.info()
        }
    }
    fn build(&mut self, cfg: &KernelConfig) -> Result<BuildArtifact, ClError> {
        self.inner.build(cfg)
    }
    fn kernel_cost(&mut self, artifact: &BuildArtifact, plan: &ExecPlan) -> KernelCost {
        self.inner.kernel_cost(artifact, plan)
    }
    fn transfer_ns(&mut self, bytes: u64) -> f64 {
        self.inner.transfer_ns(bytes)
    }
    fn launch_overhead_ns(&self) -> f64 {
        self.inner.launch_overhead_ns()
    }
    fn power_model(&self) -> Option<PowerModel> {
        // Arria 10 boards draw ~35 W under load.
        Some(PowerModel {
            idle_w: 15.0,
            active_w: 14.0,
            pj_per_byte: 40.0,
        })
    }
}

/// The AOCL FPGA device model.
#[derive(Debug)]
pub struct AoclBackend {
    tuning: AoclTuning,
    link: Link,
}

impl AoclBackend {
    /// Build with the paper-calibrated defaults.
    pub fn new() -> Self {
        Self::with_tuning(AoclTuning::default())
    }

    /// Build with explicit tuning.
    pub fn with_tuning(tuning: AoclTuning) -> Self {
        let link = Link::new(tuning.link);
        AoclBackend { tuning, link }
    }

    /// The tuning in effect.
    pub fn tuning(&self) -> &AoclTuning {
        &self.tuning
    }

    fn replication(cfg: &KernelConfig) -> (u32, u32) {
        match cfg.vendor {
            VendorOpts::Aocl(a) => (a.num_simd_work_items.max(1), a.num_compute_units.max(1)),
            _ => (1, 1),
        }
    }
}

impl Default for AoclBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl DeviceBackend for AoclBackend {
    fn info(&self) -> DeviceInfo {
        DeviceInfo {
            name: "Nallatech PCIe-385N (Stratix V GS D5), AOCL 15.1".into(),
            vendor: "Altera Corporation".into(),
            device_type: DeviceType::Accelerator,
            global_mem_bytes: 8 << 30,
            peak_gbps: self.tuning.dram.peak_gbps(),
            max_compute_units: 16,
            max_work_group_size: 2048,
        }
    }

    fn build(&mut self, cfg: &KernelConfig) -> Result<BuildArtifact, ClError> {
        let t = &self.tuning;
        let usage = t.resources.estimate(cfg);
        let util = t.resources.utilisation(cfg, t.capacity);
        let report = t.resources.report(cfg, t.capacity);
        if util > 1.0 {
            return Err(ClError::BuildProgramFailure(format!(
                "aoc: design does not fit Stratix V GS D5 (utilisation {:.0}%)\n{report}",
                util * 100.0
            )));
        }
        let fmax = t.base_fmax_mhz * (1.0 - t.fmax_util_slope * util);
        Ok(BuildArtifact {
            build_log: format!("aoc: build ok, fmax {fmax:.0} MHz\n{report}"),
            fmax_mhz: Some(fmax),
            resources: Some(usage),
            lane_group: t.lsu_burst_elems,
            // Full place-and-route: hours, growing with congestion.
            synthesis_ns: (1.0 + util) * 3.6e12,
        })
    }

    fn kernel_cost(&mut self, artifact: &BuildArtifact, plan: &ExecPlan) -> KernelCost {
        let t = &self.tuning;
        let cfg = &plan.cfg;
        let fmax = artifact.fmax_mhz.expect("aocl kernels always report fmax");
        let cycle_ns = 1000.0 / fmax;
        let (simd, cus) = Self::replication(cfg);

        // Initiation interval per access: a single-work-item pipeline
        // issues one read and one write per clock (two LSUs); NDRange
        // work-item scheduling is slower; unroll/SIMD/CU replicate the
        // datapath.
        let base = match cfg.loop_mode {
            LoopMode::SingleWorkItemFlat | LoopMode::SingleWorkItemNested => cycle_ns / 2.0,
            LoopMode::NdRange => cycle_ns * t.ndrange_ii_factor / 2.0 / simd as f64,
        };
        let issue = base / (cfg.unroll.max(1) as f64) / cus as f64;

        let hierarchy = MemHierarchyConfig {
            caches: vec![],
            hit_ns: vec![],
            tlb: None,
            prefetch: None,
            dram: t.dram.clone(),
            issue_bytes_per_ns: 1e9, // pipeline is access-rate limited
            issue_ns_per_access: issue,
            mlp: t.mlp_per_cu * cus as usize,
            dram_extra_latency_ns: t.dram_extra_latency_ns,
            write_policy: WritePolicy::WriteAllocate, // no caches: unused
            wc_flush_bytes: 512,
        };
        let co = Coalescer::extent(t.lsu_max_burst_bytes, t.lsu_burst_elems as usize);
        let out = run_plan(hierarchy, plan, artifact.lane_group, Some(co), t.sample_cap);

        // The hierarchy paces *bursts*; the pipeline's initiation
        // interval is per kernel-side access — a scalar pipeline cannot
        // beat one element per clock no matter how well its LSU bursts.
        let pipe_ns = kernelgen::total_accesses(cfg) as f64 * issue;

        // Multiple compute units contend at the shared memory controller.
        let ns = out.ns.max(pipe_ns) * (1.0 + t.cu_contention * (cus as f64 - 1.0));

        // DGEMM-lite arithmetic roofline: one multiply-add per replicated
        // datapath per clock (unroll and SIMD/CU replication widen it).
        let macs_per_ns = (cfg.unroll.max(1) * simd * cus) as f64 / cycle_ns;
        let ns = crate::common::dgemm_roofline_ns(cfg, ns, 2.0 * macs_per_ns);

        // AOCL channels: a depth-0 channel lets the compiler fuse the
        // producer and consumer into one pipeline — cost identical to
        // the single-stage kernel. Deeper FIFOs run the stages
        // concurrently, paced by the slower side plus the fill latency
        // (one element per clock into the FIFO).
        let (ns, stall_ns) = match cfg.channel {
            Some(ch) if ch.depth > 0 => {
                crate::common::channel_overlay(cfg, ns, cycle_ns).expect("channel present")
            }
            _ => (ns, 0.0),
        };
        KernelCost {
            ns,
            dram_bytes: out.stats.dram_bytes,
            stats: out.stats,
            stall_ns,
        }
    }

    fn transfer_ns(&mut self, bytes: u64) -> f64 {
        self.link.transfer_ns(bytes)
    }

    fn launch_overhead_ns(&self) -> f64 {
        self.tuning.launch_overhead_ns
    }

    fn power_model(&self) -> Option<PowerModel> {
        Some(crate::power::fpga_aocl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernelgen::{AccessPattern, AoclOpts, StreamOp, VectorWidth};

    fn gbps(cfg: &KernelConfig, backend: &mut AoclBackend) -> f64 {
        let art = backend.build(cfg).unwrap();
        let bytes = cfg.array_bytes();
        let plan = ExecPlan::new(cfg.clone(), 4096, 4096 + bytes, 8192 + 2 * bytes);
        let ns = backend.kernel_cost(&art, &plan).ns + backend.launch_overhead_ns();
        cfg.bytes_moved() as f64 / ns
    }

    fn copy_cfg(mb: f64) -> KernelConfig {
        let n = (mb * 1e6 / 4.0) as u64;
        let mut cfg = KernelConfig::baseline(StreamOp::Copy, n.next_power_of_two());
        cfg.loop_mode = LoopMode::SingleWorkItemFlat; // optimal for FPGAs
        cfg
    }

    fn with_vec(mut cfg: KernelConfig, w: u32) -> KernelConfig {
        cfg.vector_width = VectorWidth::new(w).unwrap();
        cfg
    }

    #[test]
    fn scalar_pipeline_bound_near_paper_value() {
        // Paper Fig 1a: aocl at 4-16 MB ≈ 2.4-2.5 GB/s.
        let mut b = AoclBackend::new();
        let bw = gbps(&copy_cfg(4.0), &mut b);
        assert!(bw > 1.5 && bw < 3.5, "aocl scalar 4MB: {bw} GB/s");
    }

    #[test]
    fn vectorization_approaches_peak() {
        // Paper Fig 1b: 2.53 -> 4.61 -> 8.97 -> 14.85 -> 15.26 GB/s.
        let mut b = AoclBackend::new();
        let widths: Vec<f64> = [1u32, 2, 4, 8, 16]
            .iter()
            .map(|&w| gbps(&with_vec(copy_cfg(4.0), w), &mut b))
            .collect();
        for pair in widths.windows(2) {
            assert!(pair[1] > pair[0] * 0.95, "non-decreasing: {widths:?}");
        }
        assert!(
            widths[4] > 10.0 && widths[4] < 25.6,
            "w16 near peak: {widths:?}"
        );
        assert!(
            widths[4] / widths[0] > 4.0,
            "big vectorization win: {widths:?}"
        );
    }

    #[test]
    fn small_arrays_overhead_bound() {
        // Paper: 1 KB ≈ 0.04 GB/s.
        let mut b = AoclBackend::new();
        let bw = gbps(&copy_cfg(0.001), &mut b);
        assert!(bw < 0.2, "aocl 1KB: {bw}");
    }

    #[test]
    fn strided_collapses() {
        // Paper Fig 2: aocl-strided ≤ 1.7 everywhere, < 0.5 at 4 MB+.
        let mut b = AoclBackend::new();
        let mut strided = copy_cfg(16.0);
        strided.pattern = AccessPattern::ColMajor { cols: None };
        let s = gbps(&strided, &mut b);
        let c = gbps(&copy_cfg(16.0), &mut b);
        assert!(s < c / 3.0, "strided {s} vs contig {c}");
    }

    #[test]
    fn single_work_item_beats_ndrange() {
        // Paper Fig 3: FPGAs prefer single-work-item kernels.
        let mut b = AoclBackend::new();
        let flat = gbps(&copy_cfg(4.0), &mut b);
        let mut nd = copy_cfg(4.0);
        nd.loop_mode = LoopMode::NdRange;
        let ndv = gbps(&nd, &mut b);
        assert!(flat > ndv, "flat {flat} vs ndrange {ndv}");
    }

    #[test]
    fn unroll_speeds_up_pipeline() {
        let mut b = AoclBackend::new();
        let base = gbps(&copy_cfg(4.0), &mut b);
        let mut unrolled = copy_cfg(4.0);
        unrolled.unroll = 8;
        let u = gbps(&unrolled, &mut b);
        assert!(u > 2.0 * base, "unroll 8: {u} vs {base}");
    }

    #[test]
    fn compute_units_rise_then_fall() {
        // Paper Fig 4b: replication helps then hurts.
        let mut b = AoclBackend::new();
        let at = |k: u32, b: &mut AoclBackend| {
            let mut cfg = copy_cfg(4.0);
            cfg.vendor = VendorOpts::Aocl(AoclOpts {
                num_simd_work_items: 1,
                num_compute_units: k,
            });
            gbps(&cfg, b)
        };
        let c1 = at(1, &mut b);
        let c4 = at(4, &mut b);
        let c16 = at(16, &mut b);
        assert!(c4 > c1, "cu4 {c4} vs cu1 {c1}");
        assert!(c16 < c4, "cu16 declines: {c16} vs {c4}");
    }

    #[test]
    fn native_vectorization_beats_compute_units() {
        // Paper: "native vectorization optimization leads to more
        // reliable improvement" than vendor replication.
        let mut b = AoclBackend::new();
        let vec8 = gbps(&with_vec(copy_cfg(4.0), 8), &mut b);
        let mut cu8 = copy_cfg(4.0);
        cu8.vendor = VendorOpts::Aocl(AoclOpts {
            num_simd_work_items: 1,
            num_compute_units: 8,
        });
        let cu = gbps(&cu8, &mut b);
        assert!(vec8 > cu, "vec8 {vec8} vs cu8 {cu}");
    }

    #[test]
    fn oversized_replication_fails_synthesis() {
        let mut b = AoclBackend::new();
        let mut cfg = copy_cfg(4.0);
        cfg.loop_mode = LoopMode::NdRange;
        cfg.reqd_work_group_size = true;
        cfg.vector_width = VectorWidth::new(16).unwrap();
        cfg.vendor = VendorOpts::Aocl(AoclOpts {
            num_simd_work_items: 16,
            num_compute_units: 16,
        });
        match b.build(&cfg) {
            Err(ClError::BuildProgramFailure(log)) => {
                assert!(log.contains("does not fit"), "{log}");
            }
            other => panic!("expected synthesis failure, got {other:?}"),
        }
    }

    #[test]
    fn depth_zero_channel_fuses_to_single_stage_cost() {
        let mut b = AoclBackend::new();
        let plain = copy_cfg(4.0);
        let art = b.build(&plain).unwrap();
        let bytes = plain.array_bytes();
        let plan =
            |cfg: &KernelConfig| ExecPlan::new(cfg.clone(), 4096, 4096 + bytes, 8192 + 2 * bytes);
        let base = b.kernel_cost(&art, &plan(&plain));

        let mut fused = plain.clone();
        fused.channel = Some(kernelgen::ChannelSpec { depth: 0 });
        let fart = b.build(&fused).unwrap();
        let fcost = b.kernel_cost(&fart, &plan(&fused));
        assert_eq!(fcost.ns.to_bits(), base.ns.to_bits(), "depth 0 fuses");
        assert_eq!(fcost.stall_ns, 0.0);

        let mut deep = plain.clone();
        deep.channel = Some(kernelgen::ChannelSpec { depth: 64 });
        let dart = b.build(&deep).unwrap();
        let dcost = b.kernel_cost(&dart, &plan(&deep));
        // Two concurrent stages each do half the memory work, so a
        // balanced COPY speeds up (plus a tiny fill term) and stalls
        // stay at zero; an imbalanced TRIAD reports the idle side.
        assert!(
            dcost.ns < base.ns,
            "split {} vs fused {}",
            dcost.ns,
            base.ns
        );
        assert_eq!(dcost.stall_ns, 0.0, "copy split is balanced");

        let mut triad = plain.clone();
        triad.op = StreamOp::Triad;
        triad.channel = Some(kernelgen::ChannelSpec { depth: 64 });
        let tart = b.build(&triad).unwrap();
        let tcost = b.kernel_cost(&tart, &plan(&triad));
        assert!(tcost.stall_ns > 0.0, "triad producer blocks on the FIFO");
        assert!(tcost.stall_ns < tcost.ns);
    }

    #[test]
    fn hpcc_family_times_and_dgemm_hits_the_compute_roofline() {
        use kernelgen::{DataType, Op};
        let mut b = AoclBackend::new();
        for op in Op::HPCC {
            let mut cfg = KernelConfig::baseline(op, 1 << 14);
            cfg.dtype = DataType::I32;
            cfg.loop_mode = LoopMode::SingleWorkItemFlat;
            kernelgen::validate(&cfg).unwrap();
            let art = b.build(&cfg).unwrap();
            let bytes = cfg.array_bytes();
            let plan = ExecPlan::new(cfg.clone(), 4096, 4096 + bytes, 8192 + 2 * bytes);
            let cost = b.kernel_cost(&art, &plan);
            assert!(cost.ns > 0.0, "{op:?} must cost time");
            if op == Op::DgemmLite {
                // 2^14 outputs x 2K (K=128) MACs at ~0.6 GMAC/s clock
                // dwarfs the streaming time of the same footprint.
                let mut copy = cfg.clone();
                copy.op = Op::Copy;
                let cart = b.build(&copy).unwrap();
                let cplan = ExecPlan::new(copy, 4096, 4096 + bytes, 8192 + 2 * bytes);
                let ccost = b.kernel_cost(&cart, &cplan);
                assert!(
                    cost.ns > 3.0 * ccost.ns,
                    "dgemm {} vs copy {}",
                    cost.ns,
                    ccost.ns
                );
            }
        }
    }

    #[test]
    fn fmax_degrades_with_utilisation() {
        let mut b = AoclBackend::new();
        let small = b.build(&copy_cfg(4.0)).unwrap().fmax_mhz.unwrap();
        let mut big = copy_cfg(4.0);
        big.vector_width = VectorWidth::new(16).unwrap();
        big.unroll = 4;
        let large = b.build(&big).unwrap().fmax_mhz.unwrap();
        assert!(large < small, "fmax {large} vs {small}");
    }
}
