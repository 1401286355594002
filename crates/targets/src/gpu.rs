//! GPU target: Nvidia GeForce GTX Titan Black (Kepler GK110B, 15 SMX,
//! 384-bit GDDR5 @ 7 GT/s — "336 GB/s Peak BW" in the paper).
//!
//! NDRange kernels expose enormous memory-level parallelism: each warp's
//! 32 lane accesses coalesce into aligned 128 B segments, and hundreds of
//! outstanding segments keep the GDDR5 bus near saturation — the GPU's
//! sustained bandwidth sits close to peak (Fig. 1). A *single work-item*
//! kernel collapses to one latency-bound thread (Fig. 3). The
//! column-major pattern breaks intra-warp coalescing (32 separate
//! segments per instruction); bandwidth is then bounded by the L2 while
//! column working sets fit and by 32x-wasted DRAM bursts beyond — the
//! Fig. 2 strided curve, including its collapse past ~100 MB.

use crate::common::run_plan;
use kernelgen::{ExecPlan, KernelConfig, LoopMode};
use memsim::{
    CacheConfig, Coalescer, DramConfig, Link, LinkConfig, MemHierarchyConfig, WritePolicy,
};
use mpcl::{BuildArtifact, ClError, DeviceBackend, DeviceInfo, DeviceType, KernelCost, PowerModel};

/// Tuning constants of the GPU model.
#[derive(Debug, Clone)]
pub struct GpuTuning {
    /// Warp width (lane group for NDRange coalescing).
    pub warp: u32,
    /// Memory transaction segment size, bytes.
    pub segment_bytes: u32,
    /// L2 cache geometry.
    pub l2: CacheConfig,
    /// Amortized L2 hit cost per transaction under full occupancy, ns.
    pub l2_hit_ns: f64,
    /// Per-transaction issue slot cost under full occupancy, ns.
    pub issue_ns_per_transaction: f64,
    /// Outstanding memory transactions at full occupancy.
    pub mlp_full: usize,
    /// GDDR5 device.
    pub dram: DramConfig,
    /// Interconnect + controller latency per demand miss, ns.
    pub dram_extra_latency_ns: f64,
    /// Per-warp-instruction front-end cost, ns (charged per *lane*
    /// access before coalescing: `warp_issue_ns / warp`).
    pub warp_issue_ns: f64,
    /// Single-thread (single work-item) parameters: per-access issue
    /// cost, L2 hit latency and usable MLP.
    pub single_issue_ns: f64,
    pub single_l2_hit_ns: f64,
    pub single_mlp: usize,
    /// Kernel launch overhead (driver + PCIe doorbell), ns.
    pub launch_overhead_ns: f64,
    /// PCIe link.
    pub link: LinkConfig,
    /// Simulation sample cap (kernel-side accesses).
    pub sample_cap: u64,
}

impl Default for GpuTuning {
    fn default() -> Self {
        GpuTuning {
            warp: 32,
            segment_bytes: 128,
            l2: CacheConfig {
                size_bytes: 1536 << 10,
                ways: 16,
                line_bytes: 128,
            },
            l2_hit_ns: 0.07,
            issue_ns_per_transaction: 0.07,
            mlp_full: 768,
            dram: DramConfig::gddr5_titan(),
            dram_extra_latency_ns: 250.0,
            warp_issue_ns: 0.10,
            single_issue_ns: 1.0,
            single_l2_hit_ns: 100.0,
            single_mlp: 1,
            launch_overhead_ns: 7_000.0,
            link: LinkConfig::pcie_gen3_x16(),
            sample_cap: 1_500_000,
        }
    }
}

/// The GPU device model.
#[derive(Debug)]
pub struct GpuBackend {
    tuning: GpuTuning,
    link: Link,
}

impl GpuBackend {
    /// Build with the paper-calibrated defaults.
    pub fn new() -> Self {
        Self::with_tuning(GpuTuning::default())
    }

    /// Build with explicit tuning.
    pub fn with_tuning(tuning: GpuTuning) -> Self {
        let link = Link::new(tuning.link);
        GpuBackend { tuning, link }
    }

    /// The tuning in effect.
    pub fn tuning(&self) -> &GpuTuning {
        &self.tuning
    }

    /// Occupancy-limited MLP: wide vector types increase per-thread
    /// register and access footprint, reducing resident warps (the
    /// Fig. 1b decline at width 16); work-groups smaller than a warp
    /// waste scheduler slots and throttle resident parallelism.
    fn occupancy_mlp(&self, cfg: &KernelConfig) -> usize {
        let w = cfg.vector_width.get() as f64;
        let dtype_words = cfg.dtype.word_bytes() as f64 / 4.0;
        let footprint = (w * dtype_words - 1.0) / 8.0;
        let wg_factor = (cfg.work_group_size as f64 / self.tuning.warp as f64).min(1.0);
        ((self.tuning.mlp_full as f64 * wg_factor / (1.0 + footprint)) as usize).max(4)
    }

    fn hierarchy_config(&self, cfg: &KernelConfig) -> MemHierarchyConfig {
        let t = &self.tuning;
        let ndrange = cfg.loop_mode == LoopMode::NdRange;
        MemHierarchyConfig {
            caches: vec![t.l2],
            hit_ns: vec![if ndrange {
                t.l2_hit_ns
            } else {
                t.single_l2_hit_ns
            }],
            tlb: None,
            prefetch: None,
            dram: t.dram.clone(),
            issue_bytes_per_ns: 50_000.0, // not the binding resource
            issue_ns_per_access: if ndrange {
                t.issue_ns_per_transaction
            } else {
                t.single_issue_ns
            },
            mlp: if ndrange {
                self.occupancy_mlp(cfg)
            } else {
                t.single_mlp
            },
            dram_extra_latency_ns: if ndrange {
                t.dram_extra_latency_ns
            } else {
                350.0
            },
            // Write-back L2 with write-validate for full segments: the
            // L2 absorbs strided stores (the Fig. 2 mid-size plateau)
            // while full-line stores skip the read-for-ownership.
            write_policy: WritePolicy::WriteAllocate,
            wc_flush_bytes: 512,
        }
    }
}

impl Default for GpuBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl DeviceBackend for GpuBackend {
    fn info(&self) -> DeviceInfo {
        DeviceInfo {
            name: "GeForce GTX Titan Black".into(),
            vendor: "NVIDIA Corporation".into(),
            device_type: DeviceType::Gpu,
            global_mem_bytes: 6 << 30,
            peak_gbps: self.tuning.dram.peak_gbps(),
            max_compute_units: 15,
            max_work_group_size: 1024,
        }
    }

    fn build(&mut self, cfg: &KernelConfig) -> Result<BuildArtifact, ClError> {
        let lane_group = if cfg.loop_mode == LoopMode::NdRange {
            self.tuning.warp
        } else {
            1
        };
        Ok(BuildArtifact {
            build_log: "clBuildProgram: ok (nvcc ptx)".into(),
            fmax_mhz: None,
            resources: None,
            lane_group,
            synthesis_ns: 45_000_000.0,
        })
    }

    fn kernel_cost(&mut self, artifact: &BuildArtifact, plan: &ExecPlan) -> KernelCost {
        let ndrange = plan.cfg.loop_mode == LoopMode::NdRange;
        let co =
            ndrange.then(|| Coalescer::new(self.tuning.segment_bytes, self.tuning.warp as usize));
        let out = run_plan(
            self.hierarchy_config(&plan.cfg),
            plan,
            artifact.lane_group,
            co,
            self.tuning.sample_cap,
        );
        let mut ns = out.ns;
        if ndrange {
            // Warp-instruction front-end cost (charged on the raw lane
            // accesses, which the coalescer absorbed before the
            // hierarchy could see them).
            let lane_accesses = kernelgen::total_accesses(&plan.cfg) as f64;
            ns += lane_accesses * self.tuning.warp_issue_ns / self.tuning.warp as f64;
        }
        let cfg = &plan.cfg;
        // DGEMM-lite arithmetic roofline: ~2000 int multiply-adds
        // per ns across the SMX array.
        let base_ns = crate::common::dgemm_roofline_ns(cfg, ns, 2000.0);
        let per_elem_ns = base_ns / cfg.n_vectors().max(1) as f64;
        let dram_floor_ns = out.stats.dram_bytes as f64 / self.tuning.dram.peak_gbps();
        let (ns, stall_ns) =
            crate::common::channel_overlay(cfg, base_ns, per_elem_ns, dram_floor_ns)
                .unwrap_or((base_ns, 0.0));
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
        Some(crate::power::gpu())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernelgen::{AccessPattern, StreamOp, VectorWidth};

    fn gbps(cfg: &KernelConfig, backend: &mut GpuBackend) -> f64 {
        let art = backend.build(cfg).unwrap();
        let bytes = cfg.array_bytes();
        let plan = ExecPlan::new(cfg.clone(), 4096, 4096 + bytes, 8192 + 2 * bytes);
        let ns = backend.kernel_cost(&art, &plan).ns + backend.launch_overhead_ns();
        cfg.bytes_moved() as f64 / ns
    }

    fn copy_cfg(mb: f64) -> KernelConfig {
        let n = (mb * 1e6 / 4.0) as u64;
        KernelConfig::baseline(StreamOp::Copy, n.next_power_of_two())
    }

    #[test]
    fn contiguous_16mb_near_paper_value() {
        // Paper Fig 1a: gpu at 16 MB ≈ 204 GB/s (peak 336).
        let mut b = GpuBackend::new();
        let bw = gbps(&copy_cfg(16.0), &mut b);
        assert!(bw > 130.0 && bw < 336.0, "gpu contiguous 16MB: {bw} GB/s");
    }

    #[test]
    fn small_arrays_launch_bound() {
        // Paper: 1 KB ≈ 0.14 GB/s.
        let mut b = GpuBackend::new();
        let bw = gbps(&copy_cfg(0.001), &mut b);
        assert!(bw < 1.0, "gpu 1KB: {bw}");
    }

    #[test]
    fn gpu_beats_everything_at_size() {
        let mut b = GpuBackend::new();
        let s = [0.01, 0.1, 1.0, 4.0, 16.0, 64.0].map(|mb| gbps(&copy_cfg(mb), &mut b));
        for w in s.windows(2) {
            assert!(w[1] > w[0] * 0.9, "roughly monotone: {s:?}");
        }
        assert!(s[5] > 100.0);
    }

    #[test]
    fn strided_mid_size_l2_bound_then_collapses() {
        // Paper Fig 2: gpu-strided ≈ 29 GB/s at 4-16 MB, < 10 at 256 MB+.
        let mut b = GpuBackend::new();
        let mut at = |mb: f64| {
            let mut c = copy_cfg(mb);
            c.pattern = AccessPattern::ColMajor { cols: None };
            gbps(&c, &mut b)
        };
        let mid = at(4.0);
        let huge = at(512.0);
        let contig = gbps(&copy_cfg(4.0), &mut b);
        assert!(mid < contig / 3.0, "strided mid {mid} vs contig {contig}");
        assert!(mid > 8.0, "L2 keeps mid-size strided alive: {mid}");
        assert!(huge < mid / 1.8, "collapse at huge sizes: {huge} vs {mid}");
    }

    #[test]
    fn single_work_item_is_catastrophic() {
        // Paper Fig 3: GPU single-work-item orders of magnitude slower.
        let mut b = GpuBackend::new();
        let nd = gbps(&copy_cfg(4.0), &mut b);
        let mut flat = copy_cfg(4.0);
        flat.loop_mode = LoopMode::SingleWorkItemFlat;
        let fl = gbps(&flat, &mut b);
        assert!(nd > 100.0 * fl, "ndrange {nd} vs single {fl}");
    }

    #[test]
    fn width16_slower_than_width4() {
        // Paper Fig 1b: gpu declines at width 16 (173 -> 201 -> 117).
        let mut b = GpuBackend::new();
        let mut w4 = copy_cfg(4.0);
        w4.vector_width = VectorWidth::new(4).unwrap();
        let mut w16 = copy_cfg(4.0);
        w16.vector_width = VectorWidth::new(16).unwrap();
        let b4 = gbps(&w4, &mut b);
        let b16 = gbps(&w16, &mut b);
        assert!(b16 < b4, "w16 {b16} vs w4 {b4}");
    }

    #[test]
    fn tiny_work_groups_throttle_bandwidth() {
        // The paper's reqd_work_group_size knob: groups below the warp
        // width waste scheduler slots.
        let mut b = GpuBackend::new();
        let mut small = copy_cfg(4.0);
        small.work_group_size = 4;
        let mut normal = copy_cfg(4.0);
        normal.work_group_size = 256;
        let bs = gbps(&small, &mut b);
        let bn = gbps(&normal, &mut b);
        assert!(bn > 1.5 * bs, "wg256 {bn} vs wg4 {bs}");
    }

    #[test]
    fn occupancy_shrinks_with_width() {
        let b = GpuBackend::new();
        let mut cfg = copy_cfg(4.0);
        let m1 = b.occupancy_mlp(&cfg);
        cfg.vector_width = VectorWidth::new(16).unwrap();
        let m16 = b.occupancy_mlp(&cfg);
        assert!(m16 < m1 / 2);
    }

    #[test]
    fn transfers_ride_pcie() {
        let mut b = GpuBackend::new();
        let eff = (1u64 << 26) as f64 / b.transfer_ns(1 << 26);
        assert!(eff > 6.0 && eff < 13.0, "pcie x16 effective {eff} GB/s");
    }
}
