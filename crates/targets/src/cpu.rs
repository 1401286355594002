//! CPU target: Intel Xeon E5-2609 v2 (Ivy Bridge EP, 4 cores, 2.5 GHz,
//! 10 MB L3, quad-channel DDR3 — "34 GB/s Peak BW" in the paper).
//!
//! NDRange kernels spread work-items across all cores (modelled as one
//! aggregate hierarchy with pooled issue bandwidth and miss parallelism);
//! single-work-item kernels run on one core — which is why the CPU
//! prefers NDRange in Figure 3. Contiguous traversals are kept near DRAM
//! peak by the stream prefetcher; the column-major pattern defeats both
//! the prefetcher and, past the LLC, all cache reuse — reproducing the
//! strided collapse of Figure 2. Stores are modelled as streaming
//! (non-temporal with write combining), as Intel's OpenCL CPU runtime
//! emits for simple elementwise kernels.

use crate::common::run_plan;
use kernelgen::{ExecPlan, KernelConfig, LoopMode};
use memsim::{
    CacheConfig, DramConfig, Link, LinkConfig, MemHierarchyConfig, PrefetchConfig, TlbConfig,
    WritePolicy,
};
use mpcl::{BuildArtifact, ClError, DeviceBackend, DeviceInfo, DeviceType, KernelCost, PowerModel};

/// Everything that shapes the CPU model (datasheet-level defaults).
#[derive(Debug, Clone)]
pub struct CpuTuning {
    /// Physical cores.
    pub cores: u32,
    /// Per-core streaming issue bandwidth, bytes/ns (load+store ports).
    pub issue_bytes_per_ns_per_core: f64,
    /// Per-core outstanding L1 misses (line-fill buffers).
    pub mlp_per_core: usize,
    /// Prefetch run-ahead distance in lines.
    pub prefetch_degree: u32,
    /// L1D / L2 / L3 geometries.
    pub l1: CacheConfig,
    pub l2: CacheConfig,
    pub l3: CacheConfig,
    /// Amortized per-line hit costs at L1/L2/L3 for a single core, ns.
    pub hit_ns_one_core: [f64; 3],
    /// DRAM configuration.
    pub dram: DramConfig,
    /// Uncore + controller latency added per demand miss, ns.
    pub dram_extra_latency_ns: f64,
    /// TLB entries and page size (transparent huge pages).
    pub tlb_entries: usize,
    pub page_bytes: u64,
    pub walk_ns: f64,
    /// OpenCL kernel dispatch overhead on the CPU runtime (thread-pool
    /// wake-up + work-group scheduling) — large, and clearly visible in
    /// the paper's small-array points (~40 µs).
    pub launch_overhead_ns: f64,
    /// "Host-device" link: loopback through shared memory.
    pub link: LinkConfig,
    /// Simulation sample cap (accesses per kernel timing run).
    pub sample_cap: u64,
}

impl Default for CpuTuning {
    fn default() -> Self {
        CpuTuning {
            cores: 4,
            issue_bytes_per_ns_per_core: 16.0,
            mlp_per_core: 10,
            prefetch_degree: 32,
            l1: CacheConfig {
                size_bytes: 32 << 10,
                ways: 8,
                line_bytes: 64,
            },
            l2: CacheConfig {
                size_bytes: 256 << 10,
                ways: 8,
                line_bytes: 64,
            },
            l3: CacheConfig {
                size_bytes: 10 << 20,
                ways: 20,
                line_bytes: 64,
            },
            hit_ns_one_core: [0.0, 1.2, 3.2],
            dram: DramConfig::ddr3_quad_channel(),
            dram_extra_latency_ns: 45.0,
            tlb_entries: 64,
            page_bytes: 2 << 20,
            walk_ns: 80.0,
            launch_overhead_ns: 40_000.0,
            link: LinkConfig::loopback(),
            sample_cap: 1_500_000,
        }
    }
}

/// The CPU device model.
#[derive(Debug)]
pub struct CpuBackend {
    tuning: CpuTuning,
    link: Link,
}

impl CpuBackend {
    /// Build with the paper-calibrated defaults.
    pub fn new() -> Self {
        Self::with_tuning(CpuTuning::default())
    }

    /// Build with explicit tuning (ablations, tests).
    pub fn with_tuning(tuning: CpuTuning) -> Self {
        let link = Link::new(tuning.link);
        CpuBackend { tuning, link }
    }

    /// The tuning in effect.
    pub fn tuning(&self) -> &CpuTuning {
        &self.tuning
    }

    fn hierarchy_config(&self, cfg: &KernelConfig) -> MemHierarchyConfig {
        let t = &self.tuning;
        // NDRange uses every core; a single work-item is one thread.
        let active = if cfg.loop_mode == LoopMode::NdRange {
            t.cores
        } else {
            1
        } as f64;
        MemHierarchyConfig {
            caches: vec![t.l1, t.l2, t.l3],
            hit_ns: t.hit_ns_one_core.iter().map(|h| h / active).collect(),
            tlb: Some(TlbConfig {
                entries: t.tlb_entries,
                page_bytes: t.page_bytes,
                walk_ns: t.walk_ns / active,
            }),
            prefetch: Some(PrefetchConfig {
                degree: t.prefetch_degree,
            }),
            dram: t.dram.clone(),
            issue_bytes_per_ns: t.issue_bytes_per_ns_per_core * active,
            issue_ns_per_access: 0.0,
            mlp: t.mlp_per_core * active as usize,
            dram_extra_latency_ns: t.dram_extra_latency_ns,
            write_policy: WritePolicy::Streaming,
            wc_flush_bytes: 2048,
        }
    }
}

impl Default for CpuBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl DeviceBackend for CpuBackend {
    fn info(&self) -> DeviceInfo {
        DeviceInfo {
            name: "Intel(R) Xeon(R) CPU E5-2609 v2 @ 2.50GHz".into(),
            vendor: "Intel(R) Corporation".into(),
            device_type: DeviceType::Cpu,
            global_mem_bytes: 32 << 30,
            peak_gbps: self.tuning.dram.peak_gbps(),
            max_compute_units: self.tuning.cores,
            max_work_group_size: 8192,
        }
    }

    fn build(&mut self, _cfg: &KernelConfig) -> Result<BuildArtifact, ClError> {
        // The CPU runtime JIT-compiles instantly and vectorizes
        // internally; work-items execute in traversal order.
        Ok(BuildArtifact {
            build_log: "clBuildProgram: ok (cpu jit)".into(),
            fmax_mhz: None,
            resources: None,
            lane_group: 1,
            synthesis_ns: 12_000.0,
        })
    }

    fn kernel_cost(&mut self, artifact: &BuildArtifact, plan: &ExecPlan) -> KernelCost {
        let cfg = &plan.cfg;
        let out = run_plan(
            self.hierarchy_config(cfg),
            plan,
            artifact.lane_group,
            None,
            self.tuning.sample_cap,
        );
        // DGEMM-lite can be arithmetic-bound: 4 cores x 2.5 GHz x
        // ~4 multiply-adds per cycle.
        let base_ns = crate::common::dgemm_roofline_ns(cfg, out.ns, 40.0);
        // Channeled variants run the load/store halves as concurrent
        // pipeline stages (the CPU runtime maps the FIFO to a shared
        // queue); fill is paced at the kernel's own element rate.
        let per_elem_ns = base_ns / cfg.n_vectors().max(1) as f64;
        let (ns, stall_ns) =
            crate::common::channel_overlay(cfg, base_ns, per_elem_ns).unwrap_or((base_ns, 0.0));
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
        Some(crate::power::cpu())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernelgen::{AccessPattern, StreamOp};

    fn gbps(cfg: &KernelConfig, backend: &mut CpuBackend, include_launch: bool) -> f64 {
        let art = backend.build(cfg).unwrap();
        let bytes = cfg.array_bytes();
        let plan = ExecPlan::new(cfg.clone(), 4096, 4096 + bytes, 8192 + 2 * bytes);
        let mut ns = backend.kernel_cost(&art, &plan).ns;
        if include_launch {
            ns += backend.launch_overhead_ns();
        }
        cfg.bytes_moved() as f64 / ns
    }

    fn copy_cfg(mb: f64) -> KernelConfig {
        let n = (mb * 1e6 / 4.0) as u64;
        KernelConfig::baseline(StreamOp::Copy, n.next_power_of_two())
    }

    #[test]
    fn contiguous_4mb_lands_in_paper_band() {
        // Paper Fig 1a: cpu at 4 MB ≈ 27 GB/s (peak 34).
        let mut b = CpuBackend::new();
        let bw = gbps(&copy_cfg(4.0), &mut b, true);
        assert!(bw > 18.0 && bw < 34.0, "cpu contiguous 4MB: {bw} GB/s");
    }

    #[test]
    fn small_arrays_are_overhead_bound() {
        // Paper: 1 KB arrays measure ~0.05 GB/s on the CPU.
        let mut b = CpuBackend::new();
        let bw = gbps(&copy_cfg(0.001), &mut b, true);
        assert!(bw < 0.2, "cpu 1KB: {bw} GB/s");
    }

    #[test]
    fn bandwidth_grows_with_array_size() {
        let mut b = CpuBackend::new();
        let small = gbps(&copy_cfg(0.01), &mut b, true);
        let mid = gbps(&copy_cfg(0.25), &mut b, true);
        let large = gbps(&copy_cfg(4.0), &mut b, true);
        assert!(small < mid && mid < large, "{small} {mid} {large}");
    }

    #[test]
    fn strided_large_array_collapses() {
        // Paper Fig 2: cpu-strided at 64 MB ≈ 0.8 GB/s vs contig ≈ 25.
        let mut b = CpuBackend::new();
        let mut strided = copy_cfg(64.0);
        strided.pattern = AccessPattern::ColMajor { cols: None };
        let contig = gbps(&copy_cfg(64.0), &mut b, true);
        let s = gbps(&strided, &mut b, true);
        assert!(s < contig / 8.0, "strided {s} vs contig {contig}");
    }

    #[test]
    fn strided_has_cache_resident_bump() {
        // Paper Fig 2: cpu-strided peaks around 1-4 MB (LLC-resident).
        let mut b = CpuBackend::new();
        let mut at = |mb: f64| {
            let mut c = copy_cfg(mb);
            c.pattern = AccessPattern::ColMajor { cols: None };
            gbps(&c, &mut b, true)
        };
        let small = at(0.016);
        let bump = at(1.0);
        let large = at(64.0);
        assert!(bump > small, "bump {bump} vs small {small}");
        assert!(bump > 2.0 * large, "bump {bump} vs large {large}");
    }

    #[test]
    fn ndrange_beats_single_work_item() {
        // Paper Fig 3: the CPU performs best with NDRange.
        let mut b = CpuBackend::new();
        let nd = gbps(&copy_cfg(4.0), &mut b, true);
        let mut flat = copy_cfg(4.0);
        flat.loop_mode = LoopMode::SingleWorkItemFlat;
        let fl = gbps(&flat, &mut b, true);
        assert!(nd > fl, "ndrange {nd} vs flat {fl}");
        assert!(fl > 5.0, "single core still respectable: {fl}");
    }

    #[test]
    fn all_four_kernels_memory_bound() {
        // Paper Fig 4a: all kernels land in the same envelope.
        let mut b = CpuBackend::new();
        let mut bws = Vec::new();
        for op in StreamOp::ALL {
            let mut cfg = copy_cfg(4.0);
            cfg.op = op;
            bws.push(gbps(&cfg, &mut b, true));
        }
        let min = bws.iter().cloned().fold(f64::MAX, f64::min);
        let max = bws.iter().cloned().fold(0.0, f64::max);
        assert!(max / min < 2.0, "kernels within 2x: {bws:?}");
    }

    #[test]
    fn transfer_uses_loopback_link() {
        let mut b = CpuBackend::new();
        let ns = b.transfer_ns(1 << 20);
        assert!(ns < 100_000.0, "loopback should be fast: {ns}");
    }
}
