//! Helpers shared by all device backends.

use kernelgen::access::memaccess;
use kernelgen::{access_stream, total_accesses, ExecPlan};
use memsim::{Access, AccessKind, Coalescer, MemHierarchy, StreamOutcome};
use mpcl::backend::{BuildArtifact, KernelCost};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Entries the kernel-cost memo holds before wholesale eviction. A sweep
/// touches one entry per distinct (device, config) pair — a few hundred
/// for the paper's full space — so the cap only guards against unbounded
/// growth in pathological DSE campaigns.
const COST_MEMO_CAP: usize = 8192;

static COST_MEMO: OnceLock<Mutex<HashMap<String, KernelCost>>> = OnceLock::new();

/// Build the memo key for a kernel launch: everything
/// [`memoized_kernel_cost`] callers may read while computing the cost.
/// Tuning structs and `ExecPlan` format their `f64` fields with Rust's
/// shortest-roundtrip `Debug`, so distinct values never collide.
pub fn cost_key(
    device: &str,
    tuning: &impl std::fmt::Debug,
    artifact: &BuildArtifact,
    plan: &ExecPlan,
) -> String {
    format!(
        "{device}|{tuning:?}|lane_group={}|fmax={:?}|{plan:?}",
        artifact.lane_group, artifact.fmax_mhz
    )
}

/// Memoize a kernel-cost computation per `(config, target)` key.
///
/// Every backend's `kernel_cost` builds a *fresh* hierarchy from its
/// tuning and runs the plan through it — a pure function of the key — so
/// replaying a cached result is byte-identical to recomputing it. Sweeps
/// hit the same key constantly (warmup plus measured launches of every
/// point, repeated configurations across DSE rounds), which makes this
/// the single largest throughput lever in the stack.
///
/// Under `MPSTREAM_SIM_SLOW=1` the memo is bypassed entirely, keeping
/// the slow path a launch-for-launch oracle.
pub fn memoized_kernel_cost(key: String, compute: impl FnOnce() -> KernelCost) -> KernelCost {
    if memsim::slowpath::slow() {
        return compute();
    }
    let memo = COST_MEMO.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = memo.lock().expect("cost memo lock").get(&key) {
        return hit.clone();
    }
    let cost = compute();
    let mut m = memo.lock().expect("cost memo lock");
    if m.len() >= COST_MEMO_CAP {
        m.clear();
    }
    m.insert(key, cost.clone());
    cost
}

/// Fraction of a kernel's counted accesses the *producer* (`_load`)
/// stage of a channeled two-stage variant issues. The producer streams
/// the `b` operand into the FIFO; the consumer keeps every other operand
/// as a direct argument and issues the writes:
///
/// * COPY / SCALE / PTRANS — one read feeds one write: an even split;
/// * ADD / TRIAD — the consumer reads `c` *and* writes `a`, so it does
///   two of every three accesses;
/// * GUPS — the consumer's read-modify-write of the hashed slot is two
///   of three accesses;
/// * DGEMM-lite — the producer re-streams a `b` row per output element
///   (K reads) while the consumer reads the `c` column (K) and writes
///   once: K of 2K+1.
pub fn producer_fraction(cfg: &kernelgen::KernelConfig) -> f64 {
    use kernelgen::Op;
    match cfg.op {
        Op::Copy | Op::Scale | Op::Ptrans => 0.5,
        Op::Add | Op::Triad | Op::RandomAccess => 1.0 / 3.0,
        Op::DgemmLite => {
            let (_, k) = cfg.matrix_shape();
            k as f64 / (2 * k + 1) as f64
        }
    }
}

/// Timing overlay for a channeled producer→consumer kernel pair.
///
/// The two stages run concurrently, so the steady state is paced by the
/// slower side of the memory work split ([`producer_fraction`]); on top
/// of that the consumer idles until the FIFO first fills
/// (`min(depth, n)` elements at `per_elem_ns` each). The imbalance
/// between the sides is the time the faster one spends blocked on the
/// FIFO — full writes for a fast producer, empty reads for a fast
/// consumer — reported as the stall term.
///
/// Returns `(ns, stall_ns)`, or `None` for single-stage kernels.
pub fn channel_overlay(
    cfg: &kernelgen::KernelConfig,
    base_ns: f64,
    per_elem_ns: f64,
) -> Option<(f64, f64)> {
    let ch = cfg.channel?;
    let producer = base_ns * producer_fraction(cfg);
    let consumer = base_ns - producer;
    let fill_elems = (ch.depth as u64).min(cfg.n_vectors()) as f64;
    let ns = producer.max(consumer) + fill_elems * per_elem_ns;
    Some((ns, (producer - consumer).abs()))
}

/// Compute-roofline clamp for DGEMM-lite: `n · 2K` multiply-adds cannot
/// finish faster than the device's arithmetic throughput allows, however
/// well the memory system streams. Identity for every other op.
pub fn dgemm_roofline_ns(cfg: &kernelgen::KernelConfig, mem_ns: f64, flops_per_ns: f64) -> f64 {
    if cfg.op != kernelgen::Op::DgemmLite || flops_per_ns <= 0.0 {
        return mem_ns;
    }
    let (_, k) = cfg.matrix_shape();
    let flops = (cfg.n_vectors() * 2 * k) as f64;
    mem_ns.max(flops / flops_per_ns)
}

/// Convert a kernel-side access record into the simulator's request type
/// (structurally identical; kept separate to avoid a dependency cycle).
pub fn to_mem(a: memaccess::Access) -> Access {
    Access {
        addr: a.addr,
        bytes: a.bytes,
        kind: match a.kind {
            memaccess::AccessKind::Read => AccessKind::Read,
            memaccess::AccessKind::Write => AccessKind::Write,
        },
    }
}

/// Run a kernel plan's access stream through a memory hierarchy.
///
/// * `lane_group` — how many consecutive iterations are emitted in
///   lock-step (warp width / LSU burst buffer / unroll replication);
/// * `coalescer` — optional request coalescing between the kernel and
///   the hierarchy (GPU segments, FPGA LSU bursts);
/// * `sample_cap` — at most this many *kernel-side* accesses are
///   simulated; longer streams are extrapolated linearly from the
///   simulated prefix (streaming workloads are steady-state).
pub fn run_plan(
    hierarchy: &mut MemHierarchy,
    plan: &ExecPlan,
    lane_group: u32,
    coalescer: Option<Coalescer>,
    sample_cap: u64,
) -> StreamOutcome {
    let total = total_accesses(&plan.cfg);
    let take = total.min(sample_cap.max(1));
    let mut out = if memsim::slowpath::slow() {
        // Reference pipeline: per-access iterator chain plus the
        // allocating coalescer adapter, exactly as originally written.
        let stream = access_stream(plan, lane_group)
            .take(take as usize)
            .map(to_mem);
        match coalescer {
            Some(co) => hierarchy.run(co.coalesce(stream)),
            None => hierarchy.run(stream),
        }
    } else if let Some(co) = BurstStream::applies(plan, lane_group, coalescer) {
        // Fused pipeline: for a contiguous traversal whose coalescing
        // window equals the lane group, every window is exactly one
        // instruction's unit-stride run, so the coalesced bursts are a
        // closed-form function of the run geometry. Emits the identical
        // burst sequence the reference chain produces (asserted by
        // `burst_stream_matches_reference_chain` below) at per-burst
        // instead of per-access cost.
        hierarchy.run(BurstStream::new(plan, lane_group, take, co))
    } else {
        // Fast pipeline: batch-generate the access stream and reuse the
        // coalescer's buffers. Produces the identical request sequence
        // (asserted by `fast_and_slow_pipelines_match` below and by the
        // memsim equivalence suite), so `ns` stays bit-identical.
        let stream = BatchedStream::new(access_stream(plan, lane_group), take);
        match coalescer {
            Some(co) => hierarchy.run(co.coalesce_buffered(stream)),
            None => hierarchy.run(stream),
        }
    };
    if take < total {
        let scale = total as f64 / take as f64;
        out.ns *= scale;
        let scaled = |x: u64| (x as f64 * scale) as u64;
        out.stats.dram_bytes = scaled(out.stats.dram_bytes);
        out.stats.dram_transactions = scaled(out.stats.dram_transactions);
        out.stats.row_hits = scaled(out.stats.row_hits);
        out.stats.row_misses = scaled(out.stats.row_misses);
        out.stats.row_empty = scaled(out.stats.row_empty);
    }
    out.simulated_accesses = take;
    out
}

/// How many accesses [`BatchedStream`] generates per refill. Large
/// enough to amortize the per-chunk bookkeeping, small enough to stay
/// resident in L1.
const GEN_CHUNK: usize = 1024;

/// Iterator over a plan's converted access stream that generates in
/// [`GEN_CHUNK`] batches through [`kernelgen::access::AccessStream::fill`]
/// instead of one `next()` dispatch per access. Emits exactly the
/// sequence of the reference chain
/// `access_stream(..).take(take).map(to_mem)`.
struct BatchedStream {
    src: kernelgen::access::AccessStream,
    buf: Vec<memaccess::Access>,
    cursor: usize,
    remaining: u64,
}

impl BatchedStream {
    fn new(src: kernelgen::access::AccessStream, take: u64) -> Self {
        BatchedStream {
            src,
            buf: Vec::with_capacity(GEN_CHUNK),
            cursor: 0,
            remaining: take,
        }
    }
}

impl Iterator for BatchedStream {
    type Item = Access;

    #[inline]
    fn next(&mut self) -> Option<Access> {
        if self.cursor == self.buf.len() {
            if self.remaining == 0 {
                return None;
            }
            self.buf.clear();
            self.cursor = 0;
            let want = (GEN_CHUNK as u64).min(self.remaining) as usize;
            if self.src.fill(&mut self.buf, want) == 0 {
                self.remaining = 0;
                return None;
            }
        }
        let a = self.buf[self.cursor];
        self.cursor += 1;
        self.remaining -= 1;
        Some(to_mem(a))
    }
}

/// Closed-form generator of the *coalesced* burst sequence for the
/// FPGA-LSU shape: contiguous traversal, [`CoalesceMode::Extent`]
/// merging, and a coalescing window equal to the lane group.
///
/// Under those conditions every coalescing window is exactly one
/// instruction's unit-stride run of `lane_group` accesses (window
/// boundaries never merge, and runs of different arrays or directions
/// never abut), so each window independently collapses to
/// `ceil(lane_group / floor(segment_bytes / vector_bytes))` bursts whose
/// addresses and lengths follow directly from the run geometry — no
/// per-access work at all.
struct BurstStream {
    /// Bytes per vector element.
    vb: u64,
    /// Elements per instruction run (= lane group = coalescing window).
    lane: u64,
    /// Elements one burst may carry: `max(1, segment_bytes / vb)`.
    elems_per_burst: u64,
    base_a: u64,
    base_b: u64,
    base_c: Option<u64>,
    /// Traversal position of the current run's first element.
    group_start: u64,
    /// 0 = read b, 1 = read c (if present), 2 = write a.
    instr: u8,
    /// Elements of the current run already covered by emitted bursts.
    run_elem: u64,
    /// Pre-coalesce accesses still to cover (the `take` budget).
    remaining: u64,
}

impl BurstStream {
    /// The coalescer when the fused path applies to this launch shape,
    /// `None` when the generic pipeline must run instead. The lane
    /// group must divide the traversal so every window is one full run
    /// (the final window may still be truncated by the sample cap,
    /// which shortens a run but never misaligns one).
    fn applies(
        plan: &ExecPlan,
        lane_group: u32,
        coalescer: Option<Coalescer>,
    ) -> Option<Coalescer> {
        let co = coalescer?;
        let contiguous = matches!(plan.cfg.pattern, kernelgen::AccessPattern::Contiguous);
        // Only the STREAM triple-run shape (read b [, read c], write a,
        // all unit-stride) collapses to closed-form bursts; the HPCC
        // family's scatter/transpose/matmul streams take the generic
        // pipeline.
        (plan.cfg.op.is_stream()
            && co.mode == memsim::CoalesceMode::Extent
            && contiguous
            && co.window == lane_group as usize
            && plan.cfg.n_vectors().is_multiple_of(lane_group as u64))
        .then_some(co)
    }

    fn new(plan: &ExecPlan, lane_group: u32, take: u64, co: Coalescer) -> Self {
        let vb = plan.cfg.vector_bytes();
        BurstStream {
            vb,
            lane: lane_group as u64,
            elems_per_burst: (co.segment_bytes as u64 / vb).max(1),
            base_a: plan.base_a,
            base_b: plan.base_b,
            base_c: plan.cfg.op.uses_c().then_some(plan.base_c),
            group_start: 0,
            instr: 0,
            run_elem: 0,
            remaining: take,
        }
    }
}

impl Iterator for BurstStream {
    type Item = Access;

    #[inline]
    fn next(&mut self) -> Option<Access> {
        loop {
            if self.remaining == 0 {
                return None;
            }
            let avail = (self.lane - self.run_elem).min(self.remaining);
            if avail == 0 {
                // Run exhausted: next instruction, then next lane group.
                self.run_elem = 0;
                self.instr = match (self.instr, self.base_c.is_some()) {
                    (0, true) => 1,
                    (0, false) => 2,
                    (1, _) => 2,
                    _ => {
                        self.group_start += self.lane;
                        0
                    }
                };
                continue;
            }
            let (base, kind) = match self.instr {
                0 => (self.base_b, AccessKind::Read),
                1 => (
                    self.base_c.expect("instr 1 only when c present"),
                    AccessKind::Read,
                ),
                _ => (self.base_a, AccessKind::Write),
            };
            let count = self.elems_per_burst.min(avail);
            let addr = base + (self.group_start + self.run_elem) * self.vb;
            self.run_elem += count;
            self.remaining -= count;
            return Some(Access {
                addr,
                bytes: (count * self.vb) as u32,
                kind,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernelgen::{KernelConfig, StreamOp};
    use memsim::{
        CacheConfig, DramConfig, MemHierarchyConfig, PrefetchConfig, TlbConfig, WritePolicy,
    };

    fn hierarchy() -> MemHierarchy {
        MemHierarchy::new(MemHierarchyConfig {
            caches: vec![CacheConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                line_bytes: 64,
            }],
            hit_ns: vec![0.1],
            tlb: Some(TlbConfig {
                entries: 64,
                page_bytes: 4096,
                walk_ns: 20.0,
            }),
            prefetch: Some(PrefetchConfig { degree: 16 }),
            dram: DramConfig::ddr3_quad_channel(),
            issue_bytes_per_ns: 16.0,
            issue_ns_per_access: 0.0,
            mlp: 8,
            dram_extra_latency_ns: 40.0,
            write_policy: WritePolicy::Streaming,
            wc_flush_bytes: 512,
        })
    }

    /// Serializes the tests that flip the process-wide slow-path mode,
    /// so one test's `force` cannot land inside another's comparison.
    static SLOW_MODE: Mutex<()> = Mutex::new(());

    fn plan(n: u64) -> ExecPlan {
        let cfg = KernelConfig::baseline(StreamOp::Copy, n);
        let bytes = cfg.array_bytes();
        ExecPlan::new(cfg, 4096, 4096 + bytes, 8192 + 2 * bytes)
    }

    #[test]
    fn kind_conversion() {
        let r = to_mem(memaccess::Access {
            addr: 1,
            bytes: 4,
            kind: memaccess::AccessKind::Read,
        });
        assert_eq!(r.kind, AccessKind::Read);
        let w = to_mem(memaccess::Access {
            addr: 1,
            bytes: 4,
            kind: memaccess::AccessKind::Write,
        });
        assert_eq!(w.kind, AccessKind::Write);
    }

    #[test]
    fn full_run_counts_all_accesses() {
        let p = plan(1 << 12);
        let out = run_plan(&mut hierarchy(), &p, 1, None, u64::MAX);
        assert_eq!(out.simulated_accesses, 2 << 12);
    }

    #[test]
    fn sampled_run_extrapolates() {
        let p = plan(1 << 16);
        let full = run_plan(&mut hierarchy(), &p, 1, None, u64::MAX);
        let sampled = run_plan(&mut hierarchy(), &p, 1, None, 1 << 14);
        let ratio = sampled.ns / full.ns;
        assert!(ratio > 0.7 && ratio < 1.4, "ratio {ratio}");
    }

    #[test]
    fn memo_caches_per_key_and_slow_mode_bypasses() {
        use memsim::MemStats;
        let _guard = SLOW_MODE.lock().unwrap();
        let was_slow = memsim::slowpath::slow();
        memsim::slowpath::force(false);
        let cost = KernelCost {
            ns: 123.456,
            dram_bytes: 789,
            stats: MemStats::new(),
            stall_ns: 0.0,
        };
        let key = "test-device|memo_caches_per_key".to_string();
        let mut calls = 0u32;
        let first = memoized_kernel_cost(key.clone(), || {
            calls += 1;
            cost.clone()
        });
        let second = memoized_kernel_cost(key.clone(), || {
            calls += 1;
            cost.clone()
        });
        assert_eq!(calls, 1, "second lookup must hit the memo");
        assert_eq!(first, second);
        assert_eq!(first.ns.to_bits(), cost.ns.to_bits());

        memsim::slowpath::force(true);
        memoized_kernel_cost(key, || {
            calls += 1;
            cost.clone()
        });
        assert_eq!(calls, 2, "slow mode must recompute every launch");
        memsim::slowpath::force(was_slow);
    }

    #[test]
    fn cost_keys_separate_devices_and_plans() {
        let art = BuildArtifact {
            build_log: "a very long synthesis report that must not leak into keys".into(),
            fmax_mhz: Some(290.0),
            resources: None,
            lane_group: 64,
            synthesis_ns: 1.0,
        };
        let p1 = plan(1 << 12);
        let p2 = plan(1 << 13);
        let k1 = cost_key("aocl", &"t", &art, &p1);
        let k2 = cost_key("aocl", &"t", &art, &p2);
        let k3 = cost_key("hmc", &"t", &art, &p1);
        assert_ne!(k1, k2, "different plans");
        assert_ne!(k1, k3, "different devices");
        assert!(!k1.contains("synthesis report"), "logs stay out of keys");
    }

    #[test]
    fn burst_stream_matches_reference_chain() {
        for op in [StreamOp::Copy, StreamOp::Triad, StreamOp::Scale] {
            for width in [1u32, 4, 16] {
                for (cap_bytes, lane) in [(1024, 64), (512, 16), (32, 8), (4, 16)] {
                    for take_frac in [u64::MAX, 1000, 999, 64, 1] {
                        let mut cfg = KernelConfig::baseline(op, 1 << 10);
                        cfg.vector_width = kernelgen::VectorWidth::new(width).unwrap();
                        let bytes = cfg.array_bytes();
                        let p = ExecPlan::new(cfg, 4096, 4096 + bytes, 8192 + 2 * bytes);
                        let co = Coalescer::extent(cap_bytes, lane as usize);
                        assert!(BurstStream::applies(&p, lane, Some(co)).is_some());
                        let total = total_accesses(&p.cfg);
                        let take = total.min(take_frac);
                        let reference: Vec<Access> = co
                            .coalesce(access_stream(&p, lane).take(take as usize).map(to_mem))
                            .collect();
                        let fused: Vec<Access> = BurstStream::new(&p, lane, take, co).collect();
                        assert_eq!(
                            fused, reference,
                            "{op:?} width={width} cap={cap_bytes} lane={lane} take={take}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn burst_stream_applicability_gates() {
        let p = plan(1 << 10);
        let ext = Coalescer::extent(512, 16);
        assert!(BurstStream::applies(&p, 16, Some(ext)).is_some());
        // Window != lane group, aligned mode, no coalescer, non-contiguous
        // pattern, or a lane group that does not divide the traversal all
        // fall back to the generic pipeline.
        assert!(BurstStream::applies(&p, 8, Some(ext)).is_none());
        assert!(BurstStream::applies(&p, 16, Some(Coalescer::new(512, 16))).is_none());
        assert!(BurstStream::applies(&p, 16, None).is_none());
        assert!(BurstStream::applies(&p, 48, Some(Coalescer::extent(512, 48))).is_none());
        let mut cfg = KernelConfig::baseline(StreamOp::Copy, 1 << 10);
        cfg.pattern = kernelgen::AccessPattern::Strided { stride: 4 };
        let bytes = cfg.array_bytes();
        let strided = ExecPlan::new(cfg, 0, bytes, 2 * bytes);
        assert!(BurstStream::applies(&strided, 16, Some(ext)).is_none());
    }

    #[test]
    fn fast_and_slow_pipelines_match() {
        let _guard = SLOW_MODE.lock().unwrap();
        let was_slow = memsim::slowpath::slow();
        let co_cases = [
            None,
            Some(Coalescer::extent(512, 16)),
            Some(Coalescer::extent(512, 32)),
            Some(Coalescer::new(128, 32)),
        ];
        for co in co_cases {
            for lane in [1, 8, 32] {
                for cap in [u64::MAX, 1 << 10, 777] {
                    let p = plan(1 << 11);
                    memsim::slowpath::force(true);
                    let slow = run_plan(&mut hierarchy(), &p, lane, co, cap);
                    memsim::slowpath::force(false);
                    let fast = run_plan(&mut hierarchy(), &p, lane, co, cap);
                    memsim::slowpath::force(was_slow);
                    assert_eq!(
                        fast.ns.to_bits(),
                        slow.ns.to_bits(),
                        "co={co:?} lane={lane} cap={cap}"
                    );
                    assert_eq!(fast.stats, slow.stats, "co={co:?} lane={lane} cap={cap}");
                    assert_eq!(fast.simulated_accesses, slow.simulated_accesses);
                }
            }
        }
    }

    #[test]
    fn hpcc_ops_fall_back_to_the_generic_pipeline() {
        for op in kernelgen::Op::HPCC {
            let mut cfg = KernelConfig::baseline(op, 1 << 10);
            cfg.dtype = kernelgen::DataType::I32;
            let bytes = cfg.array_bytes();
            let p = ExecPlan::new(cfg, 4096, 4096 + bytes, 8192 + 2 * bytes);
            let ext = Coalescer::extent(512, 16);
            assert!(
                BurstStream::applies(&p, 16, Some(ext)).is_none(),
                "{op:?} must not take the fused burst path"
            );
        }
    }

    #[test]
    fn producer_fraction_splits_by_op_shape() {
        let frac = |op| producer_fraction(&KernelConfig::baseline(op, 1 << 10));
        assert_eq!(frac(kernelgen::Op::Copy), 0.5);
        assert_eq!(frac(kernelgen::Op::Ptrans), 0.5);
        assert!((frac(kernelgen::Op::Triad) - 1.0 / 3.0).abs() < 1e-12);
        assert!((frac(kernelgen::Op::RandomAccess) - 1.0 / 3.0).abs() < 1e-12);
        // 1024 elements -> 32x32 view -> K=32 -> 32/65.
        let d = frac(kernelgen::Op::DgemmLite);
        assert!((d - 32.0 / 65.0).abs() < 1e-12, "{d}");
    }

    #[test]
    fn channel_overlay_paces_on_the_slow_side() {
        let mut cfg = KernelConfig::baseline(StreamOp::Copy, 1 << 10);
        assert!(
            channel_overlay(&cfg, 1000.0, 1.0).is_none(),
            "single-stage kernels have no overlay"
        );
        cfg.channel = Some(kernelgen::ChannelSpec { depth: 16 });
        let (ns, stall) = channel_overlay(&cfg, 1000.0, 1.0).unwrap();
        // Even split: both sides take 500 ns, plus a 16-element fill.
        assert!((ns - 516.0).abs() < 1e-9, "{ns}");
        assert!(stall.abs() < 1e-9, "balanced copy has no stall: {stall}");

        cfg.op = StreamOp::Triad;
        let (ns, stall) = channel_overlay(&cfg, 900.0, 1.0).unwrap();
        // Producer 300 ns, consumer 600 ns: consumer-bound, producer
        // blocked for the 300 ns difference.
        assert!((ns - 616.0).abs() < 1e-9, "{ns}");
        assert!((stall - 300.0).abs() < 1e-9, "{stall}");

        // The fill term is capped by the traversal length.
        let mut tiny = KernelConfig::baseline(StreamOp::Copy, 4);
        tiny.channel = Some(kernelgen::ChannelSpec { depth: 1024 });
        let (ns, _) = channel_overlay(&tiny, 10.0, 1.0).unwrap();
        assert!((ns - 9.0).abs() < 1e-9, "fill caps at n=4: {ns}");
    }

    #[test]
    fn dgemm_roofline_clamps_only_dgemm() {
        let copy = KernelConfig::baseline(StreamOp::Copy, 1 << 10);
        assert_eq!(dgemm_roofline_ns(&copy, 100.0, 1.0), 100.0);
        let mut dg = KernelConfig::baseline(kernelgen::Op::DgemmLite, 1 << 10);
        dg.dtype = kernelgen::DataType::I32;
        // 1024 outputs x 2K (K=32) = 65536 flops; at 1 flop/ns that
        // dominates a 100 ns memory estimate.
        assert_eq!(dgemm_roofline_ns(&dg, 100.0, 1.0), 65536.0);
        // A fast-enough datapath leaves the memory bound in charge.
        assert_eq!(dgemm_roofline_ns(&dg, 100.0, 1e9), 100.0);
    }

    #[test]
    fn coalescer_reduces_dram_transactions() {
        let p = plan(1 << 12);
        let co = Coalescer::extent(512, 16);
        let without = run_plan(&mut hierarchy(), &p, 16, None, u64::MAX);
        let with = run_plan(&mut hierarchy(), &p, 16, Some(co), u64::MAX);
        // Both go through caches at line granularity, so DRAM traffic is
        // similar, but the coalesced stream is never slower.
        assert!(with.ns <= without.ns * 1.05);
    }
}
