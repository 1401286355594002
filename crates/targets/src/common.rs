//! Helpers shared by all device backends.

use kernelgen::access::memaccess;
use kernelgen::{access_stream, total_accesses, ExecPlan};
use memsim::{Access, AccessKind, Coalescer, MemHierarchy, MemHierarchyConfig, StreamOutcome};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::sync::Mutex;

/// Entries the stream memo holds before wholesale eviction. A sweep adds
/// at most one entry per distinct (device, config) pair, and one for all
/// the pairs that share a stream — a few hundred for the paper's full
/// space — so the cap only guards against unbounded growth in
/// pathological DSE campaigns.
const MEMO_CAP: usize = 8192;

/// 128-bit FNV-1a digest of a memo key. The memo keeps this instead of
/// the key string, which runs to hundreds of bytes; for its at most
/// [`MEMO_CAP`] live keys, the birthday bound on an accidental collision
/// is below 2^-100.
fn digest(key: &str) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    key.bytes()
        .fold(OFFSET, |h, b| (h ^ u128::from(b)).wrapping_mul(PRIME))
}

/// A process-wide memo from the [`digest`] of a key to a stream outcome,
/// cleared wholesale once it holds [`MEMO_CAP`] entries. The lock is not
/// held while a value is computed, so workers simulate concurrently; two
/// that miss on the same key both compute it, with identical results.
struct Memo(Mutex<HashMap<u128, StreamOutcome, BuildHasherDefault<DefaultHasher>>>);

impl Memo {
    const fn new() -> Self {
        Memo(Mutex::new(HashMap::with_hasher(BuildHasherDefault::new())))
    }

    fn get_or_compute(&self, key: &str, compute: impl FnOnce() -> StreamOutcome) -> StreamOutcome {
        let digest = digest(key);
        if let Some(hit) = self.0.lock().expect("memo lock").get(&digest) {
            return hit.clone();
        }
        let value = compute();
        let mut memo = self.0.lock().expect("memo lock");
        if memo.len() >= MEMO_CAP {
            memo.clear();
        }
        memo.insert(digest, value.clone());
        value
    }
}

/// [`run_plan`] outcomes per [`stream_key`].
static STREAM_MEMO: Memo = Memo::new();

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
/// Both stages share one DRAM, so the overlaid time never drops below
/// `dram_floor_ns`: the launch's DRAM bytes over the device's peak. A
/// FIFO saves round trips through global memory, not DRAM bandwidth.
///
/// Returns `(ns, stall_ns)`, or `None` for single-stage kernels.
pub fn channel_overlay(
    cfg: &kernelgen::KernelConfig,
    base_ns: f64,
    per_elem_ns: f64,
    dram_floor_ns: f64,
) -> Option<(f64, f64)> {
    let ch = cfg.channel?;
    let producer = base_ns * producer_fraction(cfg);
    let consumer = base_ns - producer;
    let fill_elems = (ch.depth as u64).min(cfg.n_vectors()) as f64;
    let ns = (producer.max(consumer) + fill_elems * per_elem_ns).max(dram_floor_ns);
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

/// Run a kernel plan's access stream through a cold memory hierarchy
/// built from `hierarchy`.
///
/// * `lane_group` — how many consecutive iterations are emitted in
///   lock-step (warp width / LSU burst buffer / unroll replication);
/// * `coalescer` — optional request coalescing between the kernel and
///   the hierarchy (GPU segments, FPGA LSU bursts);
/// * `sample_cap` — at most this many *kernel-side* accesses are
///   simulated; longer streams are extrapolated linearly from the
///   simulated prefix (streaming workloads are steady-state).
///
/// Extrapolation scales and truncates each DRAM counter on its own, so on
/// a sampled run `row_hits + row_misses + row_empty` may fall up to 2
/// short of `dram_transactions`; on an unsampled run they sum exactly.
///
/// The outcome is memoized process-wide under a key made of everything
/// the hierarchy sees: its configuration, the coalescer, the sample size,
/// the nominal stream length and the initial state of the access or
/// burst generator. This one memo answers both a point's repeated
/// launches and every plan whose hierarchy would see the same stream.
/// Under `MPSTREAM_SIM_SLOW=1`, which is read here and nowhere else, the
/// reference pipeline and engine run instead, unmemoized.
pub fn run_plan(
    hierarchy: MemHierarchyConfig,
    plan: &ExecPlan,
    lane_group: u32,
    coalescer: Option<Coalescer>,
    sample_cap: u64,
) -> StreamOutcome {
    let total = total_accesses(&plan.cfg);
    let take = total.min(sample_cap.max(1));
    if memsim::slowpath::slow() {
        // Reference pipeline and engine: per-access iterator chain plus
        // the allocating coalescer adapter, exactly as originally written.
        let stream = access_stream(plan, lane_group)
            .take(take as usize)
            .map(to_mem);
        #[cfg(test)]
        REFERENCE_RUNS.with(|n| n.set(n.get() + 1));
        let mut h = MemHierarchy::new(hierarchy);
        let out = match coalescer {
            Some(co) => h.run_reference(co.coalesce(stream)),
            None => h.run_reference(stream),
        };
        return extrapolate(out, take, total);
    }
    if let Some(co) = BurstStream::applies(plan, lane_group, coalescer) {
        // Fused pipeline: for a contiguous traversal whose coalescing
        // window equals the lane group, every window is exactly one
        // instruction's unit-stride run, so the coalesced bursts are a
        // closed-form function of the run geometry. Emits the identical
        // burst sequence the reference chain produces (asserted by
        // `burst_stream_matches_reference_chain` below) at per-burst
        // instead of per-access cost.
        let bursts = BurstStream::new(plan, lane_group, take, co);
        let key = stream_key(&hierarchy, coalescer, take, total, &bursts);
        STREAM_MEMO.get_or_compute(&key, || {
            extrapolate(simulate(hierarchy, bursts), take, total)
        })
    } else {
        // Fast pipeline: batch-generate the access stream and reuse the
        // coalescer's buffers. Produces the identical request sequence
        // (asserted by `fast_and_slow_pipelines_match` below and by the
        // memsim equivalence suite), so `ns` stays bit-identical.
        let accesses = access_stream(plan, lane_group);
        let key = stream_key(&hierarchy, coalescer, take, total, &accesses);
        STREAM_MEMO.get_or_compute(&key, || {
            let stream = BatchedStream::new(accesses, take);
            let out = match coalescer {
                Some(co) => simulate(hierarchy, co.coalesce_buffered(stream)),
                None => simulate(hierarchy, stream),
            };
            extrapolate(out, take, total)
        })
    }
}

/// The stream memo key: the hierarchy's configuration, the
/// coalescer, the sample `take`, the nominal `total` and the initial
/// state of the generator that feeds the hierarchy, all rendered with
/// derived `Debug` (a field added to any of them joins the key).
///
/// It is complete because a cold hierarchy is a deterministic function
/// of its configuration and its input sequence, and the generator — a
/// deterministic state machine — fixes that sequence from its initial
/// state, as the coalescer and `take` fix what reaches the hierarchy.
/// `total` fixes the extrapolation. Fields of the plan that the generator
/// does not hold, such as the unroll factor, cannot change what the
/// hierarchy sees, so they stay out of the key.
fn stream_key(
    hierarchy: &MemHierarchyConfig,
    coalescer: Option<Coalescer>,
    take: u64,
    total: u64,
    generator: &impl std::fmt::Debug,
) -> String {
    format!("{hierarchy:?}|{coalescer:?}|take={take}|total={total}|{generator:?}")
}

#[cfg(test)]
thread_local! {
    /// Fast-path hierarchy runs on this thread, counted for the memo tests.
    static SIMULATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Reference-engine runs on this thread, counted for the slow-mode test.
    static REFERENCE_RUNS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Run `stream` through a cold hierarchy on the fast engine.
fn simulate(hierarchy: MemHierarchyConfig, stream: impl Iterator<Item = Access>) -> StreamOutcome {
    #[cfg(test)]
    SIMULATIONS.with(|n| n.set(n.get() + 1));
    MemHierarchy::new(hierarchy).run(stream)
}

/// Scale a run of the first `take` of `total` accesses up to the whole
/// stream.
fn extrapolate(mut out: StreamOutcome, take: u64, total: u64) -> StreamOutcome {
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
#[derive(Debug)]
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
    use kernelgen::{AccessPattern, KernelConfig, LoopMode, StreamOp, VectorWidth};
    use memsim::{CacheConfig, DramConfig, PrefetchConfig, TlbConfig, WritePolicy};
    use mpcl::backend::DeviceBackend;

    fn hierarchy() -> MemHierarchyConfig {
        MemHierarchyConfig {
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
        }
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
        let out = run_plan(hierarchy(), &p, 1, None, u64::MAX);
        assert_eq!(out.simulated_accesses, 2 << 12);
    }

    #[test]
    fn sampled_run_extrapolates() {
        let p = plan(1 << 16);
        let full = run_plan(hierarchy(), &p, 1, None, u64::MAX);
        let sampled = run_plan(hierarchy(), &p, 1, None, 1 << 14);
        let ratio = sampled.ns / full.ns;
        assert!(ratio > 0.7 && ratio < 1.4, "ratio {ratio}");
    }

    /// Fast-path hierarchy runs `f` makes on this thread.
    fn simulations(f: impl FnOnce()) -> u64 {
        let before = SIMULATIONS.with(|n| n.get());
        f();
        SIMULATIONS.with(|n| n.get()) - before
    }

    /// A plan on buffers at `base`, an address no other test uses, so no
    /// entry another test left in the process-wide memos can answer it.
    fn plan_at(cfg: KernelConfig, base: u64) -> ExecPlan {
        let bytes = cfg.array_bytes();
        ExecPlan::new(cfg, base, base + bytes, base + 2 * bytes)
    }

    #[test]
    fn digest_matches_published_fnv1a_128_vectors() {
        assert_eq!(digest(""), 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d);
        assert_eq!(digest("a"), 0xd228_cb69_6f1a_8caf_7891_2b70_4e4a_8964);
    }

    #[test]
    fn unroll_factors_share_one_hierarchy_run() {
        let _guard = SLOW_MODE.lock().unwrap();
        let was_slow = memsim::slowpath::slow();
        memsim::slowpath::force(false);
        let mut cpu = crate::cpu::CpuBackend::new();
        let mut costs = Vec::new();
        let runs = simulations(|| {
            for unroll in [1, 2] {
                let mut cfg = KernelConfig::baseline(StreamOp::Copy, 1 << 12);
                cfg.pattern = AccessPattern::ColMajor { cols: None };
                cfg.unroll = unroll;
                let art = cpu.build(&cfg).unwrap();
                costs.push(cpu.kernel_cost(&art, &plan_at(cfg, 0x5eed_0000_0000)));
            }
        });
        memsim::slowpath::force(was_slow);
        assert_eq!(runs, 1, "unroll 2 must reuse unroll 1's hierarchy run");
        assert_eq!(costs[0], costs[1]);
    }

    #[test]
    fn stream_memo_splits_on_everything_the_hierarchy_sees() {
        let _guard = SLOW_MODE.lock().unwrap();
        let was_slow = memsim::slowpath::slow();
        memsim::slowpath::force(false);
        // The generic and the fused pipeline, each on its own buffers.
        let pipelines = [
            (Coalescer::new(128, 16), 0xa11c_e000_0000),
            (Coalescer::extent(512, 16), 0xb0b0_0000_0000),
        ];
        for (co, base) in pipelines {
            let p = plan_at(KernelConfig::baseline(StreamOp::Copy, 1 << 10), base);
            let run = |h: MemHierarchyConfig, p: &ExecPlan, co: Option<Coalescer>, cap: u64| {
                simulations(|| {
                    run_plan(h, p, 16, co, cap);
                })
            };
            let first = run(hierarchy(), &p, Some(co), 1000);
            let repeat = run(hierarchy(), &p, Some(co), 1000);
            assert_eq!((first, repeat), (1, 0), "{co:?}: only the repeat hits");

            let mut mlp = hierarchy();
            mlp.mlp += 1;
            let mut latency = hierarchy();
            latency.dram_extra_latency_ns = f64::from_bits(40f64.to_bits() + 1);
            let mut moved = p.clone();
            moved.base_b += 64;
            let other_co = Coalescer::new(64, 16);
            let variants = [
                ("mlp", mlp, &p, Some(co), 1000),
                ("f64 latency, one ulp", latency, &p, Some(co), 1000),
                ("base_b", hierarchy(), &moved, Some(co), 1000),
                ("take", hierarchy(), &p, Some(co), 999),
                ("no coalescer", hierarchy(), &p, None, 1000),
                ("other coalescer", hierarchy(), &p, Some(other_co), 1000),
            ];
            for (what, h, plan, co, cap) in variants {
                assert_eq!(run(h, plan, co, cap), 1, "{what} must not share an entry");
            }
        }
        memsim::slowpath::force(was_slow);
    }

    #[test]
    fn slow_mode_runs_the_reference_engine_past_a_filled_memo() {
        let _guard = SLOW_MODE.lock().unwrap();
        let was_slow = memsim::slowpath::slow();
        // The generic and the fused pipeline, each on its own buffers.
        let pipelines = [
            (Coalescer::new(128, 16), 0x510e_0000_0000),
            (Coalescer::extent(512, 16), 0x510f_0000_0000),
        ];
        for (co, base) in pipelines {
            let p = plan_at(KernelConfig::baseline(StreamOp::Copy, 1 << 10), base);
            memsim::slowpath::force(false);
            let fast = run_plan(hierarchy(), &p, 16, Some(co), u64::MAX);
            let hits = simulations(|| {
                run_plan(hierarchy(), &p, 16, Some(co), u64::MAX);
            });
            assert_eq!(hits, 0, "{co:?}: the fast path fills the memo");
            memsim::slowpath::force(true);
            let before = REFERENCE_RUNS.with(|n| n.get());
            let slow = [(); 2].map(|()| run_plan(hierarchy(), &p, 16, Some(co), u64::MAX));
            let reference_runs = REFERENCE_RUNS.with(|n| n.get()) - before;
            memsim::slowpath::force(was_slow);
            assert_eq!(reference_runs, 2, "{co:?}: slow mode must bypass the memo");
            for out in slow {
                assert_eq!(out.ns.to_bits(), fast.ns.to_bits(), "{co:?}");
                assert_eq!(out.stats, fast.stats, "{co:?}");
            }
        }
    }

    /// Target `0..4` (CPU, GPU, AOCL, SDAccel) with its default tuning
    /// but the given simulation sample cap.
    fn backend(target: usize, sample_cap: u64) -> Box<dyn DeviceBackend> {
        match target {
            0 => Box::new(crate::cpu::CpuBackend::with_tuning(crate::cpu::CpuTuning {
                sample_cap,
                ..Default::default()
            })),
            1 => Box::new(crate::gpu::GpuBackend::with_tuning(crate::gpu::GpuTuning {
                sample_cap,
                ..Default::default()
            })),
            2 => Box::new(crate::aocl::AoclBackend::with_tuning(
                crate::aocl::AoclTuning {
                    sample_cap,
                    ..Default::default()
                },
            )),
            _ => Box::new(crate::sdaccel::SdaccelBackend::with_tuning(
                crate::sdaccel::SdaccelTuning {
                    sample_cap,
                    ..Default::default()
                },
            )),
        }
    }

    /// A SplitMix64 picker: each call returns a value in `0..n`.
    fn picker(seed: u64) -> impl FnMut(usize) -> usize {
        let mut state = seed;
        move |n: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    #[test]
    fn row_counters_sum_to_dram_transactions_within_the_extrapolation_bound() {
        let mut pick = picker(0x00C0_FFEE_0005);
        for i in 0..32 {
            let target = i % 4;
            let op = kernelgen::Op::FAMILIES[pick(kernelgen::Op::FAMILIES.len())];
            let sampled = i % 8 < 4;
            let mut cfg = KernelConfig::baseline(op, if sampled { 1 << 14 } else { 1 << 10 });
            cfg.loop_mode = LoopMode::ALL[pick(3)];
            if op.is_stream() {
                cfg.vector_width = VectorWidth::new([1, 2, 4][pick(3)]).unwrap();
                cfg.pattern = [
                    AccessPattern::Contiguous,
                    AccessPattern::ColMajor { cols: None },
                    AccessPattern::Strided { stride: 4 },
                ][pick(3)];
            }
            let cap = if sampled { 1500 } else { u64::MAX };
            let mut b = backend(target, cap);
            let art = b.build(&cfg).unwrap();
            let plan = plan_at(cfg, 4096);
            let s = b.kernel_cost(&art, &plan).stats;
            let rows = s.row_hits + s.row_misses + s.row_empty;
            let ctx = format!("sample {i}: target {target} {op:?} {:?}", plan.cfg.pattern);
            if sampled {
                assert!(total_accesses(&plan.cfg) > cap, "{ctx}: not sampled");
                assert!(
                    rows <= s.dram_transactions && rows + 2 >= s.dram_transactions,
                    "{ctx}: rows {rows} vs {} transactions",
                    s.dram_transactions
                );
            } else {
                assert_eq!(rows, s.dram_transactions, "{ctx}: unsampled rows");
            }
        }
    }

    /// The two stages of a channeled kernel share one DRAM, so no
    /// launch, channeled or fused, moves its DRAM bytes faster than the
    /// device's peak. Arrays are past the CPU's L3 and the GPU's L2.
    #[test]
    fn channeled_and_fused_launches_never_beat_the_dram_peak() {
        let mut pick = picker(0x00C0_FFEE_0021);
        for i in 0..24 {
            let target = i % 4;
            let op = kernelgen::Op::ALL[pick(4)];
            let mut cfg = KernelConfig::baseline(op, 1 << 23);
            cfg.vector_width = VectorWidth::new([1, 4, 16][pick(3)]).unwrap();
            cfg.loop_mode = LoopMode::ALL[pick(3)];
            // Every third launch is fused; the rest take a power-of-two
            // FIFO, which every target synthesizes.
            cfg.channel = (i % 3 != 0).then(|| kernelgen::ChannelSpec {
                depth: [1, 16, 64, 256][pick(4)],
            });
            let mut b = backend(target, 200_000);
            let peak = b.info().peak_gbps;
            let art = b.build(&cfg).unwrap();
            let channel = cfg.channel;
            let cost = b.kernel_cost(&art, &plan_at(cfg, 4096));
            let rate = cost.dram_bytes as f64 / cost.ns;
            assert!(
                rate <= peak * (1.0 + 1e-12),
                "sample {i}: target {target} {op:?} channel {channel:?}: {rate:.2} GB/s of \
                 DRAM traffic against a {peak:.2} GB/s peak"
            );
        }
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
                    let slow = run_plan(hierarchy(), &p, lane, co, cap);
                    memsim::slowpath::force(false);
                    let fast = run_plan(hierarchy(), &p, lane, co, cap);
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
            channel_overlay(&cfg, 1000.0, 1.0, 0.0).is_none(),
            "single-stage kernels have no overlay"
        );
        cfg.channel = Some(kernelgen::ChannelSpec { depth: 16 });
        let (ns, stall) = channel_overlay(&cfg, 1000.0, 1.0, 0.0).unwrap();
        // Even split: both sides take 500 ns, plus a 16-element fill.
        assert!((ns - 516.0).abs() < 1e-9, "{ns}");
        assert!(stall.abs() < 1e-9, "balanced copy has no stall: {stall}");

        // A DRAM-bound launch keeps its DRAM time; the stall term is
        // still the imbalance between the stages.
        let (ns, stall) = channel_overlay(&cfg, 1000.0, 1.0, 800.0).unwrap();
        assert!((ns - 800.0).abs() < 1e-9, "{ns}");
        assert!(stall.abs() < 1e-9, "{stall}");

        cfg.op = StreamOp::Triad;
        let (ns, stall) = channel_overlay(&cfg, 900.0, 1.0, 0.0).unwrap();
        // Producer 300 ns, consumer 600 ns: consumer-bound, producer
        // blocked for the 300 ns difference.
        assert!((ns - 616.0).abs() < 1e-9, "{ns}");
        assert!((stall - 300.0).abs() < 1e-9, "{stall}");

        // The fill term is capped by the traversal length.
        let mut tiny = KernelConfig::baseline(StreamOp::Copy, 4);
        tiny.channel = Some(kernelgen::ChannelSpec { depth: 1024 });
        let (ns, _) = channel_overlay(&tiny, 10.0, 1.0, 0.0).unwrap();
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
        let without = run_plan(hierarchy(), &p, 16, None, u64::MAX);
        let with = run_plan(hierarchy(), &p, 16, Some(co), u64::MAX);
        // Both go through caches at line granularity, so DRAM traffic is
        // similar, but the coalesced stream is never slower.
        assert!(with.ns <= without.ns * 1.05);
    }
}
