//! Composed memory hierarchy with a bounded-MLP cost model.
//!
//! [`MemHierarchy`] strings together an optional TLB, up to three cache
//! levels, an optional stream prefetcher and a [`Dram`] device, and runs
//! an access stream through them with an event-driven cost model:
//!
//! * the front end issues accesses at a configurable streaming rate
//!   (`issue_bytes_per_ns` — aggregate core/pipeline issue bandwidth);
//! * each demand miss occupies one of `mlp` outstanding-miss slots; when
//!   all slots are busy the front end stalls until the earliest miss
//!   returns (this is what makes dependent/irregular streams
//!   latency-bound while leaving streamed traffic bandwidth-bound);
//! * prefetches and writebacks occupy DRAM bus time but no miss slot —
//!   they overlap with demand traffic, as in real memory controllers;
//! * total time covers every outstanding transaction and is stretched by
//!   the DRAM refresh overhead.
//!
//! Devices without caches (the FPGA targets) use the same engine with no
//! cache levels: every access becomes a DRAM transaction, and `mlp`
//! models the number of outstanding bursts the synthesized load/store
//! units support.

use crate::cache::{Cache, CacheConfig};
use crate::dram::{Dram, DramConfig};
use crate::prefetch::StreamPrefetcher;
use crate::req::{Access, AccessKind};
use crate::stats::MemStats;
use crate::tlb::Tlb;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Accesses pulled from the stream per batch in the fast engine. Large
/// enough to amortize the per-chunk bookkeeping, small enough to stay in
/// L1.
const CHUNK: usize = 512;

/// Multiplicative hasher for cache-line addresses. The prefetch table is
/// keyed by line base addresses — already well distributed — so SipHash's
/// collision resistance buys nothing and its per-lookup cost dominates
/// the miss path. Map *semantics* (contains/insert/remove/len) do not
/// depend on the hasher, so swapping it cannot change any outcome.
#[derive(Debug, Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (FNV-1a); the hot path uses `write_u64`.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let mut z = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z ^= z >> 32;
        self.0 = z;
    }
}

type PfMap = HashMap<u64, f64, BuildHasherDefault<LineHasher>>;

/// Binary min-heap over completion times, replacing the reference
/// engine's O(mlp) linear scan per demand miss (the GPU model runs with
/// an MLP window of several hundred slots).
///
/// Byte-identity argument: the reference pops *a* minimum from the window
/// and folds `t = t.max(min)`; ties are interchangeable because only the
/// popped value (not its index) feeds the clock, and the remaining
/// multiset is the same either way. The final drain is a max-fold, which
/// is order-independent for NaN-free `f64`.
#[derive(Debug, Default)]
struct DoneHeap(Vec<f64>);

impl DoneHeap {
    fn with_capacity(n: usize) -> Self {
        DoneHeap(Vec::with_capacity(n))
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn push(&mut self, v: f64) {
        self.0.push(v);
        let mut i = self.0.len() - 1;
        while i > 0 {
            let p = (i - 1) / 2;
            if self.0[p] <= self.0[i] {
                break;
            }
            self.0.swap(p, i);
            i = p;
        }
    }

    fn pop_min(&mut self) -> f64 {
        let min = self.0[0];
        let last = self.0.pop().expect("non-empty");
        if !self.0.is_empty() {
            self.0[0] = last;
            let mut i = 0;
            loop {
                let l = 2 * i + 1;
                if l >= self.0.len() {
                    break;
                }
                let mut c = l;
                let r = l + 1;
                if r < self.0.len() && self.0[r] < self.0[l] {
                    c = r;
                }
                if self.0[i] <= self.0[c] {
                    break;
                }
                self.0.swap(i, c);
                i = c;
            }
        }
        min
    }

    /// Max-fold every outstanding completion into `t` (the final drain).
    fn fold_max(&self, mut t: f64) -> f64 {
        for &c in &self.0 {
            t = t.max(c);
        }
        t
    }
}

/// Mutable per-run state of the fast engine, grouped so the per-line
/// helper takes one argument instead of six.
#[derive(Debug)]
struct FastEngine {
    outstanding: DoneHeap,
    pf_ready: PfMap,
    last_done: f64,
    wc_run: Option<(u64, u64)>,
    /// Reusable prefetch-address buffer (the reference path allocates a
    /// fresh `Vec` on every last-level miss).
    pf_buf: Vec<u64>,
}

/// How stores that miss the cache are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Classic write-allocate: a store miss fetches the line (read for
    /// ownership), dirties it, and the line is written back on eviction.
    /// A copy kernel then moves 3 bytes of DRAM traffic per 2 bytes of
    /// payload.
    WriteAllocate,
    /// Streaming / non-temporal stores with write combining: store
    /// misses post full lines straight to DRAM without fetching them.
    Streaming,
}

/// TLB parameters for the hierarchy.
#[derive(Debug, Clone, Copy)]
pub struct TlbConfig {
    /// Number of entries.
    pub entries: usize,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Serialized page-walk cost per miss, nanoseconds.
    pub walk_ns: f64,
}

/// Prefetcher parameters for the hierarchy.
#[derive(Debug, Clone, Copy)]
pub struct PrefetchConfig {
    /// Lines to run ahead of a confirmed demand stream.
    pub degree: u32,
}

/// Full hierarchy configuration.
#[derive(Debug, Clone)]
pub struct MemHierarchyConfig {
    /// Cache levels, innermost first. Empty for cacheless devices.
    pub caches: Vec<CacheConfig>,
    /// Serial cost charged per access that hits at the corresponding
    /// level (amortized over the core's ability to overlap hits), ns.
    pub hit_ns: Vec<f64>,
    /// Optional TLB.
    pub tlb: Option<TlbConfig>,
    /// Optional stream prefetcher (detects at last-level-cache misses).
    pub prefetch: Option<PrefetchConfig>,
    /// DRAM device configuration.
    pub dram: DramConfig,
    /// Aggregate front-end issue bandwidth, bytes per nanosecond.
    pub issue_bytes_per_ns: f64,
    /// Fixed front-end cost per access, ns (transaction-rate limits:
    /// pipeline initiation interval on FPGAs, LSU/interconnect slots on
    /// GPUs). Zero for purely byte-rate-limited front ends.
    pub issue_ns_per_access: f64,
    /// Maximum outstanding demand misses (memory-level parallelism).
    pub mlp: usize,
    /// Extra on-chip latency added to every demand DRAM round trip, ns.
    pub dram_extra_latency_ns: f64,
    /// Store-miss policy.
    pub write_policy: WritePolicy,
    /// Write-combining drain granularity for streaming stores, bytes:
    /// contiguous store runs are posted to DRAM in batches of this size
    /// (memory-controller write queues drain in bursts, avoiding a bus
    /// turnaround per line).
    pub wc_flush_bytes: u32,
}

impl MemHierarchyConfig {
    fn check(&self) {
        assert_eq!(
            self.caches.len(),
            self.hit_ns.len(),
            "one hit cost per cache level"
        );
        assert!(self.caches.len() <= 3, "at most three cache levels");
        assert!(self.mlp >= 1, "need at least one outstanding miss");
        assert!(self.issue_bytes_per_ns > 0.0);
    }
}

/// Result of running an access stream.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// Wall-clock time the stream took, nanoseconds (refresh-derated).
    pub ns: f64,
    /// Event counters for the run.
    pub stats: MemStats,
    /// Accesses actually simulated (differs from the nominal stream
    /// length when sampling extrapolation was used).
    pub simulated_accesses: u64,
}

impl StreamOutcome {
    /// Bandwidth for `useful_bytes` of payload, GB/s (1 GB = 1e9 B).
    pub fn bandwidth_gbps(&self, useful_bytes: u64) -> f64 {
        useful_bytes as f64 / self.ns
    }
}

/// The composed, stateful hierarchy.
#[derive(Debug, Clone)]
pub struct MemHierarchy {
    cfg: MemHierarchyConfig,
    caches: Vec<Cache>,
    tlb: Option<Tlb>,
    prefetcher: Option<StreamPrefetcher>,
    dram: Dram,
}

impl MemHierarchy {
    /// Build the hierarchy in a cold state.
    pub fn new(cfg: MemHierarchyConfig) -> Self {
        cfg.check();
        let caches: Vec<Cache> = cfg.caches.iter().map(|c| Cache::new(*c)).collect();
        let tlb = cfg.tlb.map(|t| Tlb::new(t.entries, t.page_bytes));
        let line = caches.first().map(|c| c.config().line_bytes).unwrap_or(64);
        let prefetcher = cfg.prefetch.map(|p| StreamPrefetcher::new(line, p.degree));
        let dram = Dram::new(cfg.dram.clone());
        MemHierarchy {
            cfg,
            caches,
            tlb,
            prefetcher,
            dram,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MemHierarchyConfig {
        &self.cfg
    }

    /// Reset all dynamic state (cold caches, idle DRAM).
    pub fn reset(&mut self) {
        for c in &mut self.caches {
            c.reset();
        }
        if let Some(t) = &mut self.tlb {
            t.reset();
        }
        if let Some(p) = &mut self.prefetcher {
            p.reset();
        }
        self.dram.reset();
    }

    fn line_bytes(&self) -> u64 {
        self.caches
            .first()
            .map(|c| c.config().line_bytes as u64)
            .unwrap_or(0)
    }

    /// Run a complete access stream through the original per-request
    /// engine and return its cost. Byte-identical to [`run`](Self::run);
    /// kept verbatim as the oracle the equivalence suite diffs the fast
    /// engine against (`MPSTREAM_SIM_SLOW=1`, see [`crate::slowpath`]).
    pub fn run_reference(&mut self, stream: impl IntoIterator<Item = Access>) -> StreamOutcome {
        let mut stats = MemStats::new();
        // Snapshot cumulative model counters so the outcome reports
        // per-run deltas even when state is carried across runs.
        let cache_base: Vec<(u64, u64)> =
            self.caches.iter().map(|c| (c.hits(), c.misses())).collect();
        let dram_base = self.dram.stats().clone();
        let pf_base = self.prefetcher.as_ref().map(|p| p.issued()).unwrap_or(0);
        let mut t = 0.0f64; // front-end time, ns
        let mut outstanding: Vec<f64> = Vec::with_capacity(self.cfg.mlp);
        let mut pf_ready: HashMap<u64, f64> = HashMap::new();
        let mut last_done = 0.0f64; // completion horizon of posted traffic
                                    // Write-combining run for streaming stores: [start, end) bytes.
        let mut wc_run: Option<(u64, u64)> = None;
        let mut n = 0u64;

        let issue_inv = 1.0 / self.cfg.issue_bytes_per_ns;
        let line = self.line_bytes();

        for acc in stream {
            n += 1;

            // Front-end issue cost.
            t += acc.bytes as f64 * issue_inv + self.cfg.issue_ns_per_access;
            match acc.kind {
                AccessKind::Read => {
                    stats.reads += 1;
                    stats.bytes_read += acc.bytes as u64;
                }
                AccessKind::Write => {
                    stats.writes += 1;
                    stats.bytes_written += acc.bytes as u64;
                }
            }

            // Address translation.
            if let Some(tlb) = &mut self.tlb {
                if tlb.access(acc.addr) {
                    stats.tlb_hits += 1;
                } else {
                    stats.tlb_misses += 1;
                    t += self.cfg.tlb.as_ref().expect("tlb cfg").walk_ns;
                }
            }

            if self.caches.is_empty() {
                // Cacheless device: the access *is* the DRAM transaction.
                self.issue_demand(acc, &mut t, &mut outstanding, &mut last_done);
                continue;
            }

            // Walk each cache line the access touches.
            let first = acc.addr & !(line - 1);
            let mut lb = first;
            while lb < acc.end() {
                let full_line = acc.addr <= lb && acc.end() >= lb + line;
                self.access_line(
                    lb,
                    acc.kind,
                    full_line,
                    &mut t,
                    &mut stats,
                    &mut outstanding,
                    &mut pf_ready,
                    &mut last_done,
                    &mut wc_run,
                );
                lb += line;
            }
        }

        // Drain: flush the write-combining tail, then wait for every
        // outstanding transaction and posted write.
        if let Some((start, end)) = wc_run.take() {
            let cycles_at = self.dram.ns_to_cycles(t);
            let (_, done) = self
                .dram
                .service(cycles_at, Access::write(start, (end - start) as u32));
            last_done = last_done.max(self.dram.cycles_to_ns(done));
        }
        for c in outstanding {
            t = t.max(c);
        }
        t = t.max(last_done);

        // Fold model-level counter deltas into the outcome.
        for (i, c) in self.caches.iter().enumerate() {
            stats.cache_hits[i] = c.hits() - cache_base[i].0;
            stats.cache_misses[i] = c.misses() - cache_base[i].1;
        }
        let d = self.dram.stats();
        stats.merge(&MemStats {
            row_hits: d.row_hits - dram_base.row_hits,
            row_misses: d.row_misses - dram_base.row_misses,
            row_empty: d.row_empty - dram_base.row_empty,
            bus_turnarounds: d.bus_turnarounds - dram_base.bus_turnarounds,
            dram_transactions: d.dram_transactions - dram_base.dram_transactions,
            dram_bytes: d.dram_bytes - dram_base.dram_bytes,
            ..MemStats::new()
        });
        if let Some(p) = &self.prefetcher {
            stats.prefetches_issued = p.issued() - pf_base;
        }

        StreamOutcome {
            ns: self.dram.derate_ns(t),
            stats,
            simulated_accesses: n,
        }
    }

    /// One cache-line-granular access through the cache levels.
    #[allow(clippy::too_many_arguments)]
    fn access_line(
        &mut self,
        line_base: u64,
        kind: AccessKind,
        full_line: bool,
        t: &mut f64,
        stats: &mut MemStats,
        outstanding: &mut Vec<f64>,
        pf_ready: &mut HashMap<u64, f64>,
        last_done: &mut f64,
        wc_run: &mut Option<(u64, u64)>,
    ) {
        let is_write = kind.is_write();
        let line = self.line_bytes();
        let streaming_store = is_write && self.cfg.write_policy == WritePolicy::Streaming;

        // Streaming stores bypass allocation entirely unless the line is
        // already cached (in which case they behave like normal stores).
        if streaming_store && !self.caches.iter().any(|c| c.probe(line_base)) {
            // Write-combining: contiguous store runs accumulate and drain
            // to DRAM in `wc_flush_bytes` batches.
            let flush = self.cfg.wc_flush_bytes.max(line as u32) as u64;
            match wc_run {
                // Further words into a line already buffered in the run.
                Some((start, end)) if line_base >= *start && line_base < *end => {}
                Some((start, end)) if *end == line_base && *end - *start < flush => {
                    *end += line;
                }
                _ => {
                    if let Some((start, end)) = wc_run.take() {
                        let cycles_at = self.dram.ns_to_cycles(*t);
                        let (_, done) = self
                            .dram
                            .service(cycles_at, Access::write(start, (end - start) as u32));
                        *last_done = last_done.max(self.dram.cycles_to_ns(done));
                    }
                    *wc_run = Some((line_base, line_base + line));
                }
            }
            return;
        }

        // Look up levels innermost-out.
        let levels = self.caches.len();
        for lvl in 0..levels {
            let res = self.caches[lvl].access(line_base, is_write && lvl == 0);
            if res.hit {
                *t += self.cfg.hit_ns[lvl];
                // Fill the line into the levels above (inclusive-ish).
                for up in (0..lvl).rev() {
                    let fill = self.caches[up].access(line_base, is_write && up == 0);
                    if let Some(wb) = fill.writeback {
                        // Dirty line displaced from an upper level lands
                        // in this level; mark it dirty here.
                        self.caches[lvl].access(wb, true);
                    }
                }
                return;
            }
            // Miss at this level: dirty victim falls to the next level.
            if let Some(wb) = res.writeback {
                if lvl + 1 < levels {
                    self.caches[lvl + 1].access(wb, true);
                } else {
                    stats.writebacks += 1;
                    let cycles_at = self.dram.ns_to_cycles(*t);
                    let (_, done) = self.dram.service(cycles_at, Access::write(wb, line as u32));
                    *last_done = last_done.max(self.dram.cycles_to_ns(done));
                }
            }
        }

        // Write-validate: a store covering the whole line allocates it
        // dirty without a read-for-ownership fetch (as sectored GPU L2s
        // and modern CPU "full-line write" optimizations do). The lookup
        // walk above already installed the line (dirty at L1) and handled
        // the victim writeback — skipping the fetch is the optimization.
        if is_write && full_line && levels > 0 {
            return;
        }

        // Missed every level. Prefetched already?
        if let Some(ready) = pf_ready.remove(&line_base) {
            stats.prefetch_hits += 1;
            *t = t.max(ready);
            *t += *self.cfg.hit_ns.last().unwrap_or(&0.0);
        } else {
            self.issue_demand(
                Access {
                    addr: line_base,
                    bytes: line as u32,
                    kind: AccessKind::Read,
                },
                t,
                outstanding,
                last_done,
            );
        }

        // Train the prefetcher on the demand-miss address stream.
        if let Some(pf) = &mut self.prefetcher {
            let lines = pf.on_miss(line_base);
            for pline in lines {
                if pf_ready.contains_key(&pline) {
                    continue;
                }
                let cycles_at = self.dram.ns_to_cycles(*t);
                let (_, done) = self
                    .dram
                    .service(cycles_at, Access::read(pline, line as u32));
                let ready = self.dram.cycles_to_ns(done) + self.cfg.dram_extra_latency_ns;
                pf_ready.insert(pline, ready);
                *last_done = last_done.max(ready);
            }
            // Bound the prefetch table (streams were evicted, entries stale).
            if pf_ready.len() > 4096 {
                pf_ready.clear();
            }
        }
    }

    /// Issue a demand DRAM transaction through the MLP window.
    fn issue_demand(
        &mut self,
        acc: Access,
        t: &mut f64,
        outstanding: &mut Vec<f64>,
        last_done: &mut f64,
    ) {
        if outstanding.len() == self.cfg.mlp {
            // Stall until the earliest outstanding miss completes.
            let (idx, _) = outstanding
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN times"))
                .expect("non-empty");
            let earliest = outstanding.swap_remove(idx);
            *t = t.max(earliest);
        }
        let cycles_at = self.dram.ns_to_cycles(*t);
        let (_, done) = self.dram.service(cycles_at, acc);
        let done_ns = self.dram.cycles_to_ns(done) + self.cfg.dram_extra_latency_ns;
        outstanding.push(done_ns);
        *last_done = last_done.max(done_ns);
    }

    /// Run a complete access stream through the batched engine and return
    /// its cost. Semantics-preserving differences from
    /// [`run_reference`](Self::run_reference):
    ///
    /// * accesses are pulled in fixed-size chunks so TLB lookups for runs
    ///   of same-page accesses collapse into one probe plus an O(1) batch
    ///   update ([`Tlb::access_run`]) — later accesses of a run are
    ///   guaranteed hits on the just-touched entry and contribute no
    ///   walk time;
    /// * the MLP window is a binary min-heap instead of a linearly
    ///   scanned `Vec`;
    /// * the prefetch in-flight table uses a multiplicative hasher;
    /// * prefetch addresses land in a reusable buffer instead of a fresh
    ///   allocation per miss.
    ///
    /// Every floating-point operation happens in the same order with the
    /// same operands as the reference, so outcomes are byte-identical.
    pub fn run(&mut self, stream: impl IntoIterator<Item = Access>) -> StreamOutcome {
        let mut stream = stream.into_iter();
        let mut stats = MemStats::new();
        let cache_base: Vec<(u64, u64)> =
            self.caches.iter().map(|c| (c.hits(), c.misses())).collect();
        let dram_base = self.dram.stats().clone();
        let pf_base = self.prefetcher.as_ref().map(|p| p.issued()).unwrap_or(0);
        let mut t = 0.0f64;
        let mut eng = FastEngine {
            outstanding: DoneHeap::with_capacity(self.cfg.mlp),
            pf_ready: PfMap::default(),
            last_done: 0.0,
            wc_run: None,
            pf_buf: Vec::new(),
        };
        let mut n = 0u64;

        let issue_inv = 1.0 / self.cfg.issue_bytes_per_ns;
        let issue_ns = self.cfg.issue_ns_per_access;
        let line = self.line_bytes();
        let has_caches = !self.caches.is_empty();
        let walk_ns = self.cfg.tlb.as_ref().map(|c| c.walk_ns).unwrap_or(0.0);
        let page_mask = self
            .tlb
            .as_ref()
            .map(|tlb| !(tlb.page_bytes() - 1))
            .unwrap_or(0);

        let mut chunk: Vec<Access> = Vec::with_capacity(CHUNK);
        'outer: loop {
            chunk.clear();
            chunk.extend(stream.by_ref().take(CHUNK));
            if chunk.is_empty() {
                break 'outer;
            }
            n += chunk.len() as u64;

            let mut i = 0;
            while i < chunk.len() {
                // Length of the same-page run starting at `i` (1 when
                // there is no TLB; the whole TLB block is skipped then).
                let mut run = 1usize;
                if self.tlb.is_some() {
                    let page = chunk[i].addr & page_mask;
                    while i + run < chunk.len() && chunk[i + run].addr & page_mask == page {
                        run += 1;
                    }
                }
                for (j, &acc) in chunk.iter().enumerate().take(i + run).skip(i) {
                    // Front-end issue cost.
                    t += acc.bytes as f64 * issue_inv + issue_ns;
                    match acc.kind {
                        AccessKind::Read => {
                            stats.reads += 1;
                            stats.bytes_read += acc.bytes as u64;
                        }
                        AccessKind::Write => {
                            stats.writes += 1;
                            stats.bytes_written += acc.bytes as u64;
                        }
                    }

                    // Address translation, batched over the run: only the
                    // first access can miss; the rest hit the just-touched
                    // entry and add no time.
                    if j == i {
                        if let Some(tlb) = &mut self.tlb {
                            if tlb.access_run(acc.addr, run as u64) {
                                stats.tlb_hits += run as u64;
                            } else {
                                stats.tlb_misses += 1;
                                stats.tlb_hits += (run - 1) as u64;
                                t += walk_ns;
                            }
                        }
                    }

                    if !has_caches {
                        // Cacheless device: the access *is* the DRAM
                        // transaction.
                        self.issue_demand_fast(acc, &mut t, &mut eng);
                        continue;
                    }

                    // Walk each cache line the access touches.
                    let mut lb = acc.addr & !(line - 1);
                    while lb < acc.end() {
                        let full_line = acc.addr <= lb && acc.end() >= lb + line;
                        self.access_line_fast(
                            lb, acc.kind, full_line, &mut t, &mut stats, &mut eng,
                        );
                        lb += line;
                    }
                }
                i += run;
            }
        }

        // Drain: flush the write-combining tail, then wait for every
        // outstanding transaction and posted write.
        if let Some((start, end)) = eng.wc_run.take() {
            let cycles_at = self.dram.ns_to_cycles(t);
            let (_, done) = self
                .dram
                .service(cycles_at, Access::write(start, (end - start) as u32));
            eng.last_done = eng.last_done.max(self.dram.cycles_to_ns(done));
        }
        t = eng.outstanding.fold_max(t);
        t = t.max(eng.last_done);

        // Fold model-level counter deltas into the outcome.
        for (i, c) in self.caches.iter().enumerate() {
            stats.cache_hits[i] = c.hits() - cache_base[i].0;
            stats.cache_misses[i] = c.misses() - cache_base[i].1;
        }
        let d = self.dram.stats();
        stats.merge(&MemStats {
            row_hits: d.row_hits - dram_base.row_hits,
            row_misses: d.row_misses - dram_base.row_misses,
            row_empty: d.row_empty - dram_base.row_empty,
            bus_turnarounds: d.bus_turnarounds - dram_base.bus_turnarounds,
            dram_transactions: d.dram_transactions - dram_base.dram_transactions,
            dram_bytes: d.dram_bytes - dram_base.dram_bytes,
            ..MemStats::new()
        });
        if let Some(p) = &self.prefetcher {
            stats.prefetches_issued = p.issued() - pf_base;
        }

        StreamOutcome {
            ns: self.dram.derate_ns(t),
            stats,
            simulated_accesses: n,
        }
    }

    /// Fast-path twin of [`access_line`](Self::access_line); same logic
    /// against the [`FastEngine`] state.
    fn access_line_fast(
        &mut self,
        line_base: u64,
        kind: AccessKind,
        full_line: bool,
        t: &mut f64,
        stats: &mut MemStats,
        eng: &mut FastEngine,
    ) {
        let is_write = kind.is_write();
        let line = self.line_bytes();
        let streaming_store = is_write && self.cfg.write_policy == WritePolicy::Streaming;

        // Streaming stores bypass allocation entirely unless the line is
        // already cached (in which case they behave like normal stores).
        if streaming_store && !self.caches.iter().any(|c| c.probe(line_base)) {
            // Write-combining: contiguous store runs accumulate and drain
            // to DRAM in `wc_flush_bytes` batches.
            let flush = self.cfg.wc_flush_bytes.max(line as u32) as u64;
            match &mut eng.wc_run {
                // Further words into a line already buffered in the run.
                Some((start, end)) if line_base >= *start && line_base < *end => {}
                Some((start, end)) if *end == line_base && *end - *start < flush => {
                    *end += line;
                }
                _ => {
                    if let Some((start, end)) = eng.wc_run.take() {
                        let cycles_at = self.dram.ns_to_cycles(*t);
                        let (_, done) = self
                            .dram
                            .service(cycles_at, Access::write(start, (end - start) as u32));
                        eng.last_done = eng.last_done.max(self.dram.cycles_to_ns(done));
                    }
                    eng.wc_run = Some((line_base, line_base + line));
                }
            }
            return;
        }

        // Look up levels innermost-out.
        let levels = self.caches.len();
        for lvl in 0..levels {
            let res = self.caches[lvl].access(line_base, is_write && lvl == 0);
            if res.hit {
                *t += self.cfg.hit_ns[lvl];
                // Fill the line into the levels above (inclusive-ish).
                for up in (0..lvl).rev() {
                    let fill = self.caches[up].access(line_base, is_write && up == 0);
                    if let Some(wb) = fill.writeback {
                        // Dirty line displaced from an upper level lands
                        // in this level; mark it dirty here.
                        self.caches[lvl].access(wb, true);
                    }
                }
                return;
            }
            // Miss at this level: dirty victim falls to the next level.
            if let Some(wb) = res.writeback {
                if lvl + 1 < levels {
                    self.caches[lvl + 1].access(wb, true);
                } else {
                    stats.writebacks += 1;
                    let cycles_at = self.dram.ns_to_cycles(*t);
                    let (_, done) = self.dram.service(cycles_at, Access::write(wb, line as u32));
                    eng.last_done = eng.last_done.max(self.dram.cycles_to_ns(done));
                }
            }
        }

        // Write-validate: see the reference path for the rationale.
        if is_write && full_line && levels > 0 {
            return;
        }

        // Missed every level. Prefetched already?
        if let Some(ready) = eng.pf_ready.remove(&line_base) {
            stats.prefetch_hits += 1;
            *t = t.max(ready);
            *t += *self.cfg.hit_ns.last().unwrap_or(&0.0);
        } else {
            self.issue_demand_fast(
                Access {
                    addr: line_base,
                    bytes: line as u32,
                    kind: AccessKind::Read,
                },
                t,
                eng,
            );
        }

        // Train the prefetcher on the demand-miss address stream.
        if let Some(pf) = &mut self.prefetcher {
            let mut buf = std::mem::take(&mut eng.pf_buf);
            buf.clear();
            pf.on_miss_into(line_base, &mut buf);
            for &pline in &buf {
                if eng.pf_ready.contains_key(&pline) {
                    continue;
                }
                let cycles_at = self.dram.ns_to_cycles(*t);
                let (_, done) = self
                    .dram
                    .service(cycles_at, Access::read(pline, line as u32));
                let ready = self.dram.cycles_to_ns(done) + self.cfg.dram_extra_latency_ns;
                eng.pf_ready.insert(pline, ready);
                eng.last_done = eng.last_done.max(ready);
            }
            eng.pf_buf = buf;
            // Bound the prefetch table (streams were evicted, entries stale).
            if eng.pf_ready.len() > 4096 {
                eng.pf_ready.clear();
            }
        }
    }

    /// Fast-path twin of [`issue_demand`](Self::issue_demand): the stall
    /// pops the earliest completion from the heap instead of a linear
    /// scan.
    fn issue_demand_fast(&mut self, acc: Access, t: &mut f64, eng: &mut FastEngine) {
        if eng.outstanding.len() == self.cfg.mlp {
            // Stall until the earliest outstanding miss completes.
            let earliest = eng.outstanding.pop_min();
            *t = t.max(earliest);
        }
        let cycles_at = self.dram.ns_to_cycles(*t);
        let (_, done) = self.dram.service(cycles_at, acc);
        let done_ns = self.dram.cycles_to_ns(done) + self.cfg.dram_extra_latency_ns;
        eng.outstanding.push(done_ns);
        eng.last_done = eng.last_done.max(done_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Freq;

    fn dram_cfg() -> DramConfig {
        DramConfig {
            channels: 2,
            banks_per_channel: 8,
            row_bytes: 2048,
            bus_bytes_per_cycle: 8,
            freq: Freq::mhz(1000.0),
            t_cas: 10,
            t_rcd: 10,
            t_rp: 10,
            t_turnaround: 6,
            refresh_overhead: 0.0,
            interleave_bytes: 256,
        }
    }

    fn cpu_like(mlp: usize, prefetch: bool) -> MemHierarchy {
        MemHierarchy::new(MemHierarchyConfig {
            caches: vec![
                CacheConfig {
                    size_bytes: 32 * 1024,
                    ways: 8,
                    line_bytes: 64,
                },
                CacheConfig {
                    size_bytes: 256 * 1024,
                    ways: 8,
                    line_bytes: 64,
                },
            ],
            hit_ns: vec![0.0, 2.0],
            tlb: Some(TlbConfig {
                entries: 64,
                page_bytes: 4096,
                walk_ns: 30.0,
            }),
            // Degree must cover the latency-bandwidth product (~17 lines
            // here) for the stream to become bus-bound.
            prefetch: prefetch.then_some(PrefetchConfig { degree: 32 }),
            dram: dram_cfg(),
            issue_bytes_per_ns: 32.0,
            issue_ns_per_access: 0.0,
            mlp,
            dram_extra_latency_ns: 40.0,
            write_policy: WritePolicy::WriteAllocate,
            wc_flush_bytes: 512,
        })
    }

    fn seq_reads(n: u64, step: u64) -> impl Iterator<Item = Access> {
        (0..n).map(move |i| Access::read(i * step, 4))
    }

    #[test]
    fn contiguous_with_prefetch_beats_without() {
        let n = 200_000;
        let with = cpu_like(8, true).run(seq_reads(n, 4));
        let without = cpu_like(8, false).run(seq_reads(n, 4));
        assert!(
            with.ns < without.ns * 0.7,
            "prefetch {} vs none {}",
            with.ns,
            without.ns
        );
        assert!(with.stats.prefetch_hits > 0);
    }

    #[test]
    fn contiguous_prefetched_stream_approaches_dram_peak() {
        let n = 500_000u64;
        let mut h = cpu_like(16, true);
        let out = h.run(seq_reads(n, 4));
        let gbps = out.bandwidth_gbps(n * 4);
        let peak = dram_cfg().peak_gbps();
        assert!(gbps > 0.6 * peak, "gbps {gbps} peak {peak}");
    }

    #[test]
    fn strided_large_stride_is_latency_bound() {
        let n = 50_000u64;
        // 4 KiB stride: every access a new page and a new DRAM row.
        let contig = cpu_like(8, true).run(seq_reads(n, 4));
        let strided = cpu_like(8, true).run(seq_reads(n, 4096));
        assert!(
            strided.ns > contig.ns * 4.0,
            "strided {} contig {}",
            strided.ns,
            contig.ns
        );
    }

    #[test]
    fn higher_mlp_helps_irregular_streams() {
        let n = 20_000u64;
        let lo = cpu_like(1, false).run(seq_reads(n, 4096));
        let hi = cpu_like(16, false).run(seq_reads(n, 4096));
        assert!(hi.ns < lo.ns * 0.5, "hi {} lo {}", hi.ns, lo.ns);
    }

    #[test]
    fn cache_resident_second_pass_is_fast() {
        let mut h = cpu_like(8, false);
        // 16 KiB working set fits L1.
        let pass1 = h.run(seq_reads(4096, 4));
        // Note: `run` does not reset state, so the second pass hits.
        let pass2 = h.run(seq_reads(4096, 4));
        assert!(
            pass2.ns < pass1.ns * 0.25,
            "p2 {} p1 {}",
            pass2.ns,
            pass1.ns
        );
        assert_eq!(pass2.stats.cache_misses[0], 0);
    }

    #[test]
    fn write_allocate_generates_writebacks_and_fills() {
        let n = 400_000u64;
        let mut h = cpu_like(8, false);
        let out = h.run((0..n).map(|i| Access::write(i * 4, 4)));
        assert!(out.stats.writebacks > 0, "dirty lines must be written back");
        // RFO: roughly one fill per line plus one writeback per line.
        let lines = n * 4 / 64;
        assert!(out.stats.dram_transactions as f64 > 1.5 * lines as f64);
    }

    #[test]
    fn streaming_stores_halve_write_traffic() {
        let n = 400_000u64;
        let mut cfg_wa = cpu_like(8, false);
        let mut cfg_nt = cpu_like(8, false);
        cfg_nt.cfg.write_policy = WritePolicy::Streaming;
        let wa = cfg_wa.run((0..n).map(|i| Access::write(i * 4, 4)));
        let nt = cfg_nt.run((0..n).map(|i| Access::write(i * 4, 4)));
        assert!(
            (nt.stats.dram_bytes as f64) < 0.6 * wa.stats.dram_bytes as f64,
            "nt {} wa {}",
            nt.stats.dram_bytes,
            wa.stats.dram_bytes
        );
    }

    #[test]
    fn cacheless_device_every_access_hits_dram() {
        let mut h = MemHierarchy::new(MemHierarchyConfig {
            caches: vec![],
            hit_ns: vec![],
            tlb: None,
            prefetch: None,
            dram: dram_cfg(),
            issue_bytes_per_ns: 8.0,
            issue_ns_per_access: 0.0,
            mlp: 4,
            dram_extra_latency_ns: 100.0,
            write_policy: WritePolicy::WriteAllocate,
            wc_flush_bytes: 512,
        });
        let out = h.run(seq_reads(1000, 4));
        assert_eq!(out.stats.dram_transactions, 1000);
    }

    #[test]
    fn tlb_misses_slow_the_stream() {
        let n = 20_000u64;
        let mut no_walk = cpu_like(8, false);
        no_walk.cfg.tlb = Some(TlbConfig {
            entries: 64,
            page_bytes: 4096,
            walk_ns: 0.0,
        });
        no_walk.tlb = Some(Tlb::new(64, 4096));
        let base = no_walk.run(seq_reads(n, 4096));
        let with = cpu_like(8, false).run(seq_reads(n, 4096));
        // Page walks serialize; DRAM work overlaps them, so the run is
        // at least walk-bound and strictly slower than the no-walk run.
        assert!(with.ns > base.ns, "with {} base {}", with.ns, base.ns);
        assert!(with.ns > 0.9 * (n as f64) * 30.0, "with {}", with.ns);
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Run the same stream through the reference and fast engines on
    /// twin hierarchies; outcomes must match to the bit.
    fn assert_paths_identical(mut a: MemHierarchy, mut b: MemHierarchy, accs: &[Access]) {
        let slow = a.run_reference(accs.iter().copied());
        let fast = b.run(accs.iter().copied());
        assert_eq!(
            slow.ns.to_bits(),
            fast.ns.to_bits(),
            "ns diverged: slow {} fast {}",
            slow.ns,
            fast.ns
        );
        assert_eq!(slow.stats, fast.stats, "stats diverged");
        assert_eq!(slow.simulated_accesses, fast.simulated_accesses);
    }

    #[test]
    fn fast_engine_matches_reference_contiguous() {
        let accs: Vec<Access> = seq_reads(100_000, 4).collect();
        assert_paths_identical(cpu_like(8, true), cpu_like(8, true), &accs);
    }

    #[test]
    fn fast_engine_matches_reference_strided() {
        let accs: Vec<Access> = seq_reads(20_000, 4096).collect();
        assert_paths_identical(cpu_like(4, true), cpu_like(4, true), &accs);
    }

    #[test]
    fn fast_engine_matches_reference_random_mix() {
        let mut state = 0x0123_4567_89ab_cdefu64;
        let accs: Vec<Access> = (0..50_000)
            .map(|_| {
                let r = splitmix(&mut state);
                let addr = r % (64 * 1024 * 1024);
                let bytes = [4u32, 8, 64, 256][(r >> 40) as usize % 4];
                if r & 1 == 0 {
                    Access::read(addr, bytes)
                } else {
                    Access::write(addr, bytes)
                }
            })
            .collect();
        assert_paths_identical(cpu_like(8, true), cpu_like(8, true), &accs);
    }

    #[test]
    fn fast_engine_matches_reference_streaming_stores() {
        let mut a = cpu_like(8, false);
        let mut b = cpu_like(8, false);
        a.cfg.write_policy = WritePolicy::Streaming;
        b.cfg.write_policy = WritePolicy::Streaming;
        let accs: Vec<Access> = (0..100_000).map(|i| Access::write(i * 4, 4)).collect();
        assert_paths_identical(a, b, &accs);
    }

    #[test]
    fn fast_engine_matches_reference_cacheless_wide_mlp() {
        let mk = || {
            MemHierarchy::new(MemHierarchyConfig {
                caches: vec![],
                hit_ns: vec![],
                tlb: None,
                prefetch: None,
                dram: dram_cfg(),
                issue_bytes_per_ns: 8.0,
                issue_ns_per_access: 1.5,
                mlp: 64,
                dram_extra_latency_ns: 100.0,
                write_policy: WritePolicy::WriteAllocate,
                wc_flush_bytes: 512,
            })
        };
        let mut state = 7u64;
        let accs: Vec<Access> = (0..30_000)
            .map(|i| {
                let r = splitmix(&mut state);
                if r & 3 == 0 {
                    Access::write((r % (1 << 28)) & !63, 1024)
                } else {
                    Access::read(i * 1024, 1024)
                }
            })
            .collect();
        assert_paths_identical(mk(), mk(), &accs);
    }

    #[test]
    fn outcome_bandwidth_helper() {
        let out = StreamOutcome {
            ns: 1000.0,
            stats: MemStats::new(),
            simulated_accesses: 0,
        };
        assert!((out.bandwidth_gbps(4000) - 4.0).abs() < 1e-12);
    }
}
