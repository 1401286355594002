//! Sweep execution and multi-objective analysis.
//!
//! A sweep is a thin strategy layer over the [`Engine`]:
//! [`sweep_space`] expands a [`ParamSpace`] into a work-list, hands it to
//! the engine's thread pool, and wraps the ordered [`Outcome`]s — plus
//! the build-cache counters for this sweep — in a [`SweepResult`].
//! [`run_space`] keeps the original one-runner entry point as a shim.
//! [`sweep_space_checkpointed`] records every completed point to a
//! [`Checkpoint`] as workers finish, and skips points the checkpoint
//! already holds — the `--checkpoint`/`--resume` workflow.
//! [`pareto_front`] then extracts the bandwidth-vs-resources Pareto
//! frontier — the set a designer actually chooses from, since on an FPGA
//! the benchmark kernel shares the fabric with the application.

use crate::checkpoint::Checkpoint;
use crate::config::BenchConfig;
use crate::engine::{Engine, Outcome, RetryStats};
use crate::report::{
    config_label, config_metrics_table, sweep_summary_table, ConfigMetrics, SweepSummary, Table,
};
use crate::runner::{Measurement, Runner};
use crate::space::ParamSpace;
use crate::trace;
use kernelgen::KernelConfig;
use mpcl::{CacheStats, FaultCounters};

/// The result of sweeping a space on one device.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Every point, in the space's deterministic order.
    pub points: Vec<Outcome>,
    /// Build-cache hits/misses incurred by this sweep.
    pub cache: CacheStats,
    /// Retry/panic counters incurred by this sweep.
    pub retry: RetryStats,
    /// Faults injected during this sweep (zero without a fault plan).
    pub faults: FaultCounters,
    /// Points answered from a checkpoint instead of executed.
    pub resumed: usize,
}

impl SweepResult {
    /// Successful points only.
    pub fn ok_points(&self) -> impl Iterator<Item = (&KernelConfig, &Measurement)> {
        self.points
            .iter()
            .filter_map(|p| p.result.as_ref().ok().map(|m| (&p.config, m)))
    }

    /// Number of failed points (synthesis errors etc.).
    pub fn failures(&self) -> usize {
        self.points.iter().filter(|p| p.result.is_err()).count()
    }

    /// Number of points that needed at least one retry.
    pub fn retried_points(&self) -> usize {
        self.points.iter().filter(|p| p.retries > 0).count()
    }

    /// One-row degradation summary (ok / failed / retried / gave-up /
    /// resumed plus cache and fault counters) — see
    /// [`sweep_summary_table`].
    pub fn summary(&self) -> Table {
        sweep_summary_table(&SweepSummary {
            points: self.points.len(),
            ok: self.points.len() - self.failures(),
            failed: self.failures(),
            retried: self.retried_points(),
            gave_up: self.retry.gave_up,
            resumed: self.resumed,
            cache: self.cache,
            retries: self.retry.retries,
            panics: self.retry.panics_isolated,
            faults_injected: self.faults.total(),
        })
    }

    /// The best configuration by bandwidth, if any succeeded. NaN
    /// bandwidths (degenerate measurements) are excluded rather than
    /// compared, so they can neither panic nor win.
    pub fn best(&self) -> Option<&Outcome> {
        self.points
            .iter()
            .filter_map(|p| p.gbps().filter(|g| !g.is_nan()).map(|g| (p, g)))
            .max_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(p, _)| p)
    }

    /// Render a summary table (config, GB/s or failure, fmax, logic,
    /// retries taken, note).
    pub fn table(&self) -> Table {
        let mut t = Table::new(&["config", "GB/s", "fmax MHz", "logic", "retries", "note"]);
        for p in &self.points {
            let cfg = config_label(&p.config);
            let retries = p.retries.to_string();
            match &p.result {
                Ok(m) => t.row(&[
                    cfg,
                    format!("{:.2}", m.gbps()),
                    m.fmax_mhz
                        .map(|f| format!("{f:.0}"))
                        .unwrap_or_else(|| "-".into()),
                    m.resources
                        .map(|r| r.logic.to_string())
                        .unwrap_or_else(|| "-".into()),
                    retries,
                    String::new(),
                ]),
                Err(e) => {
                    let mut note = e.to_string().replace('\n', " | ");
                    note.truncate(90);
                    t.row(&[cfg, "-".into(), "-".into(), "-".into(), retries, note])
                }
            };
        }
        t
    }

    /// Render the per-configuration execution-metrics table: where each
    /// successful point's simulated time went (build, transfers,
    /// kernel), the retries it needed, its build-cache status and its
    /// DRAM row-buffer hit rate. Failed points are omitted — their
    /// failure reason lives in [`SweepResult::table`].
    pub fn metrics_table(&self) -> Table {
        let rows: Vec<ConfigMetrics> = self
            .points
            .iter()
            .filter_map(|p| {
                let m = p.result.as_ref().ok()?;
                Some(ConfigMetrics {
                    label: config_label(&p.config),
                    family: p.config.op.family(),
                    gbps: m.gbps(),
                    build_ns: m.build_ns,
                    xfer_ns: m.xfer_ns,
                    kernel_ns: m.kernel_ns,
                    stall_ns: m.stall_ns,
                    retries: p.retries,
                    cache: m.cache.label(),
                    row_hit_rate: m.row_hit_rate(),
                })
            })
            .collect();
        config_metrics_table(&rows)
    }
}

/// Execute every configuration of `space` on `target` across the
/// engine's thread pool. `protocol` customizes the measurement
/// (repetitions, validation). Point order follows
/// [`ParamSpace::configs`] regardless of the worker count.
pub fn sweep_space(
    engine: &Engine,
    target: targets::TargetId,
    space: &ParamSpace,
    protocol: impl Fn(KernelConfig) -> BenchConfig,
) -> SweepResult {
    let (cache0, retry0, faults0) = snapshots(engine);
    let work = space.configs().into_iter().map(protocol).collect();
    let (points, resumed) = run_checkpointed(engine, target, work, None);
    finish(engine, points, cache0, retry0, faults0, resumed)
}

/// Like [`sweep_space`], but recording every completed point to
/// `checkpoint` as workers finish, and answering points the checkpoint
/// already holds without executing them (their count lands in
/// [`SweepResult::resumed`]). Point order still follows
/// [`ParamSpace::configs`].
pub fn sweep_space_checkpointed(
    engine: &Engine,
    target: targets::TargetId,
    space: &ParamSpace,
    protocol: impl Fn(KernelConfig) -> BenchConfig,
    checkpoint: &Checkpoint,
) -> SweepResult {
    let (cache0, retry0, faults0) = snapshots(engine);
    let work = space.configs().into_iter().map(protocol).collect();
    let (points, resumed) = run_checkpointed(engine, target, work, Some(checkpoint));
    finish(engine, points, cache0, retry0, faults0, resumed)
}

/// Execute `work` on `target` across the engine's thread pool, returning
/// outcomes in `work` order and how many of them `checkpoint` answered.
/// Points the checkpoint already holds are not executed; every executed
/// point is recorded to it as its worker finishes. The sweep and the
/// DSE batch loop share this evaluator.
pub(crate) fn run_checkpointed(
    engine: &Engine,
    target: targets::TargetId,
    work: Vec<BenchConfig>,
    checkpoint: Option<&Checkpoint>,
) -> (Vec<Outcome>, usize) {
    // Split into already-checkpointed and still-to-run, remembering
    // where each pending config sits in the full ordering.
    let mut slots: Vec<Option<Outcome>> = Vec::with_capacity(work.len());
    let mut pending: Vec<BenchConfig> = Vec::new();
    let mut pending_slots: Vec<usize> = Vec::new();
    for (i, bc) in work.into_iter().enumerate() {
        match checkpoint.and_then(|c| c.lookup(&bc.kernel)) {
            Some(done) => slots.push(Some(done)),
            None => {
                slots.push(None);
                pending.push(bc);
                pending_slots.push(i);
            }
        }
    }
    let resumed = slots.len() - pending.len();

    let executed = engine.run_list_observed(
        || Runner::for_target(target),
        &pending,
        |outcome| {
            let Some(ckpt) = checkpoint else { return };
            let ok = match ckpt.record(outcome) {
                Ok(()) => true,
                Err(e) => {
                    eprintln!(
                        "warning: checkpoint write to {} failed: {e}",
                        ckpt.path().display()
                    );
                    false
                }
            };
            // Checkpoint writes happen in completion order, a wall-clock
            // fact — record them in the wall lane so the canonical
            // (virtual) trace stays jobs-invariant.
            if let Some(t) = engine.trace() {
                t.wall_instant(0, "checkpoint-write", trace::args([("ok", ok.into())]));
            }
        },
    );
    for (slot, outcome) in pending_slots.into_iter().zip(executed) {
        slots[slot] = Some(outcome);
    }
    let points = slots
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect();
    (points, resumed)
}

fn snapshots(engine: &Engine) -> (CacheStats, RetryStats, FaultCounters) {
    (
        engine.cache_stats(),
        engine.retry_stats(),
        engine.fault_counters(),
    )
}

fn finish(
    engine: &Engine,
    points: Vec<Outcome>,
    cache0: CacheStats,
    retry0: RetryStats,
    faults0: FaultCounters,
    resumed: usize,
) -> SweepResult {
    SweepResult {
        points,
        cache: engine.cache_stats().since(cache0),
        retry: engine.retry_stats().since(retry0),
        faults: engine.fault_counters().since(faults0),
        resumed,
    }
}

/// Execute every configuration of `space` on `runner`'s device, serially
/// on the calling thread. This is the original single-runner entry
/// point, now a shim over the engine; prefer [`sweep_space`] for
/// parallel sweeps.
pub fn run_space(
    runner: &Runner,
    space: &ParamSpace,
    protocol: impl Fn(KernelConfig) -> BenchConfig,
) -> SweepResult {
    let engine = Engine::with_jobs(1);
    let (cache0, retry0, faults0) = snapshots(&engine);
    let work: Vec<BenchConfig> = space.configs().into_iter().map(protocol).collect();
    let points = engine.run_list_with(|| runner.clone(), &work);
    finish(&engine, points, cache0, retry0, faults0, 0)
}

/// A point on the bandwidth-vs-logic Pareto frontier.
#[derive(Debug, Clone)]
pub struct ParetoPoint {
    /// The configuration.
    pub config: KernelConfig,
    /// Achieved bandwidth, GB/s.
    pub gbps: f64,
    /// FPGA logic consumed.
    pub logic: u64,
}

/// Extract the Pareto frontier (maximize bandwidth, minimize logic) from
/// a sweep, with epsilon dominance: a costlier point must be at least
/// 0.5 % faster to join the frontier, so DRAM-bound plateaus don't admit
/// ever-larger designs with microscopically different rates. Points
/// without resource reports (non-FPGA devices) are skipped. The result
/// is sorted by ascending logic.
pub fn pareto_front(sweep: &SweepResult) -> Vec<ParetoPoint> {
    pareto_front_of_points(&sweep.points)
}

/// [`pareto_front`] over a bare outcome list — shared with the DSE
/// layer, whose visit-ordered trace is not a [`SweepResult`].
pub fn pareto_front_of_points(points: &[Outcome]) -> Vec<ParetoPoint> {
    let mut candidates: Vec<ParetoPoint> = points
        .iter()
        .filter_map(|p| {
            let gbps = p.gbps()?;
            let logic = p.logic()?;
            Some(ParetoPoint {
                config: p.config.clone(),
                gbps,
                logic,
            })
        })
        .collect();
    candidates.sort_by(|a, b| a.logic.cmp(&b.logic).then(b.gbps.total_cmp(&a.gbps)));

    let mut front: Vec<ParetoPoint> = Vec::new();
    let mut best_gbps = f64::NEG_INFINITY;
    for c in candidates {
        // Sorted by logic: a point joins the front iff it meaningfully
        // beats every cheaper (or equal-cost) point's bandwidth.
        if c.gbps > best_gbps * 1.005 {
            best_gbps = c.gbps;
            front.push(c);
        }
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernelgen::{LoopMode, StreamOp};
    use targets::TargetId;

    fn small_space() -> ParamSpace {
        ParamSpace::new()
            .ops([StreamOp::Copy])
            .sizes_bytes([1 << 20])
            .widths([1, 4, 16])
            .loop_modes([LoopMode::SingleWorkItemFlat])
            .unrolls([1, 4])
    }

    fn sweep() -> SweepResult {
        run_space(
            &Runner::for_target(TargetId::FpgaAocl),
            &small_space(),
            |k| BenchConfig::new(k).with_ntimes(1).with_validation(false),
        )
    }

    #[test]
    fn sweep_covers_the_whole_space() {
        let s = sweep();
        assert_eq!(s.points.len(), 6);
        assert!(s.failures() <= 1, "at most the 16x4 point may overflow");
        let best = s.best().expect("some point succeeded");
        assert!(
            best.config.vector_width.get() >= 4,
            "wide vectors win on the FPGA"
        );
    }

    #[test]
    fn sweep_space_matches_run_space_and_counts_cache() {
        let engine = Engine::with_jobs(2);
        let protocol = |k: KernelConfig| BenchConfig::new(k).with_ntimes(1).with_validation(false);
        let a = sweep_space(&engine, TargetId::FpgaAocl, &small_space(), protocol);
        let b = sweep();
        assert_eq!(a.points.len(), b.points.len());
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x.config, y.config);
            assert_eq!(x.gbps(), y.gbps());
        }
        assert_eq!(
            a.cache.misses as usize,
            a.points.len(),
            "fresh engine builds all"
        );
        let again = sweep_space(&engine, TargetId::FpgaAocl, &small_space(), protocol);
        assert_eq!(again.cache.misses, 0, "second sweep fully cached");
        assert_eq!(again.cache.hits as usize, again.points.len());
    }

    #[test]
    fn pareto_front_is_monotone() {
        let front = pareto_front(&sweep());
        assert!(!front.is_empty());
        for w in front.windows(2) {
            assert!(w[1].logic > w[0].logic, "ascending logic");
            assert!(w[1].gbps > w[0].gbps, "strictly better bandwidth");
        }
    }

    #[test]
    fn dominated_points_are_excluded() {
        let s = sweep();
        let front = pareto_front(&s);
        // Every successful point must be dominated by or on the front.
        for (cfg, m) in s.ok_points() {
            let logic = m.resources.expect("fpga").logic;
            let dominated_or_on = front
                .iter()
                .any(|f| f.logic <= logic && f.gbps >= m.gbps() * 0.995);
            assert!(
                dominated_or_on,
                "point {:?} escapes the front",
                cfg.vector_width
            );
        }
    }

    #[test]
    fn table_lists_failures_with_reason() {
        let space = small_space().unrolls([16]); // 16x16 will overflow
        let s = run_space(&Runner::for_target(TargetId::FpgaAocl), &space, |k| {
            BenchConfig::new(k).with_ntimes(1).with_validation(false)
        });
        let txt = s.table().to_text();
        assert!(txt.contains("does not fit") || s.failures() == 0, "{txt}");
    }
}
