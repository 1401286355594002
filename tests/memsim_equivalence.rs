//! The fast simulation path must be indistinguishable from the
//! reference slow path (`MPSTREAM_SIM_SLOW=1`): seeded property tests
//! drive randomized configurations through both and require
//! bit-identical measurements, plus byte-identical sweep reports across
//! worker counts and under deterministic fault injection.
//!
//! The slow path is toggled in-process via `memsim::slowpath::force`,
//! which is process-global — every test here serializes on [`LOCK`] so
//! a forced-slow section never leaks into a concurrently running test.

use kernelgen::{AccessPattern, ChannelSpec, KernelConfig, LoopMode, StreamOp, VectorWidth};
use mpcl::FaultSpec;
use mpstream_core::cli::{
    bench_protocol, build_engine, render_sweep_report, run_sweep, CliMode, CliRequest,
};
use mpstream_core::{Runner, SplitMix64};
use std::sync::Mutex;
use targets::TargetId;

static LOCK: Mutex<()> = Mutex::new(());

/// Run one configuration on both paths and require bit-identical
/// results. Returns the measurement for extra assertions.
fn assert_paths_match(target: TargetId, req: &CliRequest, cfg: KernelConfig, ctx: &str) {
    let bc = bench_protocol(req, cfg);
    memsim::slowpath::force(false);
    let fast = Runner::for_target(target).run(&bc).expect(ctx);
    memsim::slowpath::force(true);
    let slow = Runner::for_target(target).run(&bc).expect(ctx);
    memsim::slowpath::force(false);

    assert_eq!(fast, slow, "{ctx}: measurement mismatch");
    // PartialEq on Measurement compares the meaningful fields; pin the
    // timing fields bit-for-bit as well — "close" is not equivalent.
    assert_eq!(
        fast.best_wall_ns.to_bits(),
        slow.best_wall_ns.to_bits(),
        "{ctx}: best wall ns"
    );
    assert_eq!(
        fast.avg_wall_ns.to_bits(),
        slow.avg_wall_ns.to_bits(),
        "{ctx}: avg wall ns"
    );
    assert_eq!(
        fast.best_kernel_ns.to_bits(),
        slow.best_kernel_ns.to_bits(),
        "{ctx}: best kernel ns"
    );
    assert_eq!(
        fast.dram_bytes_per_launch, slow.dram_bytes_per_launch,
        "{ctx}: dram bytes"
    );
    assert_eq!(
        (fast.row_hits, fast.row_misses, fast.row_empty),
        (slow.row_hits, slow.row_misses, slow.row_empty),
        "{ctx}: dram row counters"
    );
    assert_eq!(fast.validated, slow.validated, "{ctx}: validation verdict");
}

fn pick<T: Copy>(rng: &mut SplitMix64, items: &[T]) -> T {
    items[rng.gen_index(items.len())]
}

#[test]
fn randomized_points_are_bit_identical_on_both_paths() {
    let _guard = LOCK.lock().unwrap();
    let mut rng = SplitMix64::new(0x00C0_FFEE_2026);
    for i in 0..24 {
        let target = pick(
            &mut rng,
            &[
                TargetId::Cpu,
                TargetId::Gpu,
                TargetId::FpgaAocl,
                TargetId::FpgaSdaccel,
            ],
        );
        let op = pick(&mut rng, &StreamOp::ALL);
        let size: u64 = pick(&mut rng, &[16 << 10, 64 << 10, 256 << 10]);
        let mut cfg = KernelConfig::baseline(op, size / 4);
        cfg.vector_width = VectorWidth::new(pick(&mut rng, &[1, 2, 4, 8, 16])).unwrap();
        cfg.unroll = pick(&mut rng, &[1, 2, 4]);
        cfg.loop_mode = pick(&mut rng, &LoopMode::ALL);
        cfg.pattern = pick(
            &mut rng,
            &[
                AccessPattern::Contiguous,
                AccessPattern::Contiguous, // weight towards the fused path
                AccessPattern::ColMajor { cols: None },
                AccessPattern::Strided { stride: 4 },
            ],
        );
        let req = CliRequest {
            target,
            ntimes: pick(&mut rng, &[1, 3]),
            no_validate: rng.gen_index(2) == 0,
            ..CliRequest::default()
        };
        let ctx = format!("sample {i}: {target:?} {op:?} {:?}", cfg.pattern);
        assert_paths_match(target, &req, cfg, &ctx);
    }
}

#[test]
fn hpcc_and_channeled_points_are_bit_identical_on_both_paths() {
    let _guard = LOCK.lock().unwrap();
    // The HPCC family runs through the explicit oracle path on the fast
    // engine rather than any fused fast path, and the channeled
    // two-stage variants add stall accounting on top — both must still
    // be bit-identical to the forced slow path on every target. Depth 4
    // is legal everywhere (SDAccel requires a power of two); depth 0 is
    // the AOCL-only fusion case.
    let targets = [
        TargetId::Cpu,
        TargetId::Gpu,
        TargetId::FpgaAocl,
        TargetId::FpgaSdaccel,
    ];
    for target in targets {
        for op in StreamOp::HPCC {
            for depth in [None, Some(4u32)] {
                let mut cfg = KernelConfig::baseline(op, (64u64 << 10) / 4);
                cfg.channel = depth.map(|depth| ChannelSpec { depth });
                let req = CliRequest {
                    target,
                    ntimes: 2,
                    ..CliRequest::default()
                };
                let ctx = format!("{target:?} {op:?} channel {depth:?}");
                assert_paths_match(target, &req, cfg, &ctx);
            }
        }
    }
    // AOCL depth-0 fusion: the synthesized pipeline collapses the
    // channel, but the measurement must still match the slow path.
    let mut cfg = KernelConfig::baseline(StreamOp::RandomAccess, (64u64 << 10) / 4);
    cfg.channel = Some(ChannelSpec { depth: 0 });
    let req = CliRequest {
        target: TargetId::FpgaAocl,
        ntimes: 2,
        ..CliRequest::default()
    };
    assert_paths_match(TargetId::FpgaAocl, &req, cfg, "aocl depth-0 fusion");
}

/// Pairs of configurations whose hierarchies see the same stream under
/// different kernel-cost keys. Run back to back on the fast path, the
/// second of each pair is answered by `run_plan`'s stream memo and only
/// the closed-form steps after it are recomputed; both runs must still
/// match the slow path bit for bit.
#[test]
fn stream_memo_hits_are_bit_identical_on_both_paths() {
    let _guard = LOCK.lock().unwrap();
    let mut rng = SplitMix64::new(0x5743_2026);
    let mut pairs: Vec<(TargetId, KernelConfig, KernelConfig)> = Vec::new();
    let irregular = [
        (StreamOp::Copy, AccessPattern::ColMajor { cols: None }),
        (StreamOp::Triad, AccessPattern::Strided { stride: 16 }),
        (StreamOp::RandomAccess, AccessPattern::Contiguous),
    ];
    for target in [TargetId::Cpu, TargetId::Gpu] {
        for (op, pattern) in irregular {
            let mut u1 = KernelConfig::baseline(op, (64u64 << 10) / 4);
            if op.is_stream() {
                u1.vector_width = VectorWidth::new(pick(&mut rng, &[1, 4])).unwrap();
            }
            u1.pattern = pattern;
            let u2 = KernelConfig {
                unroll: 2,
                ..u1.clone()
            };
            pairs.push((target, u1, u2));
        }
    }
    let copy = KernelConfig::baseline(StreamOp::Copy, (64u64 << 10) / 4);
    pairs.push((
        TargetId::Cpu,
        copy.clone(),
        KernelConfig {
            op: StreamOp::Scale,
            ..copy.clone()
        },
    ));
    let flat = KernelConfig {
        loop_mode: LoopMode::SingleWorkItemFlat,
        vector_width: VectorWidth::new(pick(&mut rng, &[1, 4, 16])).unwrap(),
        ..copy.clone()
    };
    let nested = KernelConfig {
        loop_mode: LoopMode::SingleWorkItemNested,
        ..flat.clone()
    };
    pairs.push((TargetId::FpgaAocl, flat, nested));
    let channeled = |depth| KernelConfig {
        op: StreamOp::Triad,
        channel: Some(ChannelSpec { depth }),
        ..copy.clone()
    };
    pairs.push((TargetId::FpgaSdaccel, channeled(4), channeled(16)));

    for (i, (target, first, second)) in pairs.into_iter().enumerate() {
        let req = CliRequest {
            target,
            ntimes: pick(&mut rng, &[1, 2]),
            no_validate: rng.gen_index(2) == 0,
            ..CliRequest::default()
        };
        for (which, cfg) in [("first", first), ("second", second)] {
            let ctx = format!(
                "pair {i} {which}: {target:?} {:?} {:?}",
                cfg.op, cfg.pattern
            );
            assert_paths_match(target, &req, cfg, &ctx);
        }
    }
}

/// A small but representative sweep request: two targets' worth of
/// engine work would double runtime, so use the FPGA whose fused
/// burst path is the newest code, with several widths and both
/// two- and three-array kernels.
fn sweep_request(jobs: usize) -> CliRequest {
    CliRequest {
        mode: CliMode::Sweep,
        target: TargetId::FpgaAocl,
        ops: vec![StreamOp::Copy, StreamOp::Triad],
        widths: vec![1, 4, 16],
        unrolls: vec![1, 2],
        size_bytes: 64 << 10,
        ntimes: 2,
        jobs: Some(jobs),
        ..CliRequest::default()
    }
}

fn rendered_sweep(req: &CliRequest) -> String {
    let engine = build_engine(req, None);
    let result = run_sweep(&engine, req, None);
    render_sweep_report(req, &result)
}

#[test]
fn sweep_reports_are_byte_identical_across_jobs_and_paths() {
    let _guard = LOCK.lock().unwrap();
    memsim::slowpath::force(false);
    let fast_j1 = rendered_sweep(&sweep_request(1));
    let fast_j8 = rendered_sweep(&sweep_request(8));
    memsim::slowpath::force(true);
    let slow_j1 = rendered_sweep(&sweep_request(1));
    memsim::slowpath::force(false);

    assert_eq!(fast_j1, fast_j8, "worker count changed the report");
    assert_eq!(fast_j1, slow_j1, "fast path changed the report");
}

/// A mixed STREAM+HPCC sweep with a channel depth: the HPCC ops are
/// scalar-only so the space self-filters, and every point carries a
/// two-stage channel with stall accounting in its metrics.
fn hpcc_sweep_request(jobs: usize) -> CliRequest {
    CliRequest {
        mode: CliMode::Sweep,
        target: TargetId::FpgaSdaccel,
        ops: vec![
            StreamOp::Triad,
            StreamOp::RandomAccess,
            StreamOp::Ptrans,
            StreamOp::DgemmLite,
        ],
        widths: vec![1, 4],
        unrolls: vec![1, 2],
        size_bytes: 64 << 10,
        ntimes: 2,
        jobs: Some(jobs),
        channel_depth: Some(4),
        ..CliRequest::default()
    }
}

#[test]
fn hpcc_channel_sweep_reports_are_byte_identical_across_jobs_and_paths() {
    let _guard = LOCK.lock().unwrap();
    memsim::slowpath::force(false);
    let fast_j1 = rendered_sweep(&hpcc_sweep_request(1));
    let fast_j8 = rendered_sweep(&hpcc_sweep_request(8));
    memsim::slowpath::force(true);
    let slow_j1 = rendered_sweep(&hpcc_sweep_request(1));
    memsim::slowpath::force(false);

    for op in ["gups", "ptrans", "dgemm"] {
        assert!(fast_j1.contains(op), "missing {op} in: {fast_j1}");
    }
    assert!(
        fast_j1.contains("ch4"),
        "channel depth in labels: {fast_j1}"
    );
    assert_eq!(fast_j1, fast_j8, "worker count changed the HPCC report");
    assert_eq!(fast_j1, slow_j1, "fast path changed the HPCC report");
}

#[test]
fn sweep_reports_survive_fault_injection_identically() {
    let _guard = LOCK.lock().unwrap();
    let faulty = |jobs: usize| CliRequest {
        faults: Some(FaultSpec::parse("build=0.1,timeout=0.05,lost=0.03,bitflip=0.05").unwrap()),
        fault_seed: Some(20260807),
        retries: Some(10),
        ..sweep_request(jobs)
    };
    memsim::slowpath::force(false);
    let clean = rendered_sweep(&sweep_request(1));
    let fast_j1 = rendered_sweep(&faulty(1));
    let fast_j8 = rendered_sweep(&faulty(8));
    memsim::slowpath::force(true);
    let slow_j1 = rendered_sweep(&faulty(1));
    memsim::slowpath::force(false);

    // The report legitimately records retries and cache churn, so the
    // faulty report differs from the clean one — but the *measured*
    // results must not: with the default retry budget every point
    // recovers, so the winning configuration line is unchanged.
    let best = |report: &str| {
        report
            .lines()
            .find(|l| l.starts_with("best:"))
            .expect("report has a best: line")
            .to_string()
    };
    assert_eq!(
        best(&fast_j1),
        best(&clean),
        "injected faults changed the measured winner"
    );
    assert_eq!(fast_j1, fast_j8, "worker count changed the faulty report");
    assert_eq!(fast_j1, slow_j1, "fast path changed the faulty report");
}
