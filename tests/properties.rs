//! Randomized-but-deterministic tests over the core invariants:
//! configuration → codegen/stream/interpreter coherence, coalescer
//! conservation, simulator determinism, and end-to-end validation on
//! randomly drawn tuning points.
//!
//! Each test draws its cases from a fixed-seed [`SplitMix64`], so every
//! run (and every machine) checks exactly the same points — failures
//! reproduce by construction, with no dependency on a property-testing
//! framework.

use kernelgen::{
    access_stream, generate_source, total_accesses, validate, AccessPattern, DataType, ExecPlan,
    KernelConfig, LoopMode, StreamOp, VectorWidth,
};
use memsim::{Access, AccessKind, Coalescer, Dram, DramConfig};
use mpstream_core::{BenchConfig, Runner, SplitMix64};
use std::collections::HashSet;
use targets::TargetId;

/// Draw a random valid configuration: power-of-two sizes with
/// power-of-two widths/strides/unrolls, so divisibility holds by
/// construction — `validate` is still asserted via the retry loop.
fn sample_config(rng: &mut SplitMix64) -> KernelConfig {
    loop {
        let op = StreamOp::ALL[rng.gen_index(StreamOp::ALL.len())];
        let dtype = [DataType::I32, DataType::F64][rng.gen_index(2)];
        let n_words = 1u64 << (10 + rng.gen_index(5)); // 2^10 .. 2^14
        let width = VectorWidth::ALLOWED[rng.gen_index(VectorWidth::ALLOWED.len())];
        let pattern = match rng.gen_index(4) {
            0 => AccessPattern::Contiguous,
            1 => AccessPattern::ColMajor { cols: None },
            2 => AccessPattern::ColMajor {
                cols: Some(1 << (1 + rng.gen_index(5))),
            },
            _ => AccessPattern::Strided {
                stride: 1 << (1 + rng.gen_index(5)),
            },
        };
        let loop_mode = LoopMode::ALL[rng.gen_index(LoopMode::ALL.len())];
        let unroll = [1u32, 2, 4, 8][rng.gen_index(4)];
        let cfg = KernelConfig {
            op,
            dtype,
            n_words,
            vector_width: VectorWidth::new(width).expect("allowed"),
            pattern,
            loop_mode,
            unroll,
            work_group_size: 64,
            reqd_work_group_size: false,
            vendor: Default::default(),
            channel: None,
            q: 3.0,
        };
        if validate(&cfg).is_ok() {
            return cfg;
        }
    }
}

/// Draw a random valid configuration across the whole workload family
/// (STREAM + HPCC), optionally channeled — the shapes `sample_config`
/// predates. HPCC ops are scalar-only; GUPS and DGEMM-lite are i32.
fn sample_family_config(rng: &mut SplitMix64) -> KernelConfig {
    use kernelgen::{ChannelSpec, Op};
    loop {
        let op = Op::FAMILIES[rng.gen_index(Op::FAMILIES.len())];
        let mut cfg = KernelConfig::baseline(op, 1u64 << (10 + rng.gen_index(4)));
        cfg.dtype = if op == Op::Ptrans || op.is_stream() {
            [DataType::I32, DataType::F64][rng.gen_index(2)]
        } else {
            DataType::I32
        };
        cfg.pattern = match rng.gen_index(3) {
            0 => AccessPattern::Contiguous,
            1 => AccessPattern::ColMajor { cols: None },
            _ => AccessPattern::Strided { stride: 4 },
        };
        cfg.loop_mode = LoopMode::ALL[rng.gen_index(LoopMode::ALL.len())];
        cfg.unroll = [1u32, 2, 4][rng.gen_index(3)];
        cfg.channel = match rng.gen_index(4) {
            0 => None,
            _ => Some(ChannelSpec {
                depth: [0u32, 4, 64, 1024][rng.gen_index(4)],
            }),
        };
        if validate(&cfg).is_ok() {
            return cfg;
        }
    }
}

#[test]
fn generated_source_is_well_formed() {
    let mut rng = SplitMix64::new(0x5EED_0001);
    for _ in 0..64 {
        let cfg = sample_config(&mut rng);
        let src = generate_source(&cfg);
        let mut depth = 0i64;
        for ch in src.chars() {
            match ch {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced braces:\n{src}");
        }
        assert_eq!(depth, 0);
        let entry = format!("mp_{}", cfg.op.name());
        assert!(src.contains(&entry));
        if cfg.dtype == DataType::F64 {
            assert!(src.contains("cl_khr_fp64"));
        }
    }
}

#[test]
fn access_stream_is_complete_and_in_bounds() {
    let mut rng = SplitMix64::new(0x5EED_0002);
    for _ in 0..64 {
        let cfg = sample_config(&mut rng);
        let lane_group = 1u32 << rng.gen_index(6);
        let bytes = cfg.array_bytes();
        let plan = ExecPlan::new(cfg.clone(), 0, bytes, 2 * bytes);
        let accs: Vec<_> = access_stream(&plan, lane_group).collect();
        assert_eq!(accs.len() as u64, total_accesses(&cfg));

        // Every access lies inside exactly one array span, and per-array
        // the touched offsets cover the array exactly once.
        let mut reads_b = HashSet::new();
        let mut reads_c = HashSet::new();
        let mut writes_a = HashSet::new();
        for a in &accs {
            let (set, base) = match a.kind {
                kernelgen::access::AccessKind::Write => (&mut writes_a, 0),
                kernelgen::access::AccessKind::Read if a.addr < 2 * bytes => (&mut reads_b, bytes),
                kernelgen::access::AccessKind::Read => (&mut reads_c, 2 * bytes),
            };
            let off = a.addr - base;
            assert!(off + a.bytes as u64 <= bytes, "access beyond array: {a:?}");
            assert!(set.insert(off), "duplicate access at offset {off}");
        }
        let vecs = cfg.n_vectors() as usize;
        assert_eq!(reads_b.len(), vecs);
        assert_eq!(writes_a.len(), vecs);
        assert_eq!(reads_c.len(), if cfg.op.uses_c() { vecs } else { 0 });
    }
}

#[test]
fn interpreter_matches_elementwise_reference() {
    let mut rng = SplitMix64::new(0x5EED_0003);
    for _ in 0..64 {
        let cfg = sample_config(&mut rng);
        let n = cfg.n_words as usize;
        let w = cfg.dtype.word_bytes() as usize;
        // Deterministic pseudo-random sources.
        let word = |seed: usize, i: usize| -> i64 { ((i * 2654435761 + seed) % 1000) as i64 };
        let mut b = vec![0u8; n * w];
        let mut c = vec![0u8; n * w];
        for i in 0..n {
            match cfg.dtype {
                DataType::I32 => {
                    b[i * 4..i * 4 + 4].copy_from_slice(&(word(1, i) as i32).to_ne_bytes());
                    c[i * 4..i * 4 + 4].copy_from_slice(&(word(2, i) as i32).to_ne_bytes());
                }
                DataType::F64 => {
                    b[i * 8..i * 8 + 8].copy_from_slice(&(word(1, i) as f64).to_ne_bytes());
                    c[i * 8..i * 8 + 8].copy_from_slice(&(word(2, i) as f64).to_ne_bytes());
                }
            }
        }
        let mut a = vec![0u8; n * w];
        kernelgen::execute(&cfg, &mut a, &b, &c);

        for i in 0..n {
            let (bv, cv) = (word(1, i) as f64, word(2, i) as f64);
            let expect = match cfg.op {
                StreamOp::Copy => bv,
                StreamOp::Scale => 3.0 * bv,
                StreamOp::Add => bv + cv,
                StreamOp::Triad => bv + 3.0 * cv,
                _ => unreachable!("sample_config draws STREAM ops only"),
            };
            let got = match cfg.dtype {
                DataType::I32 => {
                    i32::from_ne_bytes(a[i * 4..i * 4 + 4].try_into().expect("4")) as f64
                }
                DataType::F64 => f64::from_ne_bytes(a[i * 8..i * 8 + 8].try_into().expect("8")),
            };
            assert_eq!(got, expect, "element {} of {:?}", i, cfg.op);
        }
    }
}

#[test]
fn extent_coalescer_conserves_bytes_and_order() {
    let mut rng = SplitMix64::new(0x5EED_0004);
    for _ in 0..64 {
        let len = 1 + rng.gen_index(199);
        let accesses: Vec<Access> = (0..len)
            .map(|_| Access::read(rng.gen_index(10_000) as u64 * 4, 4))
            .collect();
        let window = 1 + rng.gen_index(63);
        let cap_exp = 5 + rng.gen_index(6) as u32;
        let co = Coalescer::extent(1 << cap_exp, window);
        let out: Vec<Access> = co.coalesce(accesses.clone()).collect();
        // Exact byte conservation (extent mode never pads).
        let in_bytes: u64 = accesses.iter().map(|a| a.bytes as u64).sum();
        let out_bytes: u64 = out.iter().map(|a| a.bytes as u64).sum();
        assert_eq!(in_bytes, out_bytes);
        // No transaction exceeds the burst cap.
        assert!(out.iter().all(|a| a.bytes <= 1 << cap_exp));
    }
}

#[test]
fn aligned_coalescer_covers_every_request() {
    let mut rng = SplitMix64::new(0x5EED_0005);
    for _ in 0..64 {
        let len = 1 + rng.gen_index(99);
        let accesses: Vec<Access> = (0..len)
            .map(|_| Access::read(rng.gen_index(10_000) as u64 * 4, 4))
            .collect();
        let co = Coalescer::new(128, 32);
        let out: Vec<Access> = co.coalesce(accesses.clone()).collect();
        for a in &accesses {
            assert!(
                out.iter().any(|s| s.addr <= a.addr
                    && a.addr + a.bytes as u64 <= s.addr + s.bytes as u64
                    && s.kind == a.kind),
                "request {a:?} not covered"
            );
        }
        // Aligned mode emits whole segments only.
        assert!(out.iter().all(|s| s.bytes == 128 && s.addr % 128 == 0));
    }
}

#[test]
fn dram_completion_never_precedes_issue() {
    let mut rng = SplitMix64::new(0x5EED_0006);
    for _ in 0..64 {
        let addr = rng.gen_index(1 << 24) as u64;
        let bytes = [4u32, 16, 64, 256, 1024][rng.gen_index(5)];
        let at = rng.gen_index(100_000) as u64;
        let write = rng.next_u64() & 1 == 1;
        let mut d = Dram::new(DramConfig::ddr3_quad_channel());
        let acc = Access {
            addr,
            bytes,
            kind: if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
        };
        let (start, done) = d.service(at, acc);
        assert!(done > at, "done {done} must be after issue {at}");
        assert!(done > start || bytes == 0);
    }
}

#[test]
fn random_configs_validate_end_to_end_on_cpu_and_aocl() {
    // End-to-end runs are heavier: fewer cases.
    let mut rng = SplitMix64::new(0x5EED_0007);
    for _ in 0..12 {
        let cfg = sample_config(&mut rng);
        for target in [TargetId::Cpu, TargetId::FpgaAocl] {
            match Runner::for_target(target).run(&BenchConfig::new(cfg.clone()).with_ntimes(1)) {
                Ok(m) => {
                    assert_eq!(m.validated, Some(true), "{target:?}");
                    assert!(m.gbps().is_finite() && m.gbps() > 0.0);
                }
                // Wide-vector x deep-unroll points legitimately exceed
                // the Stratix V's logic; synthesis failure is a valid
                // sweep outcome, any other error is a bug.
                Err(mpcl::ClError::BuildProgramFailure(log)) => {
                    assert!(
                        log.contains("does not fit"),
                        "unexpected build failure: {log}"
                    );
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
    }
}

/// STREAM's counting rule: arrays counted per element of each op.
/// GUPS counts its read-modify-write as three accesses.
fn counted_arrays(op: kernelgen::Op) -> u64 {
    use kernelgen::Op;
    match op {
        Op::Copy | Op::Scale | Op::Ptrans => 2,
        Op::Add | Op::Triad | Op::DgemmLite | Op::RandomAccess => 3,
    }
}

#[test]
fn random_family_configs_validate_end_to_end() {
    // STREAM + HPCC ops, with and without channels, on all four
    // targets: every successful run must validate, count its bytes the
    // STREAM way, keep its kernel time inside its wall time and its
    // stalls inside its kernel time.
    let mut rng = SplitMix64::new(0x5EED_0008);
    let drawn: Vec<KernelConfig> = (0..12).map(|_| sample_family_config(&mut rng)).collect();
    // Every op once more, channeled, so the byte rule sees the whole
    // family whatever the draws picked.
    let every_op = kernelgen::Op::FAMILIES.map(|op| {
        let mut cfg = KernelConfig::baseline(op, 1 << 10);
        cfg.channel = Some(kernelgen::ChannelSpec { depth: 16 });
        validate(&cfg).expect("baseline family configs are valid");
        cfg
    });
    for cfg in drawn.into_iter().chain(every_op) {
        for target in TargetId::ALL {
            let ctx = format!("{target:?} {cfg:?}");
            match Runner::for_target(target).run(&BenchConfig::new(cfg.clone()).with_ntimes(1)) {
                Ok(m) => {
                    assert_eq!(m.validated, Some(true), "{ctx}");
                    assert!(m.gbps().is_finite() && m.gbps() > 0.0, "{ctx}");
                    let bytes = counted_arrays(cfg.op) * cfg.n_words * cfg.dtype.word_bytes();
                    assert_eq!(m.bytes_moved, bytes, "{ctx}");
                    assert!(
                        m.best_kernel_ns <= m.best_wall_ns,
                        "{ctx}: kernel {} ns > wall {} ns",
                        m.best_kernel_ns,
                        m.best_wall_ns
                    );
                    assert!(
                        m.stall_ns >= 0.0 && m.stall_ns <= m.kernel_ns,
                        "{ctx}: stall {} ns of {} kernel ns",
                        m.stall_ns,
                        m.kernel_ns
                    );
                    if cfg.channel.is_none() {
                        assert_eq!(m.stall_ns, 0.0, "single-stage kernels never stall");
                    }
                }
                // Designs past an FPGA's logic fail synthesis, and
                // SDAccel pipes need a power-of-two depth (so not 0):
                // both are valid sweep outcomes, any other error is a bug.
                Err(mpcl::ClError::BuildProgramFailure(log)) => {
                    let bad_pipe =
                        target == TargetId::FpgaSdaccel && log.contains("xcl_reqd_pipe_depth");
                    assert!(
                        log.contains("does not fit") || bad_pipe,
                        "unexpected build failure: {log}"
                    );
                }
                Err(other) => panic!("unexpected error: {other} for {ctx}"),
            }
        }
    }
}
