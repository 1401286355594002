//! Acceptance tests for model-guided design-space exploration: on the
//! simulated FPGA targets the genetic and surrogate-model strategies
//! must find a configuration within 2% of the exhaustive best using at
//! most a tenth of the exhaustive point count — deterministically for a
//! fixed seed at any `--jobs`, clean or under injected faults — and a
//! checkpointed search must resume along the original visit order.

use kernelgen::{KernelConfig, LoopMode, StreamOp};
use mpcl::{FaultPlan, FaultSpec};
use mpstream_core::dse::{search_target, GeneticSearch, HillClimbSearch, ModelSearch, Strategy};
use mpstream_core::{
    sweep_space, BenchConfig, CancelToken, Checkpoint, Engine, Outcome, ParamSpace,
    ResiliencePolicy,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use targets::TargetId;

/// The 90-point quick space the CI smoke job searches: 2 ops x 5 widths
/// x 3 unrolls x 3 loop modes.
fn quick_space() -> ParamSpace {
    ParamSpace::new()
        .ops([StreamOp::Copy, StreamOp::Triad])
        .sizes_bytes([64 << 10])
        .widths([1, 2, 4, 8, 16])
        .loop_modes(LoopMode::ALL)
        .unrolls([1, 2, 4])
}

fn protocol(k: KernelConfig) -> BenchConfig {
    BenchConfig::new(k).with_ntimes(1).with_validation(false)
}

fn best_gbps(trace: &[Outcome]) -> f64 {
    trace
        .iter()
        .filter_map(Outcome::gbps)
        .fold(f64::NEG_INFINITY, f64::max)
}

fn temp_path(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "mpstream-dse-{tag}-{}-{}.jsonl",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The CLI's DEFAULT_DSE_SEED — the quality bound below is pinned to
/// it, so the `mpstream dse` defaults the CI smoke job runs are the
/// exact configuration proven here.
const SEED: u64 = 42;

/// The headline claim: within 2% of the exhaustive best on ≤10% of the
/// points, on both FPGA targets, for both smart strategies.
#[test]
fn genetic_and_model_match_exhaustive_within_two_percent_on_a_tenth() {
    let space = quick_space();
    let n = space.configs().len();
    assert_eq!(n, 90, "the quick space is the documented 90 points");
    let budget = n / 10;

    for target in [TargetId::FpgaAocl, TargetId::FpgaSdaccel] {
        let engine = Engine::with_jobs(4);
        let exhaustive = sweep_space(&engine, target, &space, protocol).points;
        let optimum = best_gbps(&exhaustive);
        assert!(optimum.is_finite());

        let strategies: Vec<(&str, Box<dyn Strategy>)> = vec![
            (
                "genetic",
                Box::new(GeneticSearch::new(&space, budget, SEED)),
            ),
            ("model", Box::new(ModelSearch::new(&space, budget, SEED))),
        ];
        for (name, mut strategy) in strategies {
            let r = search_target(&engine, target, strategy.as_mut(), budget, protocol, None);
            assert!(
                r.evaluations() <= budget,
                "{name} on {target:?} used {} of {budget} points",
                r.evaluations()
            );
            let found = r.best.as_ref().and_then(Outcome::gbps).unwrap_or(0.0);
            assert!(
                found >= optimum * 0.98,
                "{name} on {target:?}: {found:.3} GB/s vs exhaustive {optimum:.3} \
                 ({} points of {n})",
                r.evaluations()
            );
        }
    }
}

/// A quick space mixing the STREAM family with the HPCC extension ops
/// and both channel variants. Invalid combinations (HPCC ops are
/// scalar-only) are filtered by the space itself, like any sweep.
fn mixed_family_space() -> ParamSpace {
    ParamSpace::new()
        .ops([
            StreamOp::Copy,
            StreamOp::Triad,
            StreamOp::RandomAccess,
            StreamOp::DgemmLite,
        ])
        .sizes_bytes([64 << 10])
        .widths([1, 2, 4])
        .loop_modes(LoopMode::ALL)
        .unrolls([1, 2])
        .channel_depths([None, Some(4)])
}

/// The 2% quality bound must survive the workload-family growth: on a
/// space mixing STREAM and HPCC kernels (where the surrogate's new
/// family/channel feature dimensions are what separates the regimes),
/// genetic and model search still land within 2% of the exhaustive
/// best. The mixed landscape is genuinely harder — HPCC ops are
/// scalar-only, so mutation paths between families squeeze through
/// width-1 configs — which is why this bound is proven at a third of
/// the space rather than the tenth the pure-STREAM quick space needs.
#[test]
fn searches_stay_within_two_percent_on_a_mixed_stream_hpcc_space() {
    let space = mixed_family_space();
    let configs = space.configs();
    let n = configs.len();
    assert!(
        configs.iter().any(|c| !c.op.is_stream()),
        "HPCC ops survive the validity filter"
    );
    assert!(
        configs.iter().any(|c| c.channel.is_some()),
        "channeled variants survive the validity filter"
    );

    let engine = Engine::with_jobs(4);
    let target = TargetId::FpgaAocl;
    let exhaustive = sweep_space(&engine, target, &space, protocol).points;
    let optimum = best_gbps(&exhaustive);
    assert!(optimum.is_finite());

    let budget = (n / 3).max(32);
    let strategies: Vec<(&str, Box<dyn Strategy>)> = vec![
        (
            "genetic",
            Box::new(GeneticSearch::new(&space, budget, SEED)),
        ),
        ("model", Box::new(ModelSearch::new(&space, budget, SEED))),
    ];
    for (name, mut strategy) in strategies {
        let r = search_target(&engine, target, strategy.as_mut(), budget, protocol, None);
        let found = r.best.as_ref().and_then(Outcome::gbps).unwrap_or(0.0);
        assert!(
            found >= optimum * 0.98,
            "{name}: {found:.3} GB/s vs exhaustive {optimum:.3} ({} points of {n})",
            r.evaluations()
        );
    }
}

/// Golden determinism: same seed, same visit order and scores at
/// `--jobs` 1 and 8 — the batch formulation makes worker count a pure
/// optimization for iterative searches too.
#[test]
fn genetic_and_model_are_jobs_invariant() {
    let space = quick_space();
    let budget = 9;
    let run = |jobs: usize, genetic: bool| {
        let engine = Engine::with_jobs(jobs);
        let mut strategy: Box<dyn Strategy> = if genetic {
            Box::new(GeneticSearch::new(&space, budget, SEED))
        } else {
            Box::new(ModelSearch::new(&space, budget, SEED))
        };
        search_target(
            &engine,
            TargetId::FpgaAocl,
            strategy.as_mut(),
            budget,
            protocol,
            None,
        )
    };
    for genetic in [true, false] {
        let serial = run(1, genetic);
        let parallel = run(8, genetic);
        assert_eq!(serial.trace.len(), parallel.trace.len());
        for (i, (a, b)) in serial.trace.iter().zip(&parallel.trace).enumerate() {
            assert_eq!(a.config, b.config, "visit order diverged at point {i}");
            assert_eq!(a.gbps(), b.gbps(), "score diverged at point {i}");
        }
    }
}

/// The same invariance must hold under an injected fault plan: the
/// engine's retry loop heals transient faults identically at any worker
/// count, so the strategy sees the same outcomes in the same order.
#[test]
fn searches_are_jobs_invariant_under_faults() {
    let space = quick_space();
    let budget = 12;
    let plan = || {
        Arc::new(FaultPlan::new(
            FaultSpec::parse("build=0.1,timeout=0.05,lost=0.03,bitflip=0.05").unwrap(),
            20260807,
        ))
    };
    let run = |jobs: usize| {
        let engine = Engine::with_jobs(jobs)
            .with_policy(ResiliencePolicy::retrying(10))
            .with_faults(Some(plan()));
        let mut strategy = ModelSearch::new(&space, budget, SEED);
        search_target(
            &engine,
            TargetId::FpgaAocl,
            &mut strategy,
            budget,
            protocol,
            None,
        )
    };
    let serial = run(1);
    let parallel = run(8);
    assert!(serial.faults.total() > 0, "the plan did inject faults");
    assert_eq!(serial.trace.len(), parallel.trace.len());
    for (i, (a, b)) in serial.trace.iter().zip(&parallel.trace).enumerate() {
        assert_eq!(a.config, b.config, "visit order diverged at point {i}");
        assert_eq!(a.gbps(), b.gbps(), "score diverged at point {i}");
        assert_eq!(a.retries, b.retries, "retry count diverged at point {i}");
    }
}

/// Checkpoint/resume equivalence: a search killed mid-way and resumed
/// with the same seed retraces the original visit order — checkpointed
/// points are answered from disk (and count against the budget), the
/// rest run fresh, and the final trace is identical to an uninterrupted
/// run.
#[test]
fn interrupted_search_resumes_along_the_same_visit_order() {
    let space = quick_space();
    let path = temp_path("resume");

    // Uninterrupted reference at full budget.
    let engine = Engine::with_jobs(4);
    let mut reference = ModelSearch::new(&space, 12, SEED);
    let full = search_target(
        &engine,
        TargetId::FpgaAocl,
        &mut reference,
        12,
        protocol,
        None,
    );
    assert_eq!(full.trace.len(), 12);

    // First run: same seed, budget 6, checkpointed.
    {
        let ckpt = Checkpoint::create(&path).unwrap();
        let mut partial = ModelSearch::new(&space, 12, SEED);
        let r = search_target(
            &engine,
            TargetId::FpgaAocl,
            &mut partial,
            6,
            protocol,
            Some(&ckpt),
        );
        assert_eq!(r.trace.len(), 6);
        assert_eq!(r.resumed, 0);
    }

    // Second run: full budget against the half-filled checkpoint.
    let ckpt = Checkpoint::resume(&path).unwrap();
    assert_eq!(ckpt.len(), 6, "six points on disk");
    let mut resumed = ModelSearch::new(&space, 12, SEED);
    let r = search_target(
        &engine,
        TargetId::FpgaAocl,
        &mut resumed,
        12,
        protocol,
        Some(&ckpt),
    );
    assert_eq!(r.resumed, 6, "first six answered from the checkpoint");
    assert_eq!(r.trace.len(), full.trace.len());
    for (i, (a, b)) in r.trace.iter().zip(&full.trace).enumerate() {
        assert_eq!(a.config, b.config, "resume diverged at point {i}");
        assert_eq!(a.gbps(), b.gbps(), "score diverged at point {i}");
    }
    std::fs::remove_file(&path).ok();
}

/// The climber-cancellation bugfix, end to end: a token fired while a
/// hill climb is in flight stops the search promptly — the old serial
/// implementation ran to its full budget regardless.
#[test]
fn cancel_token_stops_an_iterative_search_mid_run() {
    let space = quick_space();
    let token = CancelToken::new();
    let engine = Engine::with_jobs(2).with_cancel(Some(token.clone()));

    // Fire the token mid-search, deterministically: the protocol
    // closure runs once per evaluated point, so cancelling from inside
    // it after a handful of points always lands while the walk is in
    // flight — a timer would race the simulator's speed.
    let fired = AtomicU64::new(0);
    let cancelling_protocol = |k: KernelConfig| {
        if fired.fetch_add(1, Ordering::Relaxed) + 1 == 5 {
            token.cancel();
        }
        protocol(k)
    };
    let mut strategy = HillClimbSearch::new(&space, SEED);
    let r = search_target(
        &engine,
        TargetId::FpgaAocl,
        &mut strategy,
        0,
        cancelling_protocol,
        None,
    );
    assert!(r.cancelled, "the fired token was observed");
    assert!(
        r.trace.len() < space.configs().len(),
        "the walk stopped early ({} of {} points)",
        r.trace.len(),
        space.configs().len()
    );

    // And a pre-fired token stops the search before any evaluation.
    let token = CancelToken::new();
    token.cancel();
    let engine = Engine::with_jobs(2).with_cancel(Some(token));
    let mut strategy = GeneticSearch::new(&space, 9, SEED);
    let r = search_target(
        &engine,
        TargetId::FpgaAocl,
        &mut strategy,
        9,
        protocol,
        None,
    );
    assert!(r.cancelled);
    assert!(r.trace.is_empty());
}
