//! Automated design-space exploration on the AOCL FPGA target — the
//! use-case the paper motivates ("both a manual and automated design-
//! space exploration route will benefit from a benchmark that fully
//! explores the memory-access design-space").
//!
//! Sweeps vector width x loop mode x unroll x vendor replication with
//! three budgeted searches — the classic hill climber, a seeded genetic
//! search, and a ridge-regression surrogate model — then compares all
//! of them against an exhaustive sweep fanned across the execution
//! engine's thread pool. Every search shares one build-artifact cache,
//! so the exhaustive pass re-synthesizes nothing the searches already
//! visited. Synthesis failures (resource exhaustion) are part of the
//! search space and are counted.
//!
//! ```text
//! cargo run --release --example design_space_exploration
//! ```

use kernelgen::{AoclOpts, LoopMode, StreamOp, VendorOpts};
use mpstream_core::{
    search_target, BenchConfig, DseResult, Engine, ExhaustiveSearch, GeneticSearch,
    HillClimbSearch, ModelSearch, ParamSpace, Table,
};
use targets::TargetId;

fn main() {
    let space = ParamSpace::new()
        .ops([StreamOp::Copy])
        .sizes_mb([4])
        .widths([1, 2, 4, 8, 16])
        .loop_modes(LoopMode::ALL)
        .unrolls([1, 2, 4, 8])
        .vendors([
            VendorOpts::None,
            VendorOpts::Aocl(AoclOpts {
                num_simd_work_items: 1,
                num_compute_units: 2,
            }),
            VendorOpts::Aocl(AoclOpts {
                num_simd_work_items: 1,
                num_compute_units: 4,
            }),
            VendorOpts::Aocl(AoclOpts {
                num_simd_work_items: 1,
                num_compute_units: 8,
            }),
        ]);
    println!(
        "Design space: {} raw combinations, {} valid configurations\n",
        space.raw_len(),
        space.configs().len()
    );

    let engine = Engine::new();
    println!(
        "Execution engine: {} worker thread(s), shared build cache\n",
        engine.jobs()
    );
    let protocol = |k| BenchConfig::new(k).with_ntimes(1).with_validation(false);

    const BUDGET: usize = 40;
    const SEED: u64 = 20180521;

    println!("Hill-climbing with a budget of {BUDGET} evaluations...");
    let mut climber = HillClimbSearch::new(&space, SEED);
    let hc = search_target(
        &engine,
        TargetId::FpgaAocl,
        &mut climber,
        BUDGET,
        protocol,
        None,
    );
    report("hill-climb", &hc);

    println!("\nGenetic search, same budget...");
    let mut genetic = GeneticSearch::new(&space, BUDGET, SEED);
    let ga = search_target(
        &engine,
        TargetId::FpgaAocl,
        &mut genetic,
        BUDGET,
        protocol,
        None,
    );
    report("genetic", &ga);

    println!("\nSurrogate-model search (ridge regression), same budget...");
    let mut model = ModelSearch::new(&space, BUDGET, SEED);
    let md = search_target(
        &engine,
        TargetId::FpgaAocl,
        &mut model,
        BUDGET,
        protocol,
        None,
    );
    report("model", &md);
    println!("Model search's Pareto front (bandwidth vs synthesized logic):");
    println!("{}", md.pareto_table().to_text());

    println!("\nExhaustive sweep for reference (every configuration, in parallel)...");
    let mut grid = ExhaustiveSearch::new(&space);
    let ex = search_target(&engine, TargetId::FpgaAocl, &mut grid, 0, protocol, None);
    report("exhaustive", &ex);

    let stats = engine.cache_stats();
    println!(
        "\nBuild cache: {} synthesis runs, {} reused ({:.0}% hit rate) — the \
         exhaustive pass skipped every point the searches had synthesized.",
        stats.misses,
        stats.hits,
        100.0 * stats.hit_rate()
    );

    let best_ex = ex.best.as_ref().and_then(|o| o.gbps()).unwrap_or(0.0);
    for (label, r) in [("Hill-climb", &hc), ("Genetic", &ga), ("Model", &md)] {
        let best = r.best.as_ref().and_then(|o| o.gbps()).unwrap_or(0.0);
        println!(
            "{label} reached {:.0}% of the exhaustive optimum using {} of {} evaluations.",
            100.0 * best / best_ex,
            r.trace.len(),
            ex.trace.len()
        );
    }

    if let Some(best) = &ex.best {
        println!("\nBest configuration's generated OpenCL kernel:\n");
        println!("{}", kernelgen::generate_source(&best.config));
    }
}

fn report(label: &str, r: &DseResult) {
    let Some(best) = &r.best else {
        println!("{label}: no configuration built successfully");
        return;
    };
    let mut t = Table::new(&[
        "search",
        "evaluations",
        "synthesis failures",
        "best GB/s",
        "config",
    ]);
    t.row(&[
        label.to_string(),
        r.trace.len().to_string(),
        r.failures.to_string(),
        format!("{:.2}", best.gbps().unwrap_or(0.0)),
        format!(
            "vec{} {} unroll{} {:?}",
            best.config.vector_width.get(),
            best.config.loop_mode.label(),
            best.config.unroll,
            best.config.vendor
        ),
    ]);
    println!("{}", t.to_text());
}
