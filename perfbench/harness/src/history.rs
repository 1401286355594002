//! Store histories for the serving workload, and the store-side layer
//! timings of its traced run.
//!
//! `make-history` writes a history of finished jobs through the public
//! `serve::store` API. Six template jobs are really simulated (cheap
//! FPGA/GPU points) and their checkpoint lines and reports are reused for
//! the rest in a seeded order, so a history of 102 jobs costs a
//! fraction of a second to write rather than a hundred simulations.
//!
//! `store-layers` times `ResultStore::open` on a store directory and one
//! full `result_lines` read of each listed job.

use crate::sys::process_cpu_ns;
use crate::Rng;
use mpstream_core::cli;
use mpstream_core::Checkpoint;
use mpstream_serve::spec::request_to_spec;
use mpstream_serve::{JobRecord, JobState, ResultStore};
use std::path::PathBuf;

/// Finished jobs in a history: 17 per template.
const HISTORY_JOBS: u64 = 102;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The argument vector of history template `t`: a sweep of 4 ops x 5
/// widths x `unrolls` points on a small array.
fn template_argv(t: usize) -> Vec<String> {
    let targets = ["aocl", "sdaccel", "gpu"];
    let target = targets[t % targets.len()];
    let unrolls = [
        "1,2,4,8,16,32",
        "1,2,3,4,5,6,7,8,9",
        "1,2,4,8,12,16,20,24,28,32,36,40",
    ][t % 3];
    let size_kib = 16 + 4 * t;
    [
        "sweep",
        "--target",
        target,
        "--ops",
        "copy,scale,add,triad",
        "--vectors",
        "1,2,4,8,16",
        "--unrolls",
        unrolls,
        "--size",
        &format!("{size_kib}K"),
        "--ntimes",
        "2",
        "--jobs",
        "1",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

pub fn make(args: &[String]) -> Result<(), String> {
    let dir = PathBuf::from(flag(args, "--dir").ok_or("make-history: --dir is required")?);
    let seed: u64 = flag(args, "--seed")
        .ok_or("make-history: --seed is required")?
        .parse()
        .map_err(|_| "make-history: bad --seed")?;
    let templates = 6usize;
    let mut rng = Rng(seed ^ 0x5EED_0F41_57AB);

    let store = ResultStore::open(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut made: Vec<(String, usize, Vec<String>, String)> = Vec::new();
    for t in 0..templates {
        let argv = template_argv(t);
        let req = cli::parse_args(&argv)?.ok_or("template parsed to --help")?;
        let spec = request_to_spec(&req)?;
        let tmp = dir.join(format!("template-{t}.jsonl"));
        let ckpt = Checkpoint::create(&tmp).map_err(|e| e.to_string())?;
        let engine = cli::build_engine(&req, None);
        let result = cli::run_sweep(&engine, &req, Some(&ckpt));
        drop(ckpt);
        let lines: Vec<String> = std::fs::read_to_string(&tmp)
            .map_err(|e| e.to_string())?
            .lines()
            .map(str::to_string)
            .collect();
        std::fs::remove_file(&tmp).map_err(|e| e.to_string())?;
        let report = cli::render_sweep_report(&req, &result);
        made.push((spec, result.points.len(), lines, report));
    }
    // Every template serves the same number of jobs (give or take one),
    // in a seeded order, so the history's size does not depend on the seed.
    let mut order: Vec<usize> = (0..HISTORY_JOBS as usize).map(|i| i % templates).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    for (id, &t) in (1..=HISTORY_JOBS).zip(&order) {
        let (spec, total, lines, report) = &made[t];
        let mut rec = JobRecord {
            id,
            state: JobState::Queued,
            spec: spec.clone(),
            total: *total,
            error: String::new(),
            tenant: String::new(),
            updated_unix: 0,
        };
        store.record(&rec).map_err(|e| e.to_string())?;
        rec.state = JobState::Running;
        store.record(&rec).map_err(|e| e.to_string())?;
        store
            .append_result_lines(id, lines)
            .map_err(|e| e.to_string())?;
        store.write_report(id, report).map_err(|e| e.to_string())?;
        rec.state = JobState::Done;
        store.record(&rec).map_err(|e| e.to_string())?;
    }
    Ok(())
}

pub fn layers(args: &[String]) -> Result<(), String> {
    let dir = PathBuf::from(flag(args, "--store").ok_or("store-layers: --store is required")?);
    let ids: Vec<u64> = flag(args, "--ids")
        .unwrap_or("")
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().map_err(|_| format!("bad id '{s}'")))
        .collect::<Result<_, _>>()?;
    let t0 = process_cpu_ns();
    let store = ResultStore::open(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let open_s = (process_cpu_ns() - t0) as f64 * 1e-9;
    let mut per_record: Vec<f64> = Vec::new();
    let mut records = 0usize;
    for id in ids {
        let t0 = process_cpu_ns();
        let lines = store.result_lines(id);
        let dt = (process_cpu_ns() - t0) as f64 * 1e-9;
        if !lines.is_empty() {
            per_record.push(dt / lines.len() as f64);
            records += lines.len();
        }
    }
    per_record.sort_by(f64::total_cmp);
    let median = per_record.get(per_record.len() / 2).copied().unwrap_or(0.0);
    println!(
        "{{\"open_s\": {open_s}, \"result_lines_s\": {median}, \"records\": {records}, \"jobs\": {}}}",
        store.jobs().len()
    );
    Ok(())
}
