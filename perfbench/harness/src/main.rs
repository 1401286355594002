//! `perfbench-harness`: the in-process half of the repository benchmark
//! (`perfbench/run.py` drives it). Subcommands:
//!
//! * `exec --report F [--watch P] [--pid-file F] -- CMD...` — run CMD,
//!   write its wall time, CPU time, peak RSS and exit code to F;
//! * `trace-cli --out F -- ARGS...` — run `mpstream ARGS` in-process with
//!   every layer timed (see `layers`);
//! * `make-history --dir D --seed N` — write a seeded store history of
//!   102 finished jobs;
//! * `store-layers --store D --ids 1,2,..` — time `ResultStore::open`
//!   and `result_lines` on a store;
//! * `interp-check --seed N` — cross-check the kernel
//!   interpreter against scalar loops.

mod history;
mod interp;
mod launch;
mod layers;
mod sys;

use std::process::ExitCode;

/// SplitMix64: the benchmark's own seeded generator.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or(&[]);
    let run = match args.first().map(String::as_str) {
        Some("exec") => launch::main(rest),
        Some("trace-cli") => layers::main(rest),
        Some("make-history") => history::make(rest),
        Some("store-layers") => history::layers(rest),
        Some("interp-check") => interp::main(rest),
        _ => Err(
            "usage: perfbench-harness exec|trace-cli|make-history|store-layers|interp-check ..."
                .into(),
        ),
    };
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            ExitCode::from(2)
        }
    }
}
