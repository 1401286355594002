//! # mpstream-core — the MP-STREAM benchmark
//!
//! The paper's contribution re-assembled: a STREAM-style benchmark whose
//! point is a *tunable design space* for sustained memory bandwidth on
//! heterogeneous devices. This crate drives the mpcl runtime and the four
//! device models:
//!
//! * [`config`] — [`config::BenchConfig`]: a kernel tuning point plus the
//!   measurement protocol (repetitions, warm-up, validation, stream
//!   source/destination);
//! * [`runner`] — executes a configuration on a device the way the
//!   paper's host code does (init, transfer, N timed launches, best-of,
//!   STREAM-style result validation) and produces a
//!   [`runner::Measurement`];
//! * [`space`] — [`space::ParamSpace`]: cartesian sweeps over the tuning
//!   dimensions of §III;
//! * [`engine`] — the parallel execution engine: a work-list of
//!   configurations fanned across a thread pool with a shared
//!   build-artifact cache, returning deterministic-order
//!   [`engine::Outcome`]s;
//! * [`dse`] — automated design-space exploration: an open ask/tell
//!   [`dse::Strategy`] trait with exhaustive, random, hill-climbing,
//!   annealing, genetic and surrogate-model search, every batch
//!   executing through the engine;
//! * [`report`] — tables and CSV for the harness;
//! * [`chart`] — the general deterministic ASCII chart renderer
//!   (line/scatter/bar, linear/log2/log10 axes) behind `--chart`
//!   reports, `mpstream watch` and the golden figure charts;
//! * [`paperdata`] — the paper's plotted data points (transcribed from
//!   the figures) plus shape checks used by EXPERIMENTS.md;
//! * [`experiments`] — one entry point per figure (1a, 1b, 2, 3, 4a, 4b)
//!   that regenerates it on the simulated targets.

pub mod bandwidth;
pub mod chart;
pub mod checkpoint;
pub mod cli;
pub mod config;
pub mod dse;
pub mod engine;
pub mod env;
pub mod experiments;
pub mod extensions;
pub mod json;
pub mod paperdata;
pub mod report;
pub mod rng;
pub mod runner;
pub mod space;
pub mod sweep;
pub mod trace;

pub use bandwidth::{gbps_to_kbps, mb_label};
pub use chart::{sparkline, Chart, Scale};
pub use checkpoint::Checkpoint;
pub use config::{BenchConfig, StreamLocation};
pub use dse::{
    explore, explore_target, search_target, AnnealSearch, DseResult, ExhaustiveSearch, Explorer,
    GeneticSearch, HillClimbSearch, ModelSearch, RandomSearch, Strategy, SurrogateCheckpoint,
};
pub use engine::{default_jobs, CancelToken, Engine, Outcome, ResiliencePolicy, RetryStats};
pub use experiments::{run_figure, Figure, FigureId, RunOpts};
pub use extensions::{all_extensions, ExtensionReport};
pub use report::{sweep_summary_table, Series, SweepSummary, Table};
pub use rng::SplitMix64;
pub use runner::{Measurement, Runner};
pub use space::ParamSpace;
pub use sweep::{
    pareto_front, pareto_front_of_points, run_space, sweep_space, sweep_space_checkpointed,
    ParetoPoint, SweepResult,
};
pub use trace::Trace;
