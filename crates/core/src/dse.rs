//! Automated design-space exploration around an open ask/tell
//! [`Strategy`] trait.
//!
//! The paper motivates MP-STREAM as a tool for "manual or automated
//! design space exploration". This module provides the automated side.
//! A strategy is a batch optimizer: [`Strategy::ask`] proposes the next
//! batch of configurations to measure, [`Strategy::tell`] feeds the
//! measured [`Outcome`]s back. The drive loop between the two is owned
//! by this module, which gives every strategy — including the
//! climbers that used to run serially — the same execution substrate a
//! sweep has:
//!
//! * batches execute through the [`Engine`] thread pool at any `--jobs`,
//!   with input-ordered results, so visit order and scores are
//!   byte-identical regardless of the worker count;
//! * batches can be answered from a [`Checkpoint`] and recorded to it
//!   as workers finish, so a killed search resumes mid-walk;
//! * the engine's [`CancelToken`](crate::engine::CancelToken) stops the
//!   loop between (and inside) batches, so serve/cluster cancel works
//!   for iterative searches, not just sweeps.
//!
//! Six strategies ship in-tree: [`ExhaustiveSearch`], [`RandomSearch`],
//! [`HillClimbSearch`], [`AnnealSearch`] (the original four, now batch
//! formulated), plus [`GeneticSearch`] (seeded tournament selection with
//! one-dimension mutation) and [`ModelSearch`] (a ridge-regression
//! surrogate over the architecture-independent features of
//! [`kernelgen::features()`], ranking unevaluated configurations and
//! asking only the top-k each round).
//!
//! Two evaluation harnesses: [`search_target`] drives a device target
//! through the engine (what the CLI, the daemon and the cluster run),
//! and [`explore`] drives an arbitrary objective serially on the calling
//! thread (what the strategy unit tests use).

use crate::checkpoint::Checkpoint;
use crate::config::BenchConfig;
use crate::engine::{Engine, Outcome, RetryStats};
use crate::report::{config_label, pareto_table, ParetoRow, Table};
use crate::rng::SplitMix64;
use crate::runner::Measurement;
use crate::space::ParamSpace;
use crate::sweep::{pareto_front_of_points, run_checkpointed, ParetoPoint};
use kernelgen::KernelConfig;
use mpcl::{CacheStats, ClError, FaultCounters};
use std::collections::HashMap;

/// A batch search strategy over a fixed candidate set.
///
/// The contract:
///
/// * [`ask`](Strategy::ask) proposes configurations that have **not**
///   been told yet, without duplicates within the batch. An empty batch
///   means the strategy is done.
/// * Every asked configuration is evaluated and passed to
///   [`tell`](Strategy::tell) in ask order — except when the budget
///   truncates the final batch or a cancel stops the search, in which
///   case `tell` is simply never called again.
/// * Strategies must be deterministic: the same construction (space,
///   seed) and the same `tell` history produce the same `ask` sequence.
///   The engine returns input-ordered outcomes, so determinism here
///   makes the whole search invariant under `--jobs`.
pub trait Strategy {
    /// Short lower-case name for reports (`"genetic"`, `"model"`, ...).
    fn name(&self) -> &'static str;
    /// Propose the next batch; empty means the search is finished.
    fn ask(&mut self) -> Vec<KernelConfig>;
    /// Record the outcomes of (a prefix of) the last asked batch.
    fn tell(&mut self, outcomes: &[Outcome]);
}

/// The result of a search. `trace` holds every evaluated [`Outcome`] in
/// visit order (the same vocabulary sweeps use).
#[derive(Debug, Clone)]
pub struct DseResult {
    /// Best-scoring configuration, if any evaluation succeeded.
    pub best: Option<Outcome>,
    /// Every evaluation, in visit order.
    pub trace: Vec<Outcome>,
    /// How many evaluations failed (synthesis errors etc.).
    pub failures: usize,
    /// Points answered from a checkpoint instead of executed.
    pub resumed: usize,
    /// Size of the candidate space the search ran over.
    pub space_size: usize,
    /// Name of the strategy that produced this result.
    pub strategy: String,
    /// True when a cancel token stopped the search early.
    pub cancelled: bool,
    /// Build-cache hits/misses incurred by this search.
    pub cache: CacheStats,
    /// Retry/panic counters incurred by this search.
    pub retry: RetryStats,
    /// Faults injected during this search (zero without a fault plan).
    pub faults: FaultCounters,
}

impl DseResult {
    fn from_trace(trace: Vec<Outcome>) -> Self {
        let failures = trace.iter().filter(|o| o.result.is_err()).count();
        // NaN-safe best pick: a NaN bandwidth (a degenerate measurement,
        // e.g. zero timed bytes) must neither panic the comparison nor
        // win it, so NaN scores are filtered out and the survivors are
        // totally ordered by `f64::total_cmp`.
        let best = trace
            .iter()
            .filter_map(|o| o.gbps().filter(|g| !g.is_nan()).map(|g| (o, g)))
            .max_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(o, _)| o.clone());
        DseResult {
            best,
            trace,
            failures,
            resumed: 0,
            space_size: 0,
            strategy: String::new(),
            cancelled: false,
            cache: CacheStats::default(),
            retry: RetryStats::default(),
            faults: FaultCounters::default(),
        }
    }

    /// Number of evaluated points (including checkpoint-answered ones).
    pub fn evaluations(&self) -> usize {
        self.trace.len()
    }

    /// The bandwidth-vs-logic Pareto frontier of the visited points
    /// (epsilon dominance, ascending logic) — empty for targets without
    /// resource reports.
    pub fn pareto_front(&self) -> Vec<ParetoPoint> {
        pareto_front_of_points(&self.trace)
    }

    /// The Pareto frontier rendered as a table (config, GB/s, logic).
    pub fn pareto_table(&self) -> Table {
        let rows: Vec<ParetoRow> = self
            .pareto_front()
            .into_iter()
            .map(|p| ParetoRow {
                label: config_label(&p.config),
                gbps: p.gbps,
                logic: p.logic,
            })
            .collect();
        pareto_table(&rows)
    }
}

/// What one batch evaluation produced, as seen by the drive loop.
struct BatchOutcome {
    outcomes: Vec<Outcome>,
    resumed: usize,
    cancelled: bool,
}

/// The drive loop: ask, evaluate, tell, until the strategy is done or
/// the budget (0 = unbounded) is spent. On cancellation the partial
/// batch is kept in the trace (minus never-run slots) but not told.
fn drive(
    strategy: &mut dyn Strategy,
    budget: usize,
    mut eval_batch: impl FnMut(&[KernelConfig]) -> BatchOutcome,
) -> (Vec<Outcome>, usize, bool) {
    let mut trace: Vec<Outcome> = Vec::new();
    let mut resumed = 0usize;
    // A well-behaved strategy never re-asks a told config, so the round
    // count is bounded by the space size; this guard only protects the
    // loop from a buggy external Strategy impl.
    let mut rounds_left = usize::MAX;
    loop {
        if budget > 0 && trace.len() >= budget {
            break;
        }
        if rounds_left == 0 {
            break;
        }
        let mut batch = strategy.ask();
        if batch.is_empty() {
            break;
        }
        if rounds_left == usize::MAX {
            // First ask reveals a lower bound on the space size; allow
            // generous slack for one-point-per-round strategies.
            rounds_left = 64 * (budget.max(batch.len()).max(1)) + 1024;
        }
        rounds_left -= 1;
        if budget > 0 {
            batch.truncate(budget - trace.len());
        }
        let result = eval_batch(&batch);
        resumed += result.resumed;
        if result.cancelled {
            trace.extend(
                result
                    .outcomes
                    .into_iter()
                    .filter(|o| !matches!(o.result, Err(ClError::Cancelled))),
            );
            return (trace, resumed, true);
        }
        strategy.tell(&result.outcomes);
        trace.extend(result.outcomes);
    }
    (trace, resumed, false)
}

/// Run `strategy` over `space`, scoring with `objective` on the calling
/// thread. Higher [`Measurement::gbps`] is better; `budget` caps the
/// number of evaluated points (0 = unbounded).
pub fn explore(
    space: &ParamSpace,
    strategy: &mut dyn Strategy,
    budget: usize,
    mut objective: impl FnMut(&KernelConfig) -> Result<Measurement, ClError>,
) -> DseResult {
    let (trace, _, _) = drive(strategy, budget, |batch| BatchOutcome {
        outcomes: batch
            .iter()
            .map(|c| Outcome::new(c.clone(), objective(c)))
            .collect(),
        resumed: 0,
        cancelled: false,
    });
    let mut r = DseResult::from_trace(trace);
    r.space_size = space.configs().len();
    r.strategy = strategy.name().to_string();
    r
}

/// Run a search on a standard target through `engine`: every batch —
/// including the climbers' neighbourhood batches — fans across the
/// engine's thread pool, shares its build cache, honours its cancel
/// token, and is optionally answered from / recorded to `checkpoint`.
///
/// `budget` caps the number of evaluated points (0 = unbounded);
/// checkpoint-answered points count against it, which is what makes a
/// resumed search retrace the original visit order deterministically.
pub fn search_target(
    engine: &Engine,
    target: targets::TargetId,
    strategy: &mut dyn Strategy,
    budget: usize,
    protocol: impl Fn(KernelConfig) -> BenchConfig,
    checkpoint: Option<&Checkpoint>,
) -> DseResult {
    let cache0 = engine.cache_stats();
    let retry0 = engine.retry_stats();
    let faults0 = engine.fault_counters();

    let (trace, resumed, cancelled) = drive(strategy, budget, |batch| {
        let work = batch.iter().cloned().map(&protocol).collect();
        let (outcomes, resumed) = run_checkpointed(engine, target, work, checkpoint);
        BatchOutcome {
            outcomes,
            resumed,
            cancelled: engine
                .cancel_token()
                .is_some_and(crate::engine::CancelToken::is_cancelled),
        }
    });

    let mut r = DseResult::from_trace(trace);
    r.resumed = resumed;
    r.cancelled = cancelled;
    r.strategy = strategy.name().to_string();
    r.cache = engine.cache_stats().since(cache0);
    r.retry = engine.retry_stats().since(retry0);
    r.faults = engine.fault_counters().since(faults0);
    r
}

/// The seeded visit order of a random search: a shuffled index prefix.
fn sample_order(n: usize, budget: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    if budget > 0 {
        order.truncate(budget);
    }
    order
}

/// Neighbourhood for local search: two configurations are neighbours if
/// they differ in exactly one tuning dimension.
fn neighbours(candidates: &[KernelConfig], of: &KernelConfig) -> Vec<usize> {
    candidates
        .iter()
        .enumerate()
        .filter(|(_, c)| differs_in_one_dim(c, of))
        .map(|(i, _)| i)
        .collect()
}

fn differs_in_one_dim(a: &KernelConfig, b: &KernelConfig) -> bool {
    let diffs = [
        a.op != b.op,
        a.n_words != b.n_words || a.dtype != b.dtype,
        a.vector_width != b.vector_width,
        a.pattern != b.pattern,
        a.loop_mode != b.loop_mode,
        a.unroll != b.unroll,
        a.vendor != b.vendor,
    ]
    .iter()
    .filter(|&&d| d)
    .count();
    diffs == 1
}

/// Shared per-strategy bookkeeping: the candidate list, the scores told
/// so far, and the key→index map that routes a told [`Outcome`] back to
/// its candidate.
struct Tracker {
    configs: Vec<KernelConfig>,
    /// `None` = not yet told; `Some(score)` with `None` inside = told
    /// but failed (or NaN).
    scores: Vec<Option<Option<f64>>>,
    index_of: HashMap<String, usize>,
    told: usize,
}

impl Tracker {
    fn new(space: &ParamSpace) -> Self {
        let configs = space.configs();
        let index_of = configs
            .iter()
            .enumerate()
            .map(|(i, c)| (crate::checkpoint::config_key(c), i))
            .collect();
        let scores = vec![None; configs.len()];
        Tracker {
            configs,
            scores,
            index_of,
            told: 0,
        }
    }

    fn len(&self) -> usize {
        self.configs.len()
    }

    fn is_fresh(&self, i: usize) -> bool {
        self.scores[i].is_none()
    }

    fn all_told(&self) -> bool {
        self.told == self.configs.len()
    }

    /// Fitness of a told candidate; failures and NaN score `-inf`.
    fn fitness(&self, i: usize) -> f64 {
        self.scores[i]
            .flatten()
            .filter(|g| !g.is_nan())
            .unwrap_or(f64::NEG_INFINITY)
    }

    fn tell(&mut self, outcomes: &[Outcome]) -> Vec<usize> {
        let mut indices = Vec::with_capacity(outcomes.len());
        for o in outcomes {
            let Some(&i) = self.index_of.get(&crate::checkpoint::config_key(&o.config)) else {
                continue;
            };
            if self.scores[i].is_none() {
                self.told += 1;
            }
            self.scores[i] = Some(o.gbps());
            indices.push(i);
        }
        indices
    }
}

/// Every valid configuration, asked as one batch.
pub struct ExhaustiveSearch {
    tracker: Tracker,
    asked: bool,
}

impl ExhaustiveSearch {
    /// Exhaustive search over `space`.
    pub fn new(space: &ParamSpace) -> Self {
        ExhaustiveSearch {
            tracker: Tracker::new(space),
            asked: false,
        }
    }
}

impl Strategy for ExhaustiveSearch {
    fn name(&self) -> &'static str {
        "grid"
    }

    fn ask(&mut self) -> Vec<KernelConfig> {
        if self.asked {
            return Vec::new();
        }
        self.asked = true;
        self.tracker.configs.clone()
    }

    fn tell(&mut self, outcomes: &[Outcome]) {
        self.tracker.tell(outcomes);
    }
}

/// A seeded uniform sample of the space, asked as one batch.
pub struct RandomSearch {
    tracker: Tracker,
    order: Vec<usize>,
    asked: bool,
}

impl RandomSearch {
    /// Random search over `space`: up to `budget` (0 = all) distinct
    /// seeded picks.
    pub fn new(space: &ParamSpace, budget: usize, seed: u64) -> Self {
        let tracker = Tracker::new(space);
        let order = sample_order(tracker.len(), budget, seed);
        RandomSearch {
            tracker,
            order,
            asked: false,
        }
    }
}

impl Strategy for RandomSearch {
    fn name(&self) -> &'static str {
        "random"
    }

    fn ask(&mut self) -> Vec<KernelConfig> {
        if self.asked {
            return Vec::new();
        }
        self.asked = true;
        self.order
            .iter()
            .map(|&i| self.tracker.configs[i].clone())
            .collect()
    }

    fn tell(&mut self, outcomes: &[Outcome]) {
        self.tracker.tell(outcomes);
    }
}

/// Steepest-ascent hill climbing with random restarts. Each round asks
/// the whole unevaluated one-dimension neighbourhood of the current
/// point as a single batch — which is what lets a "sequential" climber
/// use every engine worker — then moves to the best neighbour if it
/// improves, else restarts from a random unevaluated point.
pub struct HillClimbSearch {
    tracker: Tracker,
    rng: SplitMix64,
    current: Option<usize>,
}

impl HillClimbSearch {
    /// Hill climbing over `space` from a seeded random start.
    pub fn new(space: &ParamSpace, seed: u64) -> Self {
        HillClimbSearch {
            tracker: Tracker::new(space),
            rng: SplitMix64::new(seed),
            current: None,
        }
    }

    /// A random not-yet-told candidate, `None` when all are told.
    fn random_fresh(&mut self) -> Option<usize> {
        let fresh: Vec<usize> = (0..self.tracker.len())
            .filter(|&i| self.tracker.is_fresh(i))
            .collect();
        if fresh.is_empty() {
            None
        } else {
            Some(fresh[self.rng.gen_index(fresh.len())])
        }
    }
}

impl Strategy for HillClimbSearch {
    fn name(&self) -> &'static str {
        "hill"
    }

    fn ask(&mut self) -> Vec<KernelConfig> {
        loop {
            if self.tracker.all_told() {
                return Vec::new();
            }
            let Some(current) = self.current else {
                // (Re)start from a random unevaluated point.
                let Some(i) = self.random_fresh() else {
                    return Vec::new();
                };
                self.current = Some(i);
                return vec![self.tracker.configs[i].clone()];
            };
            let ns = neighbours(&self.tracker.configs, &self.tracker.configs[current]);
            let fresh: Vec<usize> = ns
                .iter()
                .copied()
                .filter(|&i| self.tracker.is_fresh(i))
                .collect();
            if !fresh.is_empty() {
                return fresh
                    .iter()
                    .map(|&i| self.tracker.configs[i].clone())
                    .collect();
            }
            // Whole neighbourhood known: climb on cached scores (each
            // move is strictly uphill, so this terminates), restart when
            // stuck on a local optimum.
            let best = ns
                .iter()
                .copied()
                .max_by(|&a, &b| self.tracker.fitness(a).total_cmp(&self.tracker.fitness(b)));
            match best {
                Some(b) if self.tracker.fitness(b) > self.tracker.fitness(current) => {
                    self.current = Some(b);
                }
                _ => self.current = None,
            }
        }
    }

    fn tell(&mut self, outcomes: &[Outcome]) {
        self.tracker.tell(outcomes);
        let Some(current) = self.current else { return };
        // Move to the best told neighbour if it beats the current point;
        // otherwise restart next round.
        let ns = neighbours(&self.tracker.configs, &self.tracker.configs[current]);
        let best = ns
            .into_iter()
            .filter(|&i| !self.tracker.is_fresh(i))
            .max_by(|&a, &b| self.tracker.fitness(a).total_cmp(&self.tracker.fitness(b)));
        match best {
            Some(b) if self.tracker.fitness(b) > self.tracker.fitness(current) => {
                self.current = Some(b)
            }
            Some(_) => self.current = None,
            None => {}
        }
    }
}

/// What an in-flight [`AnnealSearch`] proposal is waiting for.
enum AnnealPending {
    /// A restart landed on a fresh point.
    Restart(usize),
    /// A walk step proposed a fresh neighbour.
    Step(usize),
}

/// Simulated annealing, one point per batch: the walk advances over
/// already-told scores inside [`ask`](Strategy::ask) and pauses each
/// time it needs a fresh evaluation, so every proposed point still runs
/// through the engine (cache, faults, cancel) like any other batch.
pub struct AnnealSearch {
    tracker: Tracker,
    rng: SplitMix64,
    current: Option<usize>,
    pending: Option<AnnealPending>,
    temp: f64,
    t0: f64,
    alpha: f64,
    stall: usize,
    steps_left: usize,
}

impl AnnealSearch {
    /// Annealing over `space` with geometric cooling from `t0` to ~1% of
    /// it across `budget` evaluations.
    pub fn new(space: &ParamSpace, budget: usize, seed: u64, t0: f64) -> Self {
        assert!(t0 > 0.0, "initial temperature must be positive");
        let alpha = 0.01f64.powf(1.0 / budget.max(2) as f64);
        // The walk revisits told points without proposing anything, so
        // it needs its own step bound: once frozen at a local optimum
        // every downhill move is rejected and no fresh point would ever
        // be proposed.
        let steps_left = budget.saturating_mul(50).max(1000);
        AnnealSearch {
            tracker: Tracker::new(space),
            rng: SplitMix64::new(seed),
            current: None,
            pending: None,
            temp: t0,
            t0,
            alpha,
            stall: 0,
            steps_left,
        }
    }

    fn accept(&mut self, next: usize, next_score: f64) {
        let current_score = self
            .current
            .map_or(f64::NEG_INFINITY, |c| self.tracker.fitness(c));
        let delta = next_score - current_score;
        if delta >= 0.0 || self.rng.gen_f64() < (delta / self.temp).exp() {
            self.current = Some(next);
        }
        self.temp *= self.alpha;
    }
}

impl Strategy for AnnealSearch {
    fn name(&self) -> &'static str {
        "anneal"
    }

    fn ask(&mut self) -> Vec<KernelConfig> {
        loop {
            if self.tracker.all_told() || self.steps_left == 0 {
                return Vec::new();
            }
            self.steps_left -= 1;
            let Some(current) = self.current else {
                let i = self.rng.gen_index(self.tracker.len());
                if self.tracker.is_fresh(i) {
                    self.pending = Some(AnnealPending::Restart(i));
                    return vec![self.tracker.configs[i].clone()];
                }
                self.current = Some(i);
                continue;
            };
            let ns = neighbours(&self.tracker.configs, &self.tracker.configs[current]);
            if ns.is_empty() || self.stall > 4 * ns.len().max(1) {
                // Isolated point or frozen walk: random restart (reheat
                // a little so the new region can be explored).
                self.temp = (self.temp * 4.0).min(self.t0);
                self.stall = 0;
                let i = self.rng.gen_index(self.tracker.len());
                if self.tracker.is_fresh(i) {
                    self.pending = Some(AnnealPending::Restart(i));
                    return vec![self.tracker.configs[i].clone()];
                }
                self.current = Some(i);
                continue;
            }
            let next = ns[self.rng.gen_index(ns.len())];
            if self.tracker.is_fresh(next) {
                self.pending = Some(AnnealPending::Step(next));
                return vec![self.tracker.configs[next].clone()];
            }
            let score = self.tracker.fitness(next);
            self.accept(next, score);
            self.stall += 1;
        }
    }

    fn tell(&mut self, outcomes: &[Outcome]) {
        self.tracker.tell(outcomes);
        match self.pending.take() {
            Some(AnnealPending::Restart(i)) => {
                self.current = Some(i);
                self.stall = 0;
            }
            Some(AnnealPending::Step(next)) => {
                let score = self.tracker.fitness(next);
                self.accept(next, score);
                self.stall = 0;
            }
            None => {}
        }
    }
}

/// Seeded genetic search: tournament selection plus one-dimension
/// mutation over the space's neighbour relation. The population is one
/// ask batch — a generation's unevaluated members run through the
/// engine together — and each generation keeps the elite, breeds
/// children by mutating tournament winners, and admits one random
/// unevaluated immigrant so the search always makes progress.
pub struct GeneticSearch {
    tracker: Tracker,
    rng: SplitMix64,
    population: Vec<usize>,
    pop_size: usize,
    generations_left: usize,
}

impl GeneticSearch {
    /// Genetic search over `space` sized to `budget` evaluations.
    pub fn new(space: &ParamSpace, budget: usize, seed: u64) -> Self {
        let tracker = Tracker::new(space);
        let n = tracker.len();
        let budget = if budget == 0 { n } else { budget };
        // Small populations for small budgets: the initial generation
        // should leave room for at least a couple of bred generations.
        let pop_size = (budget / 3).clamp(2, 16).min(n.max(1));
        let mut rng = SplitMix64::new(seed);
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        order.truncate(pop_size);
        GeneticSearch {
            tracker,
            rng,
            population: order,
            pop_size,
            generations_left: 64 * budget.max(1),
        }
    }

    /// One-dimension mutation: a random neighbour of `i`, preferring
    /// unevaluated neighbours so generations propose new work.
    fn mutate(&mut self, i: usize) -> usize {
        let ns = neighbours(&self.tracker.configs, &self.tracker.configs[i]);
        let fresh: Vec<usize> = ns
            .iter()
            .copied()
            .filter(|&j| self.tracker.is_fresh(j))
            .collect();
        if !fresh.is_empty() {
            fresh[self.rng.gen_index(fresh.len())]
        } else if !ns.is_empty() {
            ns[self.rng.gen_index(ns.len())]
        } else {
            i
        }
    }

    fn tournament(&mut self) -> usize {
        let a = self.population[self.rng.gen_index(self.population.len())];
        let b = self.population[self.rng.gen_index(self.population.len())];
        if self.tracker.fitness(a) >= self.tracker.fitness(b) {
            a
        } else {
            b
        }
    }

    fn next_generation(&mut self) -> Vec<usize> {
        let elite = self
            .population
            .iter()
            .copied()
            .max_by(|&a, &b| self.tracker.fitness(a).total_cmp(&self.tracker.fitness(b)))
            .expect("population is never empty");
        let mut next = vec![elite];
        while next.len() < self.pop_size.saturating_sub(1).max(1) {
            let parent = self.tournament();
            let child = self.mutate(parent);
            next.push(child);
        }
        // Immigration: one random unevaluated candidate per generation
        // keeps the gene pool from collapsing on small budgets.
        let fresh: Vec<usize> = (0..self.tracker.len())
            .filter(|&i| self.tracker.is_fresh(i) && !next.contains(&i))
            .collect();
        if !fresh.is_empty() {
            next.push(fresh[self.rng.gen_index(fresh.len())]);
        }
        next
    }
}

impl Strategy for GeneticSearch {
    fn name(&self) -> &'static str {
        "genetic"
    }

    fn ask(&mut self) -> Vec<KernelConfig> {
        loop {
            if self.tracker.all_told() || self.generations_left == 0 {
                return Vec::new();
            }
            let mut seen = std::collections::HashSet::new();
            let fresh: Vec<usize> = self
                .population
                .iter()
                .copied()
                .filter(|&i| self.tracker.is_fresh(i) && seen.insert(i))
                .collect();
            if !fresh.is_empty() {
                return fresh
                    .iter()
                    .map(|&i| self.tracker.configs[i].clone())
                    .collect();
            }
            self.generations_left -= 1;
            self.population = self.next_generation();
        }
    }

    fn tell(&mut self, outcomes: &[Outcome]) {
        self.tracker.tell(outcomes);
    }
}

/// Model-guided search: a ridge-regression surrogate over the
/// architecture-independent features of [`kernelgen::features()`]
/// (operational intensity, stride/pattern class, vector width, unroll,
/// loop mode, bytes-per-iteration, ...). The first ask is a seeded
/// random sample; every following round refits the surrogate on all
/// told outcomes (failures score 0, teaching the model to avoid
/// over-capacity corners), ranks the unevaluated candidates by
/// predicted bandwidth, and asks only the top-k.
pub struct ModelSearch {
    tracker: Tracker,
    feats: Vec<Vec<f64>>,
    rng: SplitMix64,
    seed_batch: usize,
    top_k: usize,
    seeded: bool,
}

impl ModelSearch {
    /// Model-guided search over `space` sized to `budget` evaluations:
    /// roughly a third of the budget seeds the model, the rest is spent
    /// in top-k exploitation rounds.
    pub fn new(space: &ParamSpace, budget: usize, seed: u64) -> Self {
        let tracker = Tracker::new(space);
        let n = tracker.len();
        let budget = if budget == 0 { n } else { budget };
        let seed_batch = (budget / 3).clamp(2, 12).min(n.max(1));
        let top_k = ((budget.saturating_sub(seed_batch)) / 2)
            .clamp(1, 8)
            .min(n.max(1));
        let feats = tracker.configs.iter().map(kernelgen::features).collect();
        ModelSearch {
            tracker,
            feats,
            rng: SplitMix64::new(seed),
            seed_batch,
            top_k,
            seeded: false,
        }
    }

    /// Fit the ridge surrogate on the told points and predict every
    /// candidate's bandwidth. Failures train as 0 GB/s.
    fn predictions(&self) -> Vec<f64> {
        let training: Vec<(usize, f64)> = (0..self.tracker.len())
            .filter_map(|i| {
                self.tracker.scores[i].map(|s| (i, s.filter(|g| g.is_finite()).unwrap_or(0.0)))
            })
            .collect();
        let xs: Vec<&[f64]> = training
            .iter()
            .map(|&(i, _)| self.feats[i].as_slice())
            .collect();
        let ys: Vec<f64> = training.iter().map(|&(_, y)| y).collect();
        let model = RidgeModel::fit(&xs, &ys, 0.1);
        self.feats.iter().map(|f| model.predict(f)).collect()
    }
}

impl Strategy for ModelSearch {
    fn name(&self) -> &'static str {
        "model"
    }

    fn ask(&mut self) -> Vec<KernelConfig> {
        if self.tracker.all_told() {
            return Vec::new();
        }
        if !self.seeded {
            self.seeded = true;
            let mut order: Vec<usize> = (0..self.tracker.len()).collect();
            self.rng.shuffle(&mut order);
            order.truncate(self.seed_batch);
            return order
                .iter()
                .map(|&i| self.tracker.configs[i].clone())
                .collect();
        }
        let preds = self.predictions();
        let mut ranked: Vec<usize> = (0..self.tracker.len())
            .filter(|&i| self.tracker.is_fresh(i))
            .collect();
        // Highest predicted bandwidth first; ties break on candidate
        // index so the ranking is fully deterministic.
        ranked.sort_by(|&a, &b| preds[b].total_cmp(&preds[a]).then(a.cmp(&b)));
        ranked.truncate(self.top_k);
        ranked
            .iter()
            .map(|&i| self.tracker.configs[i].clone())
            .collect()
    }

    fn tell(&mut self, outcomes: &[Outcome]) {
        self.tracker.tell(outcomes);
    }
}

/// A fitted ridge regression: standardized features, centered response,
/// solved by Gaussian elimination on the (always SPD) normal equations.
struct RidgeModel {
    mean: Vec<f64>,
    scale: Vec<f64>,
    weights: Vec<f64>,
    intercept: f64,
}

impl RidgeModel {
    fn fit(xs: &[&[f64]], ys: &[f64], lambda: f64) -> RidgeModel {
        let d = xs.first().map_or(0, |x| x.len());
        let m = xs.len();
        let mut mean = vec![0.0; d];
        let mut scale = vec![1.0; d];
        if m == 0 {
            return RidgeModel {
                mean,
                scale,
                weights: vec![0.0; d],
                intercept: 0.0,
            };
        }
        for x in xs {
            for (j, v) in x.iter().enumerate() {
                mean[j] += v;
            }
        }
        for mj in &mut mean {
            *mj /= m as f64;
        }
        for (j, s) in scale.iter_mut().enumerate() {
            let var: f64 = xs.iter().map(|x| (x[j] - mean[j]).powi(2)).sum::<f64>() / m as f64;
            let sd = var.sqrt();
            *s = if sd > 1e-12 { sd } else { 1.0 };
        }
        let ymean = ys.iter().sum::<f64>() / m as f64;

        // Normal equations over standardized features: (Z'Z + λI)w = Z'y.
        let z = |x: &[f64], j: usize| (x[j] - mean[j]) / scale[j];
        let mut a = vec![vec![0.0f64; d + 1]; d]; // augmented [A | b]
        for (j, row) in a.iter_mut().enumerate() {
            for (k, cell) in row.iter_mut().enumerate().take(d) {
                *cell = xs.iter().map(|x| z(x, j) * z(x, k)).sum();
            }
            row[j] += lambda;
            row[d] = xs.iter().zip(ys).map(|(x, &y)| z(x, j) * (y - ymean)).sum();
        }
        // Gaussian elimination with partial pivoting.
        for col in 0..d {
            let pivot = (col..d)
                .max_by(|&p, &q| a[p][col].abs().total_cmp(&a[q][col].abs()))
                .expect("non-empty column range");
            a.swap(col, pivot);
            let diag = a[col][col];
            if diag.abs() < 1e-12 {
                continue; // λ keeps this from happening in practice
            }
            for r in col + 1..d {
                let (top, bottom) = a.split_at_mut(r);
                let pivot_row = &top[col];
                let row = &mut bottom[0];
                let f = row[col] / diag;
                for (cell, &p) in row[col..=d].iter_mut().zip(&pivot_row[col..=d]) {
                    *cell -= f * p;
                }
            }
        }
        let mut weights = vec![0.0f64; d];
        for col in (0..d).rev() {
            let mut acc = a[col][d];
            for k in col + 1..d {
                acc -= a[col][k] * weights[k];
            }
            weights[col] = if a[col][col].abs() < 1e-12 {
                0.0
            } else {
                acc / a[col][col]
            };
        }
        RidgeModel {
            mean,
            scale,
            weights,
            intercept: ymean,
        }
    }

    fn predict(&self, x: &[f64]) -> f64 {
        self.intercept
            + x.iter()
                .zip(&self.mean)
                .zip(&self.scale)
                .zip(&self.weights)
                .map(|(((v, m), s), w)| (v - m) / s * w)
                .sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Runner;
    use kernelgen::LoopMode;

    fn space() -> ParamSpace {
        ParamSpace::new()
            .widths([1, 2, 4, 8, 16])
            .unrolls([1, 2, 4])
            .loop_modes(LoopMode::ALL)
    }

    /// A synthetic objective with a known optimum: prefer wide vectors,
    /// flat loops, unroll 4.
    fn objective(c: &KernelConfig) -> Result<Measurement, ClError> {
        let mut s = c.vector_width.get() as f64;
        if c.loop_mode == LoopMode::SingleWorkItemFlat {
            s *= 2.0;
        }
        s += c.unroll as f64;
        Ok(Measurement::synthetic(s))
    }

    fn score(o: &Outcome) -> Option<f64> {
        o.gbps()
    }

    #[test]
    fn exhaustive_finds_the_optimum() {
        let r = explore(&space(), &mut ExhaustiveSearch::new(&space()), 0, objective);
        let best = r.best.clone().expect("has best");
        assert_eq!(best.config.vector_width.get(), 16);
        assert_eq!(best.config.loop_mode, LoopMode::SingleWorkItemFlat);
        assert_eq!(best.config.unroll, 4);
        assert_eq!(r.trace.len(), 45);
        assert_eq!(r.failures, 0);
        assert_eq!(r.evaluations(), 45);
        assert_eq!(r.space_size, 45);
        assert_eq!(r.strategy, "grid");
    }

    #[test]
    fn random_search_respects_budget_and_seed() {
        let run = || {
            let mut random = RandomSearch::new(&space(), 10, 42);
            explore(&space(), &mut random, 10, objective)
        };
        let (r1, r2) = (run(), run());
        assert_eq!(r1.trace.len(), 10);
        let s1: Vec<_> = r1.trace.iter().map(score).collect();
        let s2: Vec<_> = r2.trace.iter().map(score).collect();
        assert_eq!(s1, s2, "seeded determinism");
    }

    #[test]
    fn hill_climb_reaches_good_configs_with_small_budget() {
        let mut climber = HillClimbSearch::new(&space(), 7);
        let r = explore(&space(), &mut climber, 30, objective);
        let best = r.best.expect("has best");
        assert!(score(&best).unwrap() >= 20.0, "score {:?}", score(&best));
        assert!(r.trace.len() <= 30);
    }

    #[test]
    fn annealing_reaches_good_configs() {
        let mut anneal = AnnealSearch::new(&space(), 40, 11, 8.0);
        let r = explore(&space(), &mut anneal, 40, objective);
        let best = r.best.expect("has best");
        assert!(score(&best).unwrap() >= 20.0, "score {:?}", score(&best));
        assert!(r.trace.len() <= 40);
    }

    #[test]
    fn annealing_is_seeded_deterministic() {
        let run = || {
            let mut anneal = AnnealSearch::new(&space(), 25, 3, 4.0);
            explore(&space(), &mut anneal, 25, objective)
        };
        let (a, b) = (run(), run());
        let sa: Vec<_> = a.trace.iter().map(score).collect();
        let sb: Vec<_> = b.trace.iter().map(score).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn annealing_escapes_a_deceptive_ridge() {
        // Objective with a local optimum at narrow vectors + high unroll
        // that greedy search can fall into; annealing's random accepts
        // should find the global at vec16/flat/unroll4 more reliably
        // from the same budget.
        let deceptive = |c: &KernelConfig| -> Result<Measurement, ClError> {
            let w = c.vector_width.get() as f64;
            let mut s = if w <= 2.0 { 10.0 + c.unroll as f64 } else { w };
            if c.loop_mode == LoopMode::SingleWorkItemFlat {
                s *= 2.0;
            }
            Ok(Measurement::synthetic(s))
        };
        let mut anneal = AnnealSearch::new(&space(), 45, 5, 10.0);
        let r = explore(&space(), &mut anneal, 45, deceptive);
        // Global optimum: vec16 flat => 32+.
        assert!(score(&r.best.expect("best")).unwrap() >= 28.0);
    }

    #[test]
    fn genetic_is_seeded_deterministic_and_respects_budget() {
        let run = || {
            let mut genetic = GeneticSearch::new(&space(), 15, 99);
            explore(&space(), &mut genetic, 15, objective).trace
        };
        let a = run();
        let b = run();
        assert!(a.len() <= 15);
        assert!(!a.is_empty());
        assert_eq!(
            a.iter().map(|o| o.config.clone()).collect::<Vec<_>>(),
            b.iter().map(|o| o.config.clone()).collect::<Vec<_>>(),
            "seeded determinism"
        );
        // No config proposed twice.
        let mut keys: Vec<String> = a
            .iter()
            .map(|o| crate::checkpoint::config_key(&o.config))
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), a.len(), "no duplicate proposals");
    }

    #[test]
    fn model_search_learns_the_synthetic_optimum() {
        let mut model = ModelSearch::new(&space(), 15, 7);
        let trace = explore(&space(), &mut model, 15, objective).trace;
        assert!(trace.len() <= 15);
        let best = trace
            .iter()
            .filter_map(score)
            .fold(f64::NEG_INFINITY, f64::max);
        // Optimum is 36 (vec16 flat unroll4); the surrogate must get
        // within striking distance on a third of the space.
        assert!(best >= 30.0, "model best {best}");
    }

    #[test]
    fn ridge_model_recovers_a_linear_response() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, (i % 3) as f64]).collect();
        let refs: Vec<&[f64]> = xs.iter().map(|x| x.as_slice()).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x[0] - 2.0 * x[1] + 5.0).collect();
        let m = RidgeModel::fit(&refs, &ys, 1e-6);
        for (x, y) in xs.iter().zip(&ys) {
            assert!((m.predict(x) - y).abs() < 0.1, "{} vs {}", m.predict(x), y);
        }
    }

    #[test]
    fn nan_bandwidth_neither_panics_nor_wins() {
        // A degenerate measurement whose bandwidth computes to NaN.
        let nan_measurement = || {
            let mut m = Measurement::synthetic(1.0);
            m.best_wall_ns = f64::NAN;
            assert!(m.gbps().is_nan());
            Ok(m)
        };
        // Regression: the best-pick used `partial_cmp(..).expect(..)`,
        // so one NaN measurement panicked the whole search.
        let r = explore(&space(), &mut ExhaustiveSearch::new(&space()), 0, |c| {
            if c.vector_width.get() == 16 {
                nan_measurement()
            } else {
                objective(c)
            }
        });
        let best = r.best.expect("finite points still produce a best");
        assert!(score(&best).unwrap().is_finite());
        assert_ne!(best.config.vector_width.get(), 16, "NaN never wins");

        // All-NaN searches have no best rather than a NaN best.
        let mut grid = ExhaustiveSearch::new(&space());
        let all_nan = explore(&space(), &mut grid, 0, |_| nan_measurement());
        assert!(all_nan.best.is_none());
    }

    #[test]
    fn failures_are_counted_not_fatal() {
        let r = explore(&space(), &mut ExhaustiveSearch::new(&space()), 0, |c| {
            if c.unroll == 2 {
                Err(ClError::BuildProgramFailure("synthetic failure".into()))
            } else {
                objective(c)
            }
        });
        assert!(r.failures > 0);
        assert!(r.best.is_some());
        assert_ne!(r.best.unwrap().config.unroll, 2);
    }

    #[test]
    fn empty_space_is_handled() {
        let s = ParamSpace::new().widths([]);
        let strategies: [Box<dyn Strategy>; 3] = [
            Box::new(ExhaustiveSearch::new(&s)),
            Box::new(RandomSearch::new(&s, 5, 1)),
            Box::new(HillClimbSearch::new(&s, 1)),
        ];
        for mut strat in strategies {
            let r = explore(&s, strat.as_mut(), 5, objective);
            assert!(r.best.is_none());
            assert!(r.trace.is_empty());
        }
    }

    #[test]
    fn neighbour_relation_is_one_dimensional() {
        let cfgs = space().configs();
        let base = &cfgs[0];
        for n in neighbours(&cfgs, base) {
            assert!(differs_in_one_dim(&cfgs[n], base));
        }
    }

    #[test]
    fn search_target_random_matches_serial_visit_order() {
        use targets::TargetId;
        let space = ParamSpace::new()
            .sizes_bytes([1 << 16])
            .widths([1, 2, 4, 8])
            .loop_modes([LoopMode::SingleWorkItemFlat])
            .unrolls([1, 2]);
        let protocol = |k: KernelConfig| BenchConfig::new(k).with_ntimes(1).with_validation(false);
        let engine = Engine::with_jobs(4);
        let mut strat = RandomSearch::new(&space, 5, 9);
        let par = search_target(&engine, TargetId::FpgaAocl, &mut strat, 5, protocol, None);
        let runner = Runner::for_target(TargetId::FpgaAocl);
        let mut strat = RandomSearch::new(&space, 5, 9);
        let ser = explore(&space, &mut strat, 5, |c| runner.run(&protocol(c.clone())));
        assert_eq!(par.trace.len(), ser.trace.len());
        for (a, b) in par.trace.iter().zip(&ser.trace) {
            assert_eq!(a.config, b.config, "same seeded visit order");
            assert_eq!(a.gbps(), b.gbps());
        }
    }

    #[test]
    fn search_target_climbers_share_the_engine_cache() {
        use targets::TargetId;
        let space = ParamSpace::new()
            .sizes_bytes([1 << 16])
            .widths([1, 2, 4])
            .loop_modes([LoopMode::SingleWorkItemFlat]);
        let engine = Engine::with_jobs(2);
        let protocol = |k: KernelConfig| BenchConfig::new(k).with_ntimes(1).with_validation(false);
        let climb = || {
            let mut strat = HillClimbSearch::new(&space, 1);
            search_target(&engine, TargetId::FpgaAocl, &mut strat, 12, protocol, None);
        };
        climb();
        let first = engine.cache_stats();
        assert!(first.misses > 0);
        climb();
        let delta = engine.cache_stats().since(first);
        assert_eq!(delta.misses, 0, "revisits hit the shared cache");
    }

    #[test]
    fn search_target_stops_on_a_fired_cancel_token() {
        use crate::engine::CancelToken;
        use targets::TargetId;
        let token = CancelToken::new();
        token.cancel();
        let engine = Engine::with_jobs(2).with_cancel(Some(token));
        let protocol = |k: KernelConfig| BenchConfig::new(k).with_ntimes(1).with_validation(false);
        let sp = ParamSpace::new()
            .sizes_bytes([1 << 16])
            .widths([1, 2, 4, 8, 16])
            .loop_modes([LoopMode::SingleWorkItemFlat]);
        // Regression: the climbers used to run outside the engine, so a
        // fired token could not stop a walk in progress.
        let mut strat = HillClimbSearch::new(&sp, 3);
        let r = search_target(&engine, TargetId::FpgaAocl, &mut strat, 0, protocol, None);
        assert!(r.cancelled, "fired token reported");
        assert!(
            r.trace.is_empty(),
            "cancelled slots never reach the trace: {:?}",
            r.trace.len()
        );
    }
}
