//! The plan store: the exact solutions and response-time absorption chains that
//! the queries of one plan share, dropped with the plan.  Across requests only the
//! λ-independent skeletons recur, so only they stay in the engine's [`SolverCache`].

use std::sync::{Arc, Mutex, PoisonError};

use crate::cache::{solution_key, transform_key, ByteLru, CacheLevelStats, SolverCache};
use crate::config::SystemConfig;
use crate::error::ModelError;
use crate::matrix_geometric::{
    MatrixGeometricOptions, MatrixGeometricSolution, MatrixGeometricSolver,
};
use crate::qbd::{QbdMatrices, QbdSkeleton};
use crate::response::{AbsorptionChain, ResponseAnalysis, ResponseOptions};
use crate::solution::{QueueSolution, QueueSolver};
use crate::Result;

/// Byte budget of one plan's solutions and chains together; one dense large-fleet
/// solution (the 231 × 231 `R` at paper N = 20) alone is ~0.43 MB.
const PLAN_BYTES: usize = 3 << 20;

/// The `stats` rows of the two kinds of result.
const SOLUTIONS: usize = 0;
const CHAINS: usize = 1;

/// A result the plan store shares.
#[derive(Debug, Clone)]
enum Shared {
    Solution(Arc<MatrixGeometricSolution>),
    Chain(Arc<AbsorptionChain>),
}

impl Shared {
    fn kind(&self) -> usize {
        match self {
            Shared::Solution(_) => SOLUTIONS,
            Shared::Chain(_) => CHAINS,
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Shared::Solution(solution) => solution.heap_bytes(),
            Shared::Chain(chain) => chain.heap_bytes(),
        }
    }
}

/// The `[solutions, transforms]` rows of the engine's `stats`: the counters of every
/// plan store it has run.  A plan's entries are dropped with it, so the rows hold no
/// entries or bytes.
#[derive(Debug)]
pub(crate) struct PlanCounters(Mutex<[CacheLevelStats; 2]>);

impl Default for PlanCounters {
    fn default() -> Self {
        let row = |level| CacheLevelStats {
            level,
            budget_bytes: PLAN_BYTES as u64,
            ..Default::default()
        };
        PlanCounters(Mutex::new([row("solutions"), row("transforms")]))
    }
}

impl PlanCounters {
    pub(crate) fn stats(&self) -> [CacheLevelStats; 2] {
        *self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Applies `update` to the row of `kind`.  Every update leaves the counters
    /// valid, so a poisoned lock is simply reused.
    fn count(&self, kind: usize, update: impl FnOnce(&mut CacheLevelStats)) {
        if let Some(row) = self.0.lock().unwrap_or_else(PoisonError::into_inner).get_mut(kind) {
            update(row);
        }
    }
}

/// Solutions and absorption chains shared by the queries of one plan within
/// [`PLAN_BYTES`], keyed by [`solution_key`] and [`transform_key`] (class words are
/// prefix-free, so the two kinds never share a key), on skeletons from the engine's
/// [`SolverCache`].  As a [`QueueSolver`] it is the plan's matrix-geometric solver.
#[derive(Debug)]
pub(crate) struct PlanStore<'a> {
    skeletons: &'a SolverCache,
    counters: &'a PlanCounters,
    results: ByteLru<Vec<u64>, Shared>,
}

impl<'a> PlanStore<'a> {
    pub(crate) fn new(skeletons: &'a SolverCache, counters: &'a PlanCounters) -> Self {
        PlanStore { skeletons, counters, results: ByteLru::new(PLAN_BYTES) }
    }

    /// The result of `kind` under `key`, or the one `build` makes, kept for the rest
    /// of the plan.
    fn shared(
        &self,
        kind: usize,
        key: Vec<u64>,
        build: impl FnOnce() -> Result<Shared>,
    ) -> Result<Shared> {
        if let Some(hit) = self.results.get(&key) {
            self.counters.count(kind, |row| row.hits += 1);
            return Ok(hit);
        }
        self.counters.count(kind, |row| row.misses += 1);
        let built = build()?;
        let bytes = built.heap_bytes();
        if ByteLru::<_, Shared>::charge(&key, bytes) > self.results.budget() {
            self.counters.count(kind, |row| row.oversized += 1);
        }
        Ok(self.results.insert_or_get_with(key, built, bytes, |evicted, age| {
            self.counters.count(evicted.kind(), |row| {
                row.evictions += 1;
                row.eviction_age_total += age;
            });
        }))
    }

    /// The exact solution of a stable `config`, solved on `skeleton` on a miss.
    fn solution_on(
        &self,
        config: &SystemConfig,
        options: &MatrixGeometricOptions,
        skeleton: impl FnOnce() -> Result<Arc<QbdSkeleton>>,
    ) -> Result<Arc<MatrixGeometricSolution>> {
        let shared = self.shared(SOLUTIONS, solution_key(config, options)?, || {
            let qbd = QbdMatrices::with_skeleton(skeleton()?, config.arrival_rate());
            let solution = MatrixGeometricSolver::new(*options).solve_qbd(config, &qbd)?;
            Ok(Shared::Solution(Arc::new(solution)))
        })?;
        match shared {
            Shared::Solution(solution) => Ok(solution),
            Shared::Chain(_) => Err(ModelError::Internal("a solution key held a chain")),
        }
    }

    /// The absorption chain of a validated `config`.  On a miss one skeleton handle
    /// serves the solution and the chain, so even a skeleton cache that keeps
    /// nothing builds it once.
    fn chain(
        &self,
        config: &SystemConfig,
        options: &ResponseOptions,
    ) -> Result<Arc<AbsorptionChain>> {
        let key = transform_key(config, &options.matrix_geometric, options.tail_epsilon)?;
        let shared = self.shared(CHAINS, key, || {
            let skeleton = self.skeletons.skeleton(config)?;
            let solution =
                self.solution_on(config, &options.matrix_geometric, || Ok(Arc::clone(&skeleton)))?;
            let chain = AbsorptionChain::build(&skeleton, solution.as_ref(), options.tail_epsilon)?;
            Ok(Shared::Chain(Arc::new(chain)))
        })?;
        match shared {
            Shared::Chain(chain) => Ok(chain),
            Shared::Solution(_) => Err(ModelError::Internal("a chain key held a solution")),
        }
    }

    /// The response-time analysis of `config` on the plan's shared chain.
    pub(crate) fn analysis(
        &self,
        config: &SystemConfig,
        options: ResponseOptions,
    ) -> Result<ResponseAnalysis> {
        ResponseAnalysis::with_chain(config, options, |config, options| self.chain(config, options))
    }
}

impl QueueSolver for PlanStore<'_> {
    fn name(&self) -> &'static str {
        "matrix geometric (R matrix)"
    }

    fn solve(&self, config: &SystemConfig) -> Result<Box<dyn QueueSolution>> {
        config.ensure_stable()?;
        let options = MatrixGeometricOptions::default();
        Ok(Box::new(self.solution_on(config, &options, || self.skeletons.skeleton(config))?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerLifecycle;

    fn config(servers: usize, lambda: f64) -> SystemConfig {
        SystemConfig::new(servers, lambda, 1.0, ServerLifecycle::paper_fitted().unwrap()).unwrap()
    }

    fn solution(
        store: &PlanStore<'_>,
        cfg: &SystemConfig,
        options: &MatrixGeometricOptions,
    ) -> Arc<MatrixGeometricSolution> {
        store.solution_on(cfg, options, || store.skeletons.skeleton(cfg)).unwrap()
    }

    /// `(hits, misses, evictions)` of the `[solutions, chains]` rows.
    fn counts(counters: &PlanCounters) -> [(u64, u64, u64); 2] {
        counters.stats().map(|level| (level.hits, level.misses, level.evictions))
    }

    #[test]
    fn a_plan_shares_each_solution_bit_identically() {
        let (cache, counters) = (SolverCache::new(), PlanCounters::default());
        let store = PlanStore::new(&cache, &counters);
        let (cfg, options) = (config(4, 2.5), MatrixGeometricOptions::default());
        solution(&store, &cfg, &options);
        let again = solution(&store, &cfg, &options);
        let fresh = MatrixGeometricSolver::default().solve_detailed(&cfg).unwrap();
        assert_eq!(fresh.mean_queue_length().to_bits(), again.mean_queue_length().to_bits());
        for level in 0..=cfg.servers() + 2 {
            assert_eq!(fresh.level_vector(level), again.level_vector(level));
        }
        assert_eq!(counts(&counters), [(1, 1, 0), (0, 0, 0)]);
    }

    #[test]
    fn hits_share_the_stored_solution_per_options() {
        let (cache, counters) = (SolverCache::new(), PlanCounters::default());
        let store = PlanStore::new(&cache, &counters);
        let (cfg, options) = (config(3, 2.0), MatrixGeometricOptions::default());
        let first = solution(&store, &cfg, &options);
        let again = solution(&store, &cfg, &options);
        assert!(Arc::ptr_eq(&first, &again), "a hit must hand out the stored Arc");
        // Other options are another question, with an entry of their own.
        let looser = MatrixGeometricOptions { tolerance: 1e-10, ..Default::default() };
        assert!(!Arc::ptr_eq(&first, &solution(&store, &cfg, &looser)));
        assert_eq!(counts(&counters), [(1, 2, 0), (0, 0, 0)]);
        assert_eq!(store.results.stats("results").entries, 2);
        assert_eq!(cache.stats().misses, 1, "both options solve on one skeleton");
    }

    #[test]
    fn the_plan_budget_bounds_the_solutions_it_keeps() {
        // Every N = 3 solution is charged the same bytes; a budget of two entries
        // keeps the last two of five and counts three evictions against solutions.
        let options = MatrixGeometricOptions::default();
        let configs: Vec<SystemConfig> =
            [1.0, 1.25, 1.5, 1.75, 2.0].iter().map(|&lambda| config(3, lambda)).collect();
        let charge = |cfg: &SystemConfig| {
            let bytes = MatrixGeometricSolver::default().solve_detailed(cfg).unwrap().heap_bytes();
            ByteLru::<_, Shared>::charge(&solution_key(cfg, &options).unwrap(), bytes)
        };
        let entry = charge(&configs[0]);
        let (cache, counters) = (SolverCache::new(), PlanCounters::default());
        let with_budget = |bytes| PlanStore {
            skeletons: &cache,
            counters: &counters,
            results: ByteLru::new(bytes),
        };
        let store = with_budget(2 * entry);
        for cfg in &configs {
            assert_eq!(charge(cfg), entry);
            solution(&store, cfg, &options);
        }
        let held = store.results.stats("results");
        assert_eq!((held.entries, held.bytes), (2, 2 * entry as u64));
        assert_eq!(counts(&counters), [(0, 5, 3), (0, 0, 0)]);
        // A solution over the whole budget still reaches its caller, uncached.
        let tiny = with_budget(entry - 1);
        solution(&tiny, &configs[0], &options);
        assert_eq!(tiny.results.stats("results").entries, 0);
        assert_eq!(counters.stats()[SOLUTIONS].oversized, 1);
    }

    #[test]
    fn chains_are_shared_per_configuration_within_a_plan() {
        let (cache, counters) = (SolverCache::new(), PlanCounters::default());
        let store = PlanStore::new(&cache, &counters);
        let (cfg, options) = (config(3, 2.0), ResponseOptions::default());
        let first = store.chain(&cfg, &options).unwrap();
        assert!(Arc::ptr_eq(&first, &store.chain(&cfg, &options).unwrap()));
        assert_eq!(counts(&counters), [(0, 1, 0), (1, 1, 0)]);
        // The store charges the chain's and its solution's real footprints plus keys.
        let mg = options.matrix_geometric;
        let chain_key = transform_key(&cfg, &mg, options.tail_epsilon).unwrap();
        let charged = ByteLru::<_, Shared>::charge(&chain_key, first.heap_bytes())
            + ByteLru::<_, Shared>::charge(
                &solution_key(&cfg, &mg).unwrap(),
                solution(&store, &cfg, &mg).heap_bytes(),
            );
        assert_eq!(store.results.stats("results").bytes as usize, charged);
        // A different tail threshold is a different chain on the same solution.
        store.chain(&cfg, &ResponseOptions { tail_epsilon: 1e-9, ..options }).unwrap();
        assert_eq!(counts(&counters), [(2, 1, 0), (1, 2, 0)]);
        assert_eq!(store.results.stats("results").entries, 3);
        // The analysis on the shared chain answers as a standalone one does.
        let p90 = |analysis: ResponseAnalysis| analysis.response_time_percentile(0.9).unwrap();
        let alone = ResponseAnalysis::new(&cfg).unwrap();
        assert_eq!(p90(store.analysis(&cfg, options).unwrap()).to_bits(), p90(alone).to_bits());
    }
}
