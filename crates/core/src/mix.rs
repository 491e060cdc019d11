//! Cost-aware optimisation of multi-class fleet compositions.
//!
//! Section 4 of the paper optimises the cost `C = c₁·L + c₂·N` over a *single* number
//! of servers.  Once the fleet may mix [`ServerClass`]es with different speeds,
//! lifecycles and prices (the heterogeneous extension flagged as future work), the
//! decision space becomes the set of *compositions* `(N₁, …, N_k)` and the cost model
//! the per-class [`ClassCostModel`] `C = c₁·L + Σ_j c₂ⱼ·Nⱼ`.  [`MixSearch`] optimises
//! over that space under fleet-size and hardware-budget bounds:
//!
//! * **small spaces** are enumerated exhaustively and every stable composition is
//!   solved exactly by the [`MatrixGeometricSolver`];
//! * **large spaces** are screened first with the cheap [`GeometricApproximation`],
//!   and only the shortlisted candidates — everything within a relative slack band of
//!   the approximate best, bounded by [`MixSearchOptions`] — are verified exactly.
//!   Screening costs about 20 unpivoted banded LUs per composition (the
//!   approximation brackets its decay rate rather than solving an eigenproblem), a
//!   fraction of one exact solve.  Screening and verification share one
//!   [`SolverCache`], so the exact pass reuses the QBD skeletons the approximation
//!   already built instead of repeating them.
//!   Screening is a heuristic: the approximation's error is load-dependent, and a
//!   mix whose approximate cost lies far outside the slack band is never verified —
//!   [`MixSearch::run_exhaustive`] is the exact reference when certainty matters
//!   more than time.
//!
//! Candidates are evaluated in parallel on a [`ThreadPool`], and the winner is chosen
//! deterministically: lowest cost, then lowest fleet size, then lexicographically
//! smallest composition.  Compositions whose cost evaluates to NaN or ±∞ are skipped,
//! mirroring [`CostSweep::optimum`](crate::CostSweep::optimum).
//!
//! # Example
//!
//! ```
//! use urs_core::{ClassCostModel, MixBounds, MixSearch, ServerClass, ServerLifecycle};
//!
//! # fn main() -> Result<(), urs_core::ModelError> {
//! // Fast-but-fragile servers (price 1.4) versus steady ones (price 1.0).
//! let fast = ServerClass::new(1, 1.5, ServerLifecycle::exponential(0.1, 2.0)?)?;
//! let steady = ServerClass::new(1, 1.0, ServerLifecycle::exponential(0.01, 5.0)?)?;
//! let cost = ClassCostModel::new(4.0, vec![1.4, 1.0])?;
//! let search = MixSearch::new(1.8, vec![fast, steady], cost, MixBounds::up_to(4)?)?;
//! let result = search.run()?;
//! let best = result.optimum().expect("a stable mix exists");
//! assert_eq!(best.counts().len(), 2);
//! assert!(best.servers() <= 4);
//! # Ok(())
//! # }
//! ```

use std::cmp::Ordering;
use std::sync::Arc;

use crate::approx::GeometricApproximation;
use crate::cache::SolverCache;
use crate::config::{ServerClass, SystemConfig};
use crate::cost::ClassCostModel;
use crate::error::ModelError;
use crate::matrix_geometric::MatrixGeometricSolver;
use crate::parallel::ThreadPool;
use crate::solution::QueueSolution as _;
use crate::Result;

/// Feasibility bounds of a mix search: fleet-size limits and an optional hardware
/// budget `Σ_j c₂ⱼ·Nⱼ ≤ budget`.
#[derive(Debug, Clone, PartialEq)]
pub struct MixBounds {
    min_servers: usize,
    max_servers: usize,
    budget: Option<f64>,
}

impl MixBounds {
    /// Bounds allowing every composition with `1 ..= max_servers` servers in total
    /// and no budget constraint.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] when `max_servers == 0`.
    pub fn up_to(max_servers: usize) -> Result<Self> {
        if max_servers == 0 {
            return Err(ModelError::InvalidParameter {
                name: "max_servers",
                value: 0.0,
                constraint: "must be at least 1",
            });
        }
        Ok(MixBounds { min_servers: 1, max_servers, budget: None })
    }

    /// Raises the minimum total fleet size (useful when small fleets are known to be
    /// unstable and should not even be enumerated).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] when `min_servers` is zero or exceeds
    /// the maximum.
    pub fn with_min_servers(mut self, min_servers: usize) -> Result<Self> {
        if min_servers == 0 || min_servers > self.max_servers {
            return Err(ModelError::InvalidParameter {
                name: "min_servers",
                value: min_servers as f64,
                constraint: "must lie in 1 ..= max_servers",
            });
        }
        self.min_servers = min_servers;
        Ok(self)
    }

    /// Adds a hardware-budget constraint: only compositions whose provisioning cost
    /// [`ClassCostModel::fleet_cost`] stays within `budget` are considered.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] when `budget` is not positive and
    /// finite.
    pub fn with_budget(mut self, budget: f64) -> Result<Self> {
        if !(budget.is_finite() && budget > 0.0) {
            return Err(ModelError::InvalidParameter {
                name: "budget",
                value: budget,
                constraint: "must be finite and positive",
            });
        }
        self.budget = Some(budget);
        Ok(self)
    }

    /// Smallest admissible total fleet size.
    pub fn min_servers(&self) -> usize {
        self.min_servers
    }

    /// Largest admissible total fleet size.
    pub fn max_servers(&self) -> usize {
        self.max_servers
    }

    /// The hardware budget, if any.
    pub fn budget(&self) -> Option<f64> {
        self.budget
    }
}

/// Tuning knobs of a [`MixSearch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixSearchOptions {
    /// Feasible spaces of at most this many compositions are solved exactly in full;
    /// larger spaces go through approximation screening.  Setting this to 0 forces
    /// screening even for tiny spaces (used by the equivalence tests).
    pub exhaustive_limit: usize,
    /// Minimum number of screened candidates verified exactly (clamped to at least 1).
    pub screen_top_k: usize,
    /// Relative width of the verification band: every candidate whose *approximate*
    /// cost lies within `(1 + screen_slack)` of the approximate best is shortlisted
    /// for exact verification (up to [`screen_max_verified`](Self::screen_max_verified)).
    /// The approximation mis-ranks near-ties — its error is load-dependent, so two
    /// mixes a few percent apart in approximate cost can swap places exactly — and a
    /// fixed top-k cut would drop the true optimum in exactly those cases.  Negative
    /// values are treated as 0.
    pub screen_slack: f64,
    /// Upper bound on the number of exactly verified candidates, so a wide slack band
    /// on a huge space cannot degenerate into an accidental exhaustive pass.
    pub screen_max_verified: usize,
    /// Hard cap on the enumerated space: searches whose bounds admit more
    /// compositions fail fast instead of grinding through an unintended explosion.
    pub max_candidates: usize,
}

impl Default for MixSearchOptions {
    fn default() -> Self {
        MixSearchOptions {
            exhaustive_limit: 256,
            screen_top_k: 8,
            screen_slack: 0.25,
            screen_max_verified: 32,
            max_candidates: 50_000,
        }
    }
}

/// One fully evaluated composition: per-class server counts (aligned with the class
/// order given to [`MixSearch::new`]), the exact mean queue length and the cost.
#[derive(Debug, Clone, PartialEq)]
pub struct MixCandidate {
    counts: Vec<usize>,
    mean_queue_length: f64,
    cost: f64,
}

impl MixCandidate {
    /// Per-class server counts, aligned with the classes passed to the search.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Total fleet size `Σ_j Nⱼ`.
    pub fn servers(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Mean number of jobs in the system for this composition.
    pub fn mean_queue_length(&self) -> f64 {
        self.mean_queue_length
    }

    /// Total cost `c₁·L + Σ_j c₂ⱼ·Nⱼ`.
    pub fn cost(&self) -> f64 {
        self.cost
    }
}

/// Deterministic candidate ranking: lowest cost first, ties broken by the smaller
/// fleet, then by the lexicographically smaller composition.
fn candidate_order(a: &MixCandidate, b: &MixCandidate) -> Ordering {
    a.cost
        .total_cmp(&b.cost)
        .then_with(|| a.servers().cmp(&b.servers()))
        .then_with(|| a.counts.cmp(&b.counts))
}

/// The outcome of a [`MixSearch`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct MixSearchResult {
    evaluated: Vec<MixCandidate>,
    candidates: usize,
    screened: bool,
    skipped_unstable: usize,
    skipped_non_finite: usize,
    dropped_failures: usize,
}

impl MixSearchResult {
    /// The optimal composition, if any feasible composition was stable and finite.
    pub fn optimum(&self) -> Option<&MixCandidate> {
        self.evaluated.first()
    }

    /// Every exactly evaluated composition, best first.  The exhaustive path ranks
    /// the whole feasible space; the screened path ranks the verified `top_k`.
    pub fn ranked(&self) -> &[MixCandidate] {
        &self.evaluated
    }

    /// Number of feasible compositions the bounds admitted.
    pub fn candidates(&self) -> usize {
        self.candidates
    }

    /// `true` when the approximation-screening path was taken, `false` when every
    /// feasible composition was solved exactly.
    pub fn was_screened(&self) -> bool {
        self.screened
    }

    /// Compositions skipped because the queue would be unstable.
    pub fn skipped_unstable(&self) -> usize {
        self.skipped_unstable
    }

    /// Compositions skipped because their cost evaluated to NaN or ±∞.
    pub fn skipped_non_finite(&self) -> usize {
        self.skipped_non_finite
    }

    /// Compositions dropped because a solver failed numerically on them (the search
    /// continues with the remaining candidates rather than failing outright).
    pub fn dropped_failures(&self) -> usize {
        self.dropped_failures
    }
}

/// How a single composition fared during an evaluation pass.
enum Outcome {
    Evaluated(MixCandidate),
    Unstable,
    NonFinite,
    Failed,
}

/// A cost-aware search over multi-class fleet compositions — see the
/// [module docs](self) for the search strategy.
#[derive(Debug, Clone)]
pub struct MixSearch {
    arrival_rate: f64,
    classes: Vec<ServerClass>,
    cost_model: ClassCostModel,
    bounds: MixBounds,
    options: MixSearchOptions,
    cache: Option<Arc<SolverCache>>,
}

impl MixSearch {
    /// Creates a search over compositions of the given classes.  The `count` fields
    /// of the template classes are ignored — the search assigns counts — and the
    /// `cost_model` prices class `j` of `classes` with its `j`-th server cost, so the
    /// two must have the same arity.  Candidate count vectors (and
    /// [`MixCandidate::counts`]) are aligned with `classes` in the order given here.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] when `classes` is empty, the cost
    /// model prices a different number of classes, or the arrival rate is not
    /// positive and finite.
    pub fn new(
        arrival_rate: f64,
        classes: Vec<ServerClass>,
        cost_model: ClassCostModel,
        bounds: MixBounds,
    ) -> Result<Self> {
        if classes.is_empty() {
            return Err(ModelError::InvalidParameter {
                name: "classes",
                value: 0.0,
                constraint: "at least one server class is required",
            });
        }
        if cost_model.classes() != classes.len() {
            return Err(ModelError::InvalidParameter {
                name: "server_costs",
                value: cost_model.classes() as f64,
                constraint: "the cost model must price exactly one cost per class",
            });
        }
        if !(arrival_rate.is_finite() && arrival_rate > 0.0) {
            return Err(ModelError::InvalidParameter {
                name: "arrival_rate",
                value: arrival_rate,
                constraint: "must be finite and positive",
            });
        }
        Ok(MixSearch {
            arrival_rate,
            classes,
            cost_model,
            bounds,
            options: Default::default(),
            cache: None,
        })
    }

    /// Replaces the default [`MixSearchOptions`].
    pub fn with_options(mut self, options: MixSearchOptions) -> Self {
        self.options = options;
        self
    }

    /// Attaches an external [`SolverCache`] (shared with other analyses); by default
    /// each run creates a private cache sized to the candidate space.
    pub fn with_cache(mut self, cache: Arc<SolverCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The template classes, in the order candidate counts refer to them.
    pub fn classes(&self) -> &[ServerClass] {
        &self.classes
    }

    /// The per-class cost model in use.
    pub fn cost_model(&self) -> &ClassCostModel {
        &self.cost_model
    }

    /// Enumerates every feasible composition in deterministic (lexicographic) order:
    /// all `(N₁, …, N_k)` with `min_servers ≤ ΣNⱼ ≤ max_servers` that fit the budget.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] when the space exceeds
    /// [`MixSearchOptions::max_candidates`].
    pub fn candidate_mixes(&self) -> Result<Vec<Vec<usize>>> {
        let mut mixes = Vec::new();
        let mut current = vec![0usize; self.classes.len()];
        self.enumerate(0, 0, 0.0, &mut current, &mut mixes)?;
        Ok(mixes)
    }

    fn enumerate(
        &self,
        class: usize,
        used: usize,
        spent: f64,
        current: &mut Vec<usize>,
        mixes: &mut Vec<Vec<usize>>,
    ) -> Result<()> {
        if class == self.classes.len() {
            if used >= self.bounds.min_servers {
                if mixes.len() >= self.options.max_candidates {
                    return Err(ModelError::InvalidParameter {
                        name: "max_candidates",
                        value: self.options.max_candidates as f64,
                        constraint: "the mix space exceeds max_candidates; tighten the \
                                     bounds or raise the option",
                    });
                }
                mixes.push(current.clone());
            }
            return Ok(());
        }
        let price = self
            .cost_model
            .server_costs()
            .get(class)
            .copied()
            .ok_or(ModelError::Internal("mix enumeration visited a class without a price"))?;
        for count in 0..=(self.bounds.max_servers - used) {
            let cost = spent + price * count as f64;
            if let Some(budget) = self.bounds.budget {
                if cost > budget {
                    // Prices can be zero or negative in principle, so keep scanning
                    // the full count range instead of breaking at the first overrun.
                    continue;
                }
            }
            if let Some(slot) = current.get_mut(class) {
                *slot = count;
            }
            self.enumerate(class + 1, used + count, cost, current, mixes)?;
        }
        if let Some(slot) = current.get_mut(class) {
            *slot = 0;
        }
        Ok(())
    }

    /// Builds the [`SystemConfig`] of one composition.
    fn config_for(&self, counts: &[usize]) -> Result<SystemConfig> {
        let classes = self
            .classes
            .iter()
            .zip(counts)
            .filter(|(_, &count)| count > 0)
            .map(|(class, &count)| class.with_count(count))
            .collect::<Result<Vec<_>>>()?;
        SystemConfig::heterogeneous(self.arrival_rate, classes)
    }

    /// Evaluates one composition with the given solver, classifying numeric solver
    /// failures as droppable instead of fatal (an ill-conditioned candidate must not
    /// sink the whole search).
    fn evaluate(
        &self,
        counts: &[usize],
        solve: &dyn Fn(&SystemConfig) -> Result<f64>,
    ) -> Result<Outcome> {
        let config = self.config_for(counts)?;
        if !config.is_stable() {
            return Ok(Outcome::Unstable);
        }
        let mean_queue_length = match solve(&config) {
            Ok(l) => l,
            Err(
                ModelError::SpectralFailure(_)
                | ModelError::NoConvergence { .. }
                | ModelError::Linalg(_),
            ) => return Ok(Outcome::Failed),
            Err(e) => return Err(e),
        };
        let cost = self.cost_model.evaluate(mean_queue_length, counts);
        if !cost.is_finite() {
            return Ok(Outcome::NonFinite);
        }
        Ok(Outcome::Evaluated(MixCandidate { counts: counts.to_vec(), mean_queue_length, cost }))
    }

    /// Runs the search on the default [`ThreadPool`].
    ///
    /// # Errors
    ///
    /// Propagates enumeration-cap and non-numeric solver errors.
    pub fn run(&self) -> Result<MixSearchResult> {
        self.run_with(&ThreadPool::default())
    }

    /// Runs the search on an explicit pool, choosing the exhaustive or the screened
    /// path by comparing the space against [`MixSearchOptions::exhaustive_limit`].
    ///
    /// # Errors
    ///
    /// Propagates enumeration-cap and non-numeric solver errors.
    pub fn run_with(&self, pool: &ThreadPool) -> Result<MixSearchResult> {
        let mixes = self.candidate_mixes()?;
        if mixes.len() <= self.options.exhaustive_limit {
            return self.run_exhaustive_on(pool, mixes);
        }
        self.run_screened_on(pool, mixes)
    }

    /// Forces the all-exact path regardless of the space size (the reference the
    /// screened path is validated against), on the default pool.
    ///
    /// # Errors
    ///
    /// Propagates enumeration-cap and non-numeric solver errors.
    pub fn run_exhaustive(&self) -> Result<MixSearchResult> {
        self.run_exhaustive_with(&ThreadPool::default())
    }

    /// [`run_exhaustive`](Self::run_exhaustive) with an explicit worker pool.
    ///
    /// # Errors
    ///
    /// Propagates enumeration-cap and non-numeric solver errors.
    pub fn run_exhaustive_with(&self, pool: &ThreadPool) -> Result<MixSearchResult> {
        let mixes = self.candidate_mixes()?;
        self.run_exhaustive_on(pool, mixes)
    }

    /// How many of the approximately ranked candidates to verify exactly: everything
    /// inside the relative `screen_slack` band above the approximate best, but at
    /// least `screen_top_k` and at most `screen_max_verified`.
    fn shortlist_len(&self, ranked: &[MixCandidate]) -> usize {
        let Some(best) = ranked.first() else { return 0 };
        let cutoff = best.cost + self.options.screen_slack.max(0.0) * best.cost.abs();
        let qualified = ranked.iter().take_while(|c| c.cost <= cutoff).count();
        let floor = self.options.screen_top_k.max(1).min(ranked.len());
        let ceiling = self.options.screen_max_verified.max(floor);
        qualified.clamp(floor, ceiling)
    }

    /// A cache for one run: the attached one, or a private cache whose capacities
    /// cover the candidate space, so the exact verification pass still finds the
    /// skeletons the screening pass built.
    fn run_cache(&self, candidates: usize) -> Arc<SolverCache> {
        match &self.cache {
            Some(cache) => Arc::clone(cache),
            None => {
                let capacity = candidates.clamp(64, 4096);
                Arc::new(SolverCache::with_capacities(capacity, capacity))
            }
        }
    }

    fn run_exhaustive_on(
        &self,
        pool: &ThreadPool,
        mixes: Vec<Vec<usize>>,
    ) -> Result<MixSearchResult> {
        // Distinct compositions have distinct cache keys, so within one exhaustive
        // run the cache only hits when duplicate template classes make two count
        // vectors describe the same fleet — those solves then cost one lookup
        // instead of a repeat.  The per-solve lookup overhead is a few mutex
        // acquisitions against solves that cost milliseconds.
        let cache = self.run_cache(mixes.len());
        let solver = MatrixGeometricSolver::default().with_cache(cache);
        let solve = |config: &SystemConfig| -> Result<f64> {
            Ok(solver.solve_shared(config)?.mean_queue_length())
        };
        let outcomes = pool.try_par_map(&mixes, |counts| self.evaluate(counts, &solve))?;
        Ok(assemble(outcomes, mixes.len(), false, None))
    }

    fn run_screened_on(
        &self,
        pool: &ThreadPool,
        mixes: Vec<Vec<usize>>,
    ) -> Result<MixSearchResult> {
        let cache = self.run_cache(mixes.len());
        // Screening: rank every feasible composition with the cheap approximation.
        let approx = GeometricApproximation::default().with_cache(Arc::clone(&cache));
        let screen = |config: &SystemConfig| -> Result<f64> {
            Ok(approx.solve_detailed(config)?.mean_queue_length())
        };
        let outcomes = pool.try_par_map(&mixes, |counts| self.evaluate(counts, &screen))?;
        let mut screening = MixSearchResult {
            evaluated: Vec::new(),
            candidates: mixes.len(),
            screened: true,
            skipped_unstable: 0,
            skipped_non_finite: 0,
            dropped_failures: 0,
        };
        let mut ranked: Vec<MixCandidate> = Vec::new();
        for outcome in outcomes {
            match outcome {
                Outcome::Evaluated(candidate) => ranked.push(candidate),
                Outcome::Unstable => screening.skipped_unstable += 1,
                Outcome::NonFinite => screening.skipped_non_finite += 1,
                Outcome::Failed => screening.dropped_failures += 1,
            }
        }
        ranked.sort_by(candidate_order);
        ranked.truncate(self.shortlist_len(&ranked));

        // Verification: solve the shortlisted compositions exactly.  The shared
        // cache hands the matrix-geometric solver the skeletons the screening pass
        // already built for exactly these configurations.
        let solver = MatrixGeometricSolver::default().with_cache(cache);
        let solve = |config: &SystemConfig| -> Result<f64> {
            Ok(solver.solve_shared(config)?.mean_queue_length())
        };
        let shortlist: Vec<Vec<usize>> = ranked.into_iter().map(|c| c.counts).collect();
        let outcomes = pool.try_par_map(&shortlist, |counts| self.evaluate(counts, &solve))?;
        Ok(assemble(outcomes, mixes.len(), true, Some(screening)))
    }
}

/// Folds evaluation outcomes into a sorted result, merging the counters of an
/// earlier screening pass when one happened.
fn assemble(
    outcomes: Vec<Outcome>,
    candidates: usize,
    screened: bool,
    screening: Option<MixSearchResult>,
) -> MixSearchResult {
    let mut result = screening.unwrap_or_else(|| MixSearchResult {
        evaluated: Vec::new(),
        candidates,
        screened,
        skipped_unstable: 0,
        skipped_non_finite: 0,
        dropped_failures: 0,
    });
    for outcome in outcomes {
        match outcome {
            Outcome::Evaluated(candidate) => result.evaluated.push(candidate),
            Outcome::Unstable => result.skipped_unstable += 1,
            Outcome::NonFinite => result.skipped_non_finite += 1,
            Outcome::Failed => result.dropped_failures += 1,
        }
    }
    result.evaluated.sort_by(candidate_order);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerLifecycle;

    fn two_class_search(max: usize) -> MixSearch {
        let fast =
            ServerClass::new(1, 1.5, ServerLifecycle::exponential(0.1, 2.0).unwrap()).unwrap();
        let steady =
            ServerClass::new(1, 1.0, ServerLifecycle::exponential(0.01, 5.0).unwrap()).unwrap();
        MixSearch::new(
            1.8,
            vec![fast, steady],
            ClassCostModel::new(4.0, vec![1.4, 1.0]).unwrap(),
            MixBounds::up_to(max).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn enumeration_is_lexicographic_and_bounded() {
        let search = two_class_search(3);
        let mixes = search.candidate_mixes().unwrap();
        // Compositions with 1 <= n1 + n2 <= 3: C(5,2) - 1 = 9.
        assert_eq!(mixes.len(), 9);
        assert_eq!(mixes.first().unwrap(), &vec![0, 1]);
        assert_eq!(mixes.last().unwrap(), &vec![3, 0]);
        let mut sorted = mixes.clone();
        sorted.sort();
        assert_eq!(mixes, sorted, "enumeration must already be lexicographic");
    }

    #[test]
    fn budget_and_min_bounds_prune_the_space() {
        let search = two_class_search(3);
        let bounded = MixSearch {
            bounds: MixBounds::up_to(3)
                .unwrap()
                .with_min_servers(2)
                .unwrap()
                .with_budget(2.9)
                .unwrap(),
            ..search
        };
        let mixes = bounded.candidate_mixes().unwrap();
        // Admissible: 2 <= n1 + n2 <= 3 and 1.4·n1 + n2 <= 2.9, i.e. (0,2), (1,1)
        // and (2,0) — e.g. (0,3) costs 3.0 and (1,2) costs 3.4, both over budget.
        assert_eq!(mixes, vec![vec![0, 2], vec![1, 1], vec![2, 0]]);
    }

    #[test]
    fn candidate_cap_fails_fast() {
        let search = two_class_search(40)
            .with_options(MixSearchOptions { max_candidates: 10, ..Default::default() });
        assert!(matches!(
            search.candidate_mixes(),
            Err(ModelError::InvalidParameter { name: "max_candidates", .. })
        ));
    }

    #[test]
    fn validation_rejects_mismatched_arities() {
        let fast =
            ServerClass::new(1, 1.5, ServerLifecycle::exponential(0.1, 2.0).unwrap()).unwrap();
        let cost = ClassCostModel::new(4.0, vec![1.0, 1.0]).unwrap();
        assert!(MixSearch::new(
            1.0,
            vec![fast.clone()],
            cost.clone(),
            MixBounds::up_to(3).unwrap()
        )
        .is_err());
        assert!(MixSearch::new(
            1.0,
            vec![],
            ClassCostModel::new(4.0, vec![1.0]).unwrap(),
            MixBounds::up_to(3).unwrap()
        )
        .is_err());
        assert!(MixSearch::new(
            f64::NAN,
            vec![fast],
            ClassCostModel::new(4.0, vec![1.0]).unwrap(),
            MixBounds::up_to(3).unwrap()
        )
        .is_err());
        assert!(MixBounds::up_to(0).is_err());
        assert!(MixBounds::up_to(3).unwrap().with_min_servers(4).is_err());
        assert!(MixBounds::up_to(3).unwrap().with_budget(f64::NAN).is_err());
    }

    #[test]
    fn deterministic_tie_breaking_prefers_small_lexicographic_mixes() {
        let a = MixCandidate { counts: vec![1, 2], mean_queue_length: 1.0, cost: 5.0 };
        let smaller_fleet = MixCandidate { counts: vec![2, 0], mean_queue_length: 2.0, cost: 5.0 };
        let lex_smaller = MixCandidate { counts: vec![0, 3], mean_queue_length: 2.0, cost: 5.0 };
        assert_eq!(candidate_order(&smaller_fleet, &a), Ordering::Less);
        assert_eq!(candidate_order(&lex_smaller, &a), Ordering::Less);
        assert_eq!(
            candidate_order(
                &MixCandidate { counts: vec![9, 9], mean_queue_length: 0.0, cost: 4.9 },
                &smaller_fleet
            ),
            Ordering::Less,
            "cost dominates the tie-breakers"
        );
    }

    #[test]
    fn shortlist_widens_with_the_slack_band_but_stays_capped() {
        let search = two_class_search(3).with_options(MixSearchOptions {
            screen_top_k: 2,
            screen_slack: 0.5,
            screen_max_verified: 4,
            ..Default::default()
        });
        let candidate =
            |cost: f64| MixCandidate { counts: vec![1, 0], mean_queue_length: 0.0, cost };
        // Costs 10, 12, 14, 16, 18: slack 0.5 admits <= 15, i.e. 3 candidates.
        let ranked: Vec<MixCandidate> = [10.0, 12.0, 14.0, 16.0, 18.0].map(candidate).to_vec();
        assert_eq!(search.shortlist_len(&ranked), 3);
        // The floor applies when the band is narrow …
        let narrow = MixSearch {
            options: MixSearchOptions { screen_slack: 0.0, ..search.options },
            ..search.clone()
        };
        assert_eq!(narrow.shortlist_len(&ranked), 2);
        // … and the cap when it is wide.
        let wide = MixSearch {
            options: MixSearchOptions { screen_slack: 10.0, ..search.options },
            ..search.clone()
        };
        assert_eq!(wide.shortlist_len(&ranked), 4);
        assert_eq!(search.shortlist_len(&[]), 0);
    }

    #[test]
    fn small_space_runs_exhaustively_and_finds_a_stable_optimum() {
        let search = two_class_search(4);
        let result = search.run().unwrap();
        assert!(!result.was_screened());
        assert_eq!(
            result.candidates(),
            14, // compositions with 1 <= total <= 4
        );
        let best = result.optimum().expect("stable mixes exist");
        assert!(best.servers() >= 2, "λ = 1.8 needs at least two unit-rate servers");
        assert!(best.cost().is_finite());
        // The ranking is consistent: best-first by the deterministic order.
        for pair in result.ranked().windows(2) {
            assert_ne!(candidate_order(&pair[0], &pair[1]), Ordering::Greater);
        }
        // Unstable small fleets were skipped, not evaluated.
        assert!(result.skipped_unstable() > 0);
        assert_eq!(
            result.evaluated.len() + result.skipped_unstable(),
            result.candidates(),
            "every candidate is either evaluated or skipped as unstable"
        );
    }
}
