//! Cost-aware optimisation of multi-class fleet compositions.
//!
//! Section 4 of the paper optimises the cost `C = c₁·L + c₂·N` over a *single* number
//! of servers.  Once the fleet may mix [`ServerClass`]es with different speeds,
//! lifecycles and prices (the heterogeneous extension flagged as future work), the
//! decision space becomes the set of *compositions* `(N₁, …, N_k)` and the cost model
//! the per-class [`ClassCostModel`] `C = c₁·L + Σ_j c₂ⱼ·Nⱼ`.  [`MixSearch`] returns
//! the exact optimum over that space under fleet-size and hardware-budget bounds.
//! Every stable composition gets a closed-form lower bound on its cost,
//! `b = c₁·L_rel + Σ_j c₂ⱼ·Nⱼ` (see [`MixSearch::queue_length_bound`]), and is solved
//! exactly by the [`MatrixGeometricSolver`] in ascending order of `b`.  Spaces of
//! more than [`MixSearchOptions::exhaustive_limit`] compositions are pruned by
//! branch and bound: the search stops before the first composition whose bound is
//! strictly greater than the best exact cost so far.  Smaller spaces, and
//! [`MixSearch::run_exhaustive`], solve every stable composition.
//!
//! Candidates are solved in parallel on a [`ThreadPool`], the pruned path in waves
//! of one composition per worker.  The winner is chosen deterministically: lowest
//! cost, then lowest fleet size, then lexicographically smallest composition.  Only
//! compositions whose bound does not exceed the optimum's cost are reported, and
//! every schedule solves those, so the result does not depend on the thread count.
//! Compositions whose cost evaluates to NaN or ±∞ are skipped, mirroring
//! [`CostSweep::optimum`](crate::CostSweep::optimum).
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
    /// larger spaces are pruned by the cost bound.  Setting this to 0 prunes even
    /// tiny spaces (used by the equivalence tests).
    pub exhaustive_limit: usize,
    /// Hard cap on the enumerated space: searches whose bounds admit more
    /// compositions fail fast instead of grinding through an unintended explosion.
    pub max_candidates: usize,
}

impl Default for MixSearchOptions {
    fn default() -> Self {
        MixSearchOptions { exhaustive_limit: 256, max_candidates: 50_000 }
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

    /// Exactly evaluated compositions, best first.  The exhaustive path ranks the
    /// whole feasible space; the pruned path ranks every composition whose cost
    /// bound does not exceed the optimum's cost.
    pub fn ranked(&self) -> &[MixCandidate] {
        &self.evaluated
    }

    /// Number of feasible compositions the bounds admitted.
    pub fn candidates(&self) -> usize {
        self.candidates
    }

    /// `true` when the space exceeded [`MixSearchOptions::exhaustive_limit`] and the
    /// search pruned by the cost bound, `false` when every stable composition was
    /// solved.
    pub fn was_screened(&self) -> bool {
        self.screened
    }

    /// Compositions skipped because the queue would be unstable.
    pub fn skipped_unstable(&self) -> usize {
        self.skipped_unstable
    }

    /// Compositions skipped because their cost evaluated to NaN or ±∞ (counted over
    /// the compositions [`ranked`](Self::ranked) could have reported).
    pub fn skipped_non_finite(&self) -> usize {
        self.skipped_non_finite
    }

    /// Compositions dropped because a solver failed numerically on them (the search
    /// continues with the remaining candidates rather than failing outright; counted
    /// like [`skipped_non_finite`](Self::skipped_non_finite)).
    pub fn dropped_failures(&self) -> usize {
        self.dropped_failures
    }
}

/// How a single composition fared when solved exactly.
enum Outcome {
    Evaluated(MixCandidate),
    NonFinite,
    Failed,
}

/// A stable composition awaiting its exact solve, with its cost bound.
struct Pending {
    counts: Vec<usize>,
    config: SystemConfig,
    bound: f64,
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

    /// Attaches an external [`SolverCache`] (shared with other analyses) whose QBD
    /// skeletons the search reuses; by default it solves without one.
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

    /// Builds the [`SystemConfig`] of one composition (`counts` aligned with
    /// [`classes`](Self::classes)).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] when every count is zero.
    pub fn config(&self, counts: &[usize]) -> Result<SystemConfig> {
        let classes = self
            .classes
            .iter()
            .zip(counts)
            .filter(|(_, &count)| count > 0)
            .map(|(class, &count)| class.with_count(count))
            .collect::<Result<Vec<_>>>()?;
        SystemConfig::heterogeneous(self.arrival_rate, classes)
    }

    /// A lower bound on the mean queue length `L` of one composition, in closed form.
    ///
    /// With every server counted as operative, at most `min(j, n)` servers are busy
    /// at level `j`, so the departure rate there is at most `g(j)`, the sum of the
    /// `min(j, n)` largest service rates in the composition.  `g` never decreases,
    /// so the birth–death chain with birth rate `λ` and death rates `g(j)` is
    /// stochastically smaller than the queue's level process (Stoyan 1983), and its
    /// mean `L_rel ≤ L`.  Its stationary probabilities are `pⱼ ∝ Π_{i ≤ j} λ/g(i)`,
    /// geometric with ratio `λ/G` from level `n` on, where `G` is the total rate.
    /// The bound costs O(n) and is finite for every stable composition, because
    /// `λ < Σ availability·rate ≤ G`; it is `+∞` when `λ ≥ G`.
    ///
    /// `counts` is aligned with [`classes`](Self::classes).
    pub fn queue_length_bound(&self, counts: &[usize]) -> f64 {
        let mut rates: Vec<f64> = self
            .classes
            .iter()
            .zip(counts)
            .flat_map(|(class, &count)| std::iter::repeat_n(class.service_rate(), count))
            .collect();
        rates.sort_by(|a, b| b.total_cmp(a));
        let lambda = self.arrival_rate;
        // Unnormalised level probabilities q_j = Π_{i ≤ j} λ/g(i): their mass and
        // first moment over the levels below n, then the geometric tail from q_n.
        let (mut mass, mut moment, mut q, mut g) = (0.0, 0.0, 1.0, 0.0);
        for (level, rate) in rates.iter().enumerate() {
            mass += q;
            moment += level as f64 * q;
            g += rate;
            q *= lambda / g;
        }
        if lambda >= g {
            return f64::INFINITY;
        }
        let ratio = lambda / g;
        let n = rates.len() as f64;
        mass += q / (1.0 - ratio);
        moment += q * (n / (1.0 - ratio) + ratio / ((1.0 - ratio) * (1.0 - ratio)));
        moment / mass
    }

    /// Solves one composition exactly, classifying numeric solver failures as
    /// droppable instead of fatal (an ill-conditioned candidate must not sink the
    /// whole search).
    fn evaluate(&self, pending: &Pending, solver: &MatrixGeometricSolver) -> Result<Outcome> {
        let mean_queue_length = match solver.solve_detailed(&pending.config) {
            Ok(solution) => solution.mean_queue_length(),
            Err(
                ModelError::SpectralFailure(_)
                | ModelError::NoConvergence { .. }
                | ModelError::Linalg(_),
            ) => return Ok(Outcome::Failed),
            Err(e) => return Err(e),
        };
        let cost = self.cost_model.evaluate(mean_queue_length, &pending.counts);
        if !cost.is_finite() {
            return Ok(Outcome::NonFinite);
        }
        let counts = pending.counts.clone();
        Ok(Outcome::Evaluated(MixCandidate { counts, mean_queue_length, cost }))
    }

    /// Runs the search on the default [`ThreadPool`].
    ///
    /// # Errors
    ///
    /// Propagates enumeration-cap and non-numeric solver errors.
    pub fn run(&self) -> Result<MixSearchResult> {
        self.run_with(&ThreadPool::default())
    }

    /// Runs the search on an explicit pool, pruning by the cost bound when the space
    /// exceeds [`MixSearchOptions::exhaustive_limit`].
    ///
    /// # Errors
    ///
    /// Propagates enumeration-cap and non-numeric solver errors.
    pub fn run_with(&self, pool: &ThreadPool) -> Result<MixSearchResult> {
        let mixes = self.candidate_mixes()?;
        let prune = mixes.len() > self.options.exhaustive_limit;
        self.run_on(pool, mixes, prune)
    }

    /// Solves every stable composition regardless of the space size (the reference
    /// the pruned path is validated against), on the default pool.
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
        self.run_on(pool, mixes, false)
    }

    /// The one search loop: solve the stable compositions in ascending bound order,
    /// one wave per `pool.threads()` compositions, and — when `prune` is set — stop
    /// before the first whose bound strictly exceeds the best exact cost so far.
    /// Without a bound (no pruning, or `c₁ < 0`) every bound is `−∞`, so everything
    /// is solved in one wave.
    fn run_on(
        &self,
        pool: &ThreadPool,
        mixes: Vec<Vec<usize>>,
        prune: bool,
    ) -> Result<MixSearchResult> {
        // A lower bound on L bounds the cost only when c₁ ≥ 0; otherwise every
        // composition gets b = −∞, which means "solve it".
        let prune_by_bound = prune && self.cost_model.holding_cost() >= 0.0;
        let candidates = mixes.len();
        let mut pending = Vec::with_capacity(candidates);
        for counts in mixes {
            let config = self.config(&counts)?;
            if config.is_stable() {
                let bound = if prune_by_bound {
                    self.cost_model.evaluate(self.queue_length_bound(&counts), &counts)
                } else {
                    f64::NEG_INFINITY
                };
                pending.push(Pending { counts, config, bound });
            }
        }
        let skipped_unstable = candidates - pending.len();
        pending.sort_by(|a, b| {
            let servers = |p: &Pending| p.counts.iter().sum::<usize>();
            a.bound
                .total_cmp(&b.bound)
                .then_with(|| servers(a).cmp(&servers(b)))
                .then_with(|| a.counts.cmp(&b.counts))
        });

        let solver = match &self.cache {
            Some(cache) => MatrixGeometricSolver::default().with_cache(Arc::clone(cache)),
            None => MatrixGeometricSolver::default(),
        };
        let wave = if prune_by_bound { pool.threads() } else { pending.len() };
        let mut incumbent = f64::INFINITY;
        let mut solved = Vec::new();
        for chunk in pending.chunks(wave.max(1)) {
            let width = chunk.iter().take_while(|p| p.bound <= incumbent).count();
            let (batch, pruned) = chunk.split_at(width);
            let outcomes = pool.try_par_map(batch, |p| self.evaluate(p, &solver))?;
            for (p, outcome) in batch.iter().zip(outcomes) {
                if let Outcome::Evaluated(candidate) = &outcome {
                    incumbent = incumbent.min(candidate.cost);
                }
                solved.push((p.bound, outcome));
            }
            if !pruned.is_empty() {
                break;
            }
        }

        // Report only what every schedule solves: the compositions whose bound does
        // not exceed the optimum's cost (all of them when nothing was pruned).
        let mut result = MixSearchResult {
            evaluated: Vec::new(),
            candidates,
            screened: prune,
            skipped_unstable,
            skipped_non_finite: 0,
            dropped_failures: 0,
        };
        for (_, outcome) in solved.into_iter().filter(|(bound, _)| *bound <= incumbent) {
            match outcome {
                Outcome::Evaluated(candidate) => result.evaluated.push(candidate),
                Outcome::NonFinite => result.skipped_non_finite += 1,
                Outcome::Failed => result.dropped_failures += 1,
            }
        }
        result.evaluated.sort_by(candidate_order);
        Ok(result)
    }
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
