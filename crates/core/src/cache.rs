//! Keyed caching of the expensive, reusable pieces of the exact solutions.
//!
//! Profiling the sweeps behind the paper's Figures 5–9 shows that every grid point
//! used to rebuild two kinds of state from scratch:
//!
//! 1. the **QBD skeleton** — the mode enumeration and the generator blocks `A`, `Dᴬ`,
//!    `C_0..C_N` — which depends only on the server classes (`N`, `µ`, lifecycle per
//!    class) and not on the arrival rate, so a load sweep (Figure 8) rebuilds the
//!    identical skeleton at every point, and every solver that looks at the same
//!    fleet (the exact solvers, the geometric approximation) needs the same one;
//! 2. the **full matrix-geometric solution** — the exact answer the query engine
//!    serves — which is repeated verbatim whenever the same configuration is solved
//!    twice (re-running a cost sweep with a different cost model, a percentile query
//!    after a solve, interactive exploration).  Hits hand out the stored [`Arc`].
//!
//! [`SolverCache`] memoises both — plus a third level, the `transforms` level, which
//! holds the response-time absorption chains of [`response`](crate::response) —
//! behind `f64`-bit-exact keys.  Key
//! construction normalises signed zero (`-0.0` and `0.0` hash identically) and
//! rejects non-finite values, so NaN can never be admitted as a silently-unequal
//! cache key.  The cache is `Sync` — each level is split into independently locked
//! shards keyed by a deterministic hash — so a single cache can be shared by every
//! worker thread of a [`ThreadPool`](crate::ThreadPool) during a parallel sweep (or
//! by every request of a standing `urs-server` process) with contention per shard
//! rather than per level.  A shard poisoned by a panicking worker is cleared and
//! reused (counted in [`CacheStats::poison_recoveries`]), never propagated.  Cached
//! hits return the stored value unchanged, so cached and uncached runs are
//! bit-identical.
//!
//! Every level is a **byte-budgeted LRU**: heterogeneous server classes multiply the
//! key space combinatorially, and one dense large-fleet entry weighs hundreds of
//! kilobytes, so neither unbounded maps nor entry-count caps bound the memory of a
//! standing server.  Each entry is charged the heap bytes of its matrices and
//! vectors; after an insert its level evicts least-recently-used entries (counted in
//! [`CacheStats`]) until the level fits its budget again, and an entry larger than
//! the level's whole budget is handed back uncached.  The default [`CACHE_BYTES`]
//! (4 MiB: 1 MiB of skeletons, 2 MiB of solutions, 1 MiB of transforms) keeps a
//! recent working set; [`SolverCache::with_byte_budget`] sets another total.
//! Recency is counted in level operations, never wall time, so a given sequence of
//! lookups evicts identically on every run.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use urs_core::{MatrixGeometricSolver, ServerLifecycle, SolverCache, SystemConfig};
//!
//! # fn main() -> Result<(), urs_core::ModelError> {
//! let cache = SolverCache::shared();
//! let solver = MatrixGeometricSolver::default().with_cache(Arc::clone(&cache));
//! let base = SystemConfig::new(10, 8.0, 1.0, ServerLifecycle::paper_fitted()?)?;
//!
//! // Two arrival rates, same (N, µ, lifecycle): the skeleton is built once.
//! solver.solve_detailed(&base)?;
//! solver.solve_detailed(&base.with_arrival_rate(8.5)?)?;
//! assert_eq!(cache.stats().skeleton_misses, 1);
//! assert_eq!(cache.stats().skeleton_hits, 1);
//!
//! // Solving the identical configuration again is a pure cache hit.
//! let first = solver.solve_shared(&base)?;
//! let again = solver.solve_shared(&base)?;
//! assert!(Arc::ptr_eq(&first, &again));
//! assert_eq!(cache.stats().solution_hits, 2);
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use urs_dist::HyperExponential;

use crate::config::{canonical_bits, ServerClass, SystemConfig};
use crate::error::ModelError;
use crate::matrix_geometric::{MatrixGeometricOptions, MatrixGeometricSolution};
use crate::qbd::QbdSkeleton;
use crate::response::AbsorptionChain;
use crate::Result;

/// Byte budget of a default [`SolverCache`]: 1 MiB of skeletons, 2 MiB of solutions
/// and 1 MiB of response transforms.  That holds a recent working set; one dense
/// large-fleet entry (the 231 × 231 `R` at paper N = 20) alone is ~0.43 MB.
pub const CACHE_BYTES: usize = 4 << 20;

/// Bytes the allocator spends on one heap allocation beyond its payload: glibc
/// malloc's chunk header plus its 16-byte rounding, on average.
pub(crate) const ALLOCATION_HEADER: usize = 16;

/// Heap bytes of one allocation holding `items`: the payload plus its header.
pub(crate) fn allocation_bytes<T>(items: &[T]) -> usize {
    size_of_val(items) + ALLOCATION_HEADER
}

/// Bytes charged per cached entry beyond its value's own `heap_bytes`: the key
/// (a copy of the class list's nested vectors), the `Arc` counts and the entry's
/// slot in its shard's map, with their allocation headers (measured at 0.5–1 KB
/// per entry for fleets of N ≤ 12).
const ENTRY_OVERHEAD: usize = 512;

/// Splits a cache's byte budget into `[skeletons, solutions, transforms]`: half
/// for solutions, a quarter for each of the other two levels.
fn level_budgets(bytes: usize) -> [usize; 3] {
    let quarter = bytes / 4;
    [quarter, bytes - 2 * quarter, quarter]
}

/// Deterministic digest of an arbitrary hashable key (FNV-1a over its `Hash`
/// bytes) — the same stable hash that assigns cache shards, reused by the query
/// planner to group compatible queries.
pub(crate) fn digest_of<K: Hash>(key: &K) -> u64 {
    Fnv1a::hash_of(key)
}

/// Deterministic digest of the λ-independent skeleton identity of a configuration:
/// two configurations with equal digests share their QBD skeleton, which is what
/// makes their queries batchable.
///
/// # Errors
///
/// Rejects configurations with non-finite parameters (no sound cache key).
pub(crate) fn skeleton_digest(config: &SystemConfig) -> Result<u64> {
    Ok(digest_of(&SkeletonKey::new(config)?))
}

/// Appends the canonical words of a server-class list — the class count, then per
/// class its server count, service-rate bits and the `(weight, rate)` bits of both
/// period distributions, each list prefixed by its length — to `words`.  Two class
/// lists append equal words exactly when they have equal skeleton keys, and no word
/// sequence is a prefix of another, so the words can be followed by further fields.
///
/// # Errors
///
/// Rejects non-finite parameters (no sound key).
pub(crate) fn push_class_words(classes: &[ServerClass], words: &mut Vec<u64>) -> Result<()> {
    words.push(classes.len() as u64);
    for class in classes {
        let ClassKey { count, service_rate, lifecycle } = ClassKey::new(class)?;
        words.extend([count as u64, service_rate]);
        for phases in [&lifecycle.operative, &lifecycle.inoperative] {
            words.push(phases.len() as u64);
            words.extend(phases.iter().flat_map(|&(weight, rate)| [weight, rate]));
        }
    }
    Ok(())
}

/// Bit pattern of an `f64` for use inside a cache key: signed zero is normalised
/// (`-0.0` keys identically to `0.0`, via the same [`canonical_bits`] rule that
/// drives class merging in `config.rs`) and non-finite values are rejected rather
/// than silently admitted as never-matching NaN keys.
fn key_bits(name: &'static str, value: f64) -> Result<u64> {
    if !value.is_finite() {
        return Err(ModelError::InvalidParameter {
            name,
            value,
            constraint: "cache keys require finite values",
        });
    }
    Ok(canonical_bits(value))
}

/// Bit-exact identity of the two period distributions of a lifecycle.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct LifecycleKey {
    operative: Vec<(u64, u64)>,
    inoperative: Vec<(u64, u64)>,
}

impl LifecycleKey {
    fn new(lifecycle: &crate::config::ServerLifecycle) -> Result<Self> {
        fn phases(dist: &HyperExponential) -> Result<Vec<(u64, u64)>> {
            dist.weights()
                .iter()
                .zip(dist.rates())
                .map(|(w, r)| Ok((key_bits("phase weight", *w)?, key_bits("phase rate", *r)?)))
                .collect()
        }
        Ok(LifecycleKey {
            operative: phases(lifecycle.operative())?,
            inoperative: phases(lifecycle.inoperative())?,
        })
    }
}

/// Bit-exact identity of one server class: `(count, µ, lifecycle)`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct ClassKey {
    count: usize,
    service_rate: u64,
    lifecycle: LifecycleKey,
}

impl ClassKey {
    fn new(class: &ServerClass) -> Result<Self> {
        Ok(ClassKey {
            count: class.count(),
            service_rate: key_bits("service_rate", class.service_rate())?,
            lifecycle: LifecycleKey::new(class.lifecycle())?,
        })
    }
}

/// Key of the λ-independent skeleton: the canonical server-class list.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct SkeletonKey {
    classes: Vec<ClassKey>,
}

impl SkeletonKey {
    fn new(config: &SystemConfig) -> Result<Self> {
        Ok(SkeletonKey {
            classes: config.classes().iter().map(ClassKey::new).collect::<Result<_>>()?,
        })
    }
}

/// Key of a complete matrix-geometric solution: skeleton key plus arrival rate and
/// solver options (the tolerance moves where the reduction stops, the iteration
/// budget whether it fails).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct SolutionKey {
    skeleton: SkeletonKey,
    arrival_rate: u64,
    tolerance: u64,
    max_iterations: usize,
}

impl SolutionKey {
    fn new(config: &SystemConfig, options: &MatrixGeometricOptions) -> Result<Self> {
        // Exhaustive destructuring: adding a field to MatrixGeometricOptions must break
        // this line rather than silently conflating solutions computed under different
        // options.
        let MatrixGeometricOptions { tolerance, max_iterations } = *options;
        Ok(SolutionKey {
            skeleton: SkeletonKey::new(config)?,
            arrival_rate: key_bits("arrival_rate", config.arrival_rate())?,
            tolerance: key_bits("tolerance", tolerance)?,
            max_iterations,
        })
    }
}

/// Key of a cached response-time absorption chain: the underlying solution key plus
/// the tail-truncation threshold (the chain stores the arrival-state distribution
/// truncated at that mass, so different thresholds yield different — if numerically
/// close — chains).  The certification tolerances are deliberately *not* part of the
/// key: they affect only how the chain is evaluated, never its contents.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct TransformKey {
    solution: SolutionKey,
    tail_epsilon: u64,
}

impl TransformKey {
    fn new(
        config: &SystemConfig,
        options: &MatrixGeometricOptions,
        tail_epsilon: f64,
    ) -> Result<Self> {
        Ok(TransformKey {
            solution: SolutionKey::new(config, options)?,
            tail_epsilon: key_bits("tail_epsilon", tail_epsilon)?,
        })
    }
}

/// Number of lock shards per cache level.  Each shard is an independently locked
/// map, so concurrent workers contend only when their keys hash to the same shard
/// instead of serialising on one coarse lock per level.
const SHARDS: usize = 8;

/// A deterministic FNV-1a hasher used to assign keys to shards.  The standard
/// library's `RandomState` is seeded per process, which would make shard
/// assignment — and therefore eviction behaviour and statistics — differ between
/// runs; FNV-1a over the derived `Hash` bytes is stable across runs, processes and
/// platforms, which the restart-determinism contract of `urs-server` relies on.
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn hash_of<K: Hash>(key: &K) -> u64 {
        let mut hasher = Fnv1a(Fnv1a::OFFSET_BASIS);
        key.hash(&mut hasher);
        hasher.finish()
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(Fnv1a::PRIME);
        }
    }
}

/// One cached value with the bytes it is charged and the level-clock stamp of its
/// last use.
#[derive(Debug)]
struct Entry<V> {
    value: V,
    bytes: usize,
    last_used: u64,
}

/// One shard of a level: a `BTreeMap` of entries plus the bytes they are charged.
/// An ordered map (rather than a hash map) keeps the least-recently-used scan — and
/// therefore eviction order and hit/miss statistics — independent of hasher seeding
/// across runs and processes.
#[derive(Debug)]
struct LruMap<K, V> {
    map: BTreeMap<K, Entry<V>>,
    bytes: usize,
}

impl<K: Ord, V> LruMap<K, V> {
    fn new() -> Self {
        LruMap { map: BTreeMap::new(), bytes: 0 }
    }

    fn get(&mut self, key: &K, stamp: u64) -> Option<&V> {
        let entry = self.map.get_mut(key)?;
        entry.last_used = stamp;
        Some(&entry.value)
    }

    /// Stores an entry the caller has just looked up and found absent.
    fn insert(&mut self, key: K, value: V, bytes: usize, stamp: u64) {
        self.bytes += bytes;
        self.map.insert(key, Entry { value, bytes, last_used: stamp });
    }

    /// Stamp of the least recently used entry.  The scan is `O(len)`, negligible
    /// against the cost of the solves being cached.
    fn oldest(&self) -> Option<u64> {
        self.map.values().map(|entry| entry.last_used).min()
    }

    /// Removes the least recently used entry (stamps are unique within a level),
    /// returning its stamp.
    fn evict_oldest(&mut self) -> Option<u64> {
        let (stamp, bytes) = self.map.values().map(|entry| (entry.last_used, entry.bytes)).min()?;
        self.map.retain(|_, entry| entry.last_used != stamp);
        self.bytes -= bytes;
        Some(stamp)
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn clear(&mut self) {
        self.map.clear();
        self.bytes = 0;
    }
}

/// A byte-budgeted, sharded, poison-recovering LRU level: `shards` independent
/// [`LruMap`]s, each behind its own mutex, with keys assigned by the deterministic
/// [`Fnv1a`] hash.  Lookups lock one shard.  The budget covers the **whole level**:
/// after an insert the level evicts its least recently used entries, across all
/// shards, until the bytes charged to them fit again.  Recency stamps come from one
/// level-wide operation counter (never the wall clock), so a single-threaded
/// sequence of lookups and inserts evicts in the same order on every run.  An entry
/// larger than the whole budget is handed back to the caller without being stored.
///
/// Locking never panics on a poisoned mutex: a worker that panicked while holding a
/// shard leaves that shard's contents suspect, so the shard is **cleared and reused**
/// (recover-and-continue) and the recovery is counted.  One crashed worker can
/// therefore never wedge a standing server — the worst case is a few cold keys.
///
/// The level counts its own hits, misses, evictions (with their recency ages) and
/// oversized entries; [`snapshot`](Self::snapshot) reports them with the level's
/// bytes and budget.
#[derive(Debug)]
struct ShardedLru<K, V> {
    shards: Vec<Mutex<LruMap<K, V>>>,
    budget: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    eviction_age: AtomicU64,
    oversized: AtomicU64,
    poison_recoveries: AtomicU64,
}

impl<K: Ord + Hash, V: Clone> ShardedLru<K, V> {
    fn new(budget: usize, shards: usize) -> Self {
        ShardedLru {
            shards: (0..shards.max(1)).map(|_| Mutex::new(LruMap::new())).collect(),
            budget,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            eviction_age: AtomicU64::new(0),
            oversized: AtomicU64::new(0),
            poison_recoveries: AtomicU64::new(0),
        }
    }

    /// The next stamp of the level's operation clock.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The shard index a key hashes to (stable across runs).
    fn shard_index(&self, key: &K) -> usize {
        (Fnv1a::hash_of(key) % self.shards.len().max(1) as u64) as usize
    }

    /// Runs `f` with the shard at `index` locked, recovering a poisoned shard by
    /// clearing it first.
    fn with_shard_at<R>(&self, index: usize, f: impl FnOnce(&mut LruMap<K, V>) -> R) -> R {
        let Some(mutex) = self.shards.get(index) else {
            // The constructor guarantees at least one shard; reaching this branch
            // would be a bug, but a scratch map keeps the path panic-free.
            return f(&mut LruMap::new());
        };
        let mut guard = match mutex.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.clear();
                // Clear the flag too, so the recovery is counted once rather than on
                // every subsequent lock of this shard.
                mutex.clear_poison();
                self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
                guard
            }
        };
        f(&mut guard)
    }

    /// Looks `key` up, counting a hit or a miss.
    fn get(&self, key: &K) -> Option<V> {
        let stamp = self.tick();
        let found = self.with_shard_at(self.shard_index(key), |map| map.get(key, stamp).cloned());
        let counter = if found.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Inserts `value`, charged `bytes`, unless another thread already stored the
    /// key (the racing winner is returned unchanged, so racing builders converge on
    /// one shared value), then evicts down to the budget.  A value over the whole
    /// budget is returned without being stored, and counted.
    fn insert_or_get(&self, key: K, value: V, bytes: usize) -> V {
        let bytes = bytes + ENTRY_OVERHEAD;
        if bytes > self.budget {
            self.oversized.fetch_add(1, Ordering::Relaxed);
            return value;
        }
        let stamp = self.tick();
        let winner = self.with_shard_at(self.shard_index(&key), |map| {
            if let Some(winner) = map.get(&key, stamp) {
                return Some(winner.clone());
            }
            map.insert(key, value.clone(), bytes, stamp);
            None
        });
        if let Some(winner) = winner {
            return winner;
        }
        self.evict_to_budget();
        value
    }

    /// Evicts the level's least recently used entries until its bytes fit the
    /// budget.  Shards are locked one at a time, never two at once.
    fn evict_to_budget(&self) {
        loop {
            let mut bytes = 0;
            let mut victim: Option<(u64, usize)> = None;
            for index in 0..self.shards.len() {
                let (shard_bytes, oldest) =
                    self.with_shard_at(index, |map| (map.bytes, map.oldest()));
                bytes += shard_bytes;
                if let Some(stamp) = oldest {
                    if victim.is_none_or(|(oldest, _)| stamp < oldest) {
                        victim = Some((stamp, index));
                    }
                }
            }
            if bytes <= self.budget {
                return;
            }
            let Some((_, index)) = victim else { return };
            let now = self.clock.load(Ordering::Relaxed);
            if let Some(stamp) = self.with_shard_at(index, LruMap::evict_oldest) {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.eviction_age.fetch_add(now.saturating_sub(stamp), Ordering::Relaxed);
            }
        }
    }

    fn len(&self) -> usize {
        (0..self.shards.len()).map(|i| self.with_shard_at(i, |map| map.len())).sum()
    }

    /// Bytes charged to the level's entries.
    fn bytes(&self) -> usize {
        (0..self.shards.len()).map(|i| self.with_shard_at(i, |map| map.bytes)).sum()
    }

    fn clear(&self) {
        for i in 0..self.shards.len() {
            self.with_shard_at(i, |map| map.clear());
        }
    }

    /// The level's counters, bytes and budget under the name `level`.
    fn snapshot(&self, level: &'static str) -> CacheLevelStats {
        CacheLevelStats {
            level,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            eviction_age_total: self.eviction_age.load(Ordering::Relaxed),
            oversized: self.oversized.load(Ordering::Relaxed),
            bytes: self.bytes() as u64,
            budget_bytes: self.budget as u64,
        }
    }
}

/// Hit/miss/eviction counters of one cache level, derived from [`CacheStats`] by
/// [`CacheStats::levels`] — the per-level view a serving process reports on its
/// metrics endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLevelStats {
    /// Level name: `"skeletons"`, `"solutions"` or `"transforms"`.
    pub level: &'static str,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute the value.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Sum of the recency ages (level operations since last touch) of all evicted
    /// entries; divide by `evictions` for the mean via [`mean_eviction_age`](Self::mean_eviction_age).
    pub eviction_age_total: u64,
    /// Computed entries larger than the level's whole budget, returned to their
    /// caller without being stored.
    pub oversized: u64,
    /// Bytes charged to the entries the level holds now.
    pub bytes: u64,
    /// The level's byte budget.
    pub budget_bytes: u64,
}

impl CacheLevelStats {
    /// Total lookups against this level.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from the cache (`0.0` when nothing was looked
    /// up yet).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            return 0.0;
        }
        self.hits as f64 / lookups as f64
    }

    /// Mean recency age of evicted entries, in level operations (`0.0` when nothing
    /// was evicted).  A small mean means the level is thrashing — entries are
    /// evicted soon after their last use — and its budget should grow.
    pub fn mean_eviction_age(&self) -> f64 {
        if self.evictions == 0 {
            return 0.0;
        }
        self.eviction_age_total as f64 / self.evictions as f64
    }
}

/// Hit/miss/eviction counters and byte occupancy of a [`SolverCache`], for
/// reporting and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Skeleton lookups answered from the cache.
    pub skeleton_hits: u64,
    /// Skeleton lookups that had to build the skeleton.
    pub skeleton_misses: u64,
    /// Matrix-geometric solution lookups answered from the cache.
    pub solution_hits: u64,
    /// Matrix-geometric solution lookups that had to run the solver.
    pub solution_misses: u64,
    /// Response-chain lookups answered from the cache: repeated percentile or CDF
    /// queries against the same configuration (an SLA sweep evaluating P90/P95/P99,
    /// say) skip both the stationary solve and the chain build.
    pub transform_hits: u64,
    /// Response-chain lookups that had to build the chain.
    pub transform_misses: u64,
    /// Skeletons evicted by the LRU policy.
    pub skeleton_evictions: u64,
    /// Solutions evicted by the LRU policy.
    pub solution_evictions: u64,
    /// Response transforms evicted by the LRU policy.
    pub transform_evictions: u64,
    /// Cumulative recency age of evicted skeletons (see [`CacheLevelStats::eviction_age_total`]).
    pub skeleton_eviction_age: u64,
    /// Cumulative recency age of evicted solutions.
    pub solution_eviction_age: u64,
    /// Cumulative recency age of evicted response transforms.
    pub transform_eviction_age: u64,
    /// Skeletons built but not stored because they exceed the level's budget.
    pub skeleton_oversized: u64,
    /// Solutions computed but not stored because they exceed the level's budget.
    pub solution_oversized: u64,
    /// Response chains built but not stored because they exceed the level's budget.
    pub transform_oversized: u64,
    /// Bytes charged to the cached skeletons.
    pub skeleton_bytes: u64,
    /// Bytes charged to the cached solutions.
    pub solution_bytes: u64,
    /// Bytes charged to the cached response transforms.
    pub transform_bytes: u64,
    /// Byte budget of the skeleton level.
    pub skeleton_budget_bytes: u64,
    /// Byte budget of the solution level.
    pub solution_budget_bytes: u64,
    /// Byte budget of the response-transform level.
    pub transform_budget_bytes: u64,
    /// Shards cleared after a worker panicked while holding their lock
    /// (recover-and-continue; see the poisoning policy in the [`SolverCache`] docs).
    pub poison_recoveries: u64,
}

impl CacheStats {
    /// The per-level view: `[skeletons, solutions, transforms]`, each with its hit
    /// rate, eviction-age diagnostics and bytes against budget — the shape a
    /// serving process's `stats` endpoint reports.
    pub fn levels(&self) -> [CacheLevelStats; 3] {
        [
            CacheLevelStats {
                level: "skeletons",
                hits: self.skeleton_hits,
                misses: self.skeleton_misses,
                evictions: self.skeleton_evictions,
                eviction_age_total: self.skeleton_eviction_age,
                oversized: self.skeleton_oversized,
                bytes: self.skeleton_bytes,
                budget_bytes: self.skeleton_budget_bytes,
            },
            CacheLevelStats {
                level: "solutions",
                hits: self.solution_hits,
                misses: self.solution_misses,
                evictions: self.solution_evictions,
                eviction_age_total: self.solution_eviction_age,
                oversized: self.solution_oversized,
                bytes: self.solution_bytes,
                budget_bytes: self.solution_budget_bytes,
            },
            CacheLevelStats {
                level: "transforms",
                hits: self.transform_hits,
                misses: self.transform_misses,
                evictions: self.transform_evictions,
                eviction_age_total: self.transform_eviction_age,
                oversized: self.transform_oversized,
                bytes: self.transform_bytes,
                budget_bytes: self.transform_budget_bytes,
            },
        ]
    }

    /// Overall hit rate across all three levels (`0.0` before the first lookup).
    pub fn total_hit_rate(&self) -> f64 {
        let hits = self.skeleton_hits + self.solution_hits + self.transform_hits;
        let lookups = hits + self.skeleton_misses + self.solution_misses + self.transform_misses;
        if lookups == 0 {
            return 0.0;
        }
        hits as f64 / lookups as f64
    }
}

/// Number of entries cached per level, as reported by [`SolverCache::len`].
///
/// (Previously a bare 4-tuple; the named form keeps the serving stats endpoint's
/// shape self-describing and extensible.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheOccupancy {
    /// Cached QBD skeletons.
    pub skeletons: usize,
    /// Cached complete matrix-geometric solutions.
    pub solutions: usize,
    /// Cached response-time transforms.
    pub transforms: usize,
}

impl CacheOccupancy {
    /// Total entries across all three levels.
    pub fn total(&self) -> usize {
        self.skeletons + self.solutions + self.transforms
    }
}

/// A thread-safe, byte-budgeted LRU cache of QBD skeletons, complete
/// matrix-geometric solutions and response-time transforms.
///
/// The [`Engine`](crate::Engine) attaches its one cache to a
/// [`MatrixGeometricSolver`](crate::MatrixGeometricSolver) with
/// [`with_cache`](crate::MatrixGeometricSolver::with_cache), which reuses skeletons
/// and memoises whole solutions.  A
/// [`SpectralExpansionSolver`](crate::SpectralExpansionSolver) or a
/// [`GeometricApproximation`](crate::GeometricApproximation) attached with its
/// `with_cache` method reuses the skeletons, so solvers compared on the same grid
/// (Figures 8 and 9) build each one once between them.  See the example above in
/// the module docs.
///
/// # Byte budgets
///
/// Each entry is charged the heap bytes of its matrices and vectors, and each level
/// evicts least-recently-used entries until it fits its share of the cache's budget
/// ([`CACHE_BYTES`] by default, set with [`with_byte_budget`](Self::with_byte_budget)).
/// An entry larger than its level's whole budget is returned to the caller
/// uncached and counted as oversized.
///
/// # Sharding and poisoning
///
/// Each level is split into 8 independently locked shards keyed by
/// a deterministic hash, so the worker threads of a parallel sweep (or the request
/// threads of a standing server) contend per shard rather than per level.  A shard
/// whose lock was poisoned by a panicking worker is **cleared and reused** rather
/// than propagating the poison: the cache only ever stores complete, immutable
/// entries, so the sole risk after a panic is staleness of that shard's bookkeeping
/// — dropping its entries restores a sound (cold) state and the recovery is counted
/// in [`CacheStats::poison_recoveries`].
#[derive(Debug)]
pub struct SolverCache {
    skeletons: ShardedLru<SkeletonKey, Arc<QbdSkeleton>>,
    solutions: ShardedLru<SolutionKey, Arc<MatrixGeometricSolution>>,
    transforms: ShardedLru<TransformKey, Arc<AbsorptionChain>>,
}

impl Default for SolverCache {
    fn default() -> Self {
        SolverCache::new()
    }
}

impl SolverCache {
    /// Creates an empty cache with the default budget of [`CACHE_BYTES`] (1 MiB of
    /// skeletons, 2 MiB of solutions, 1 MiB of response transforms).
    pub fn new() -> Self {
        SolverCache::with_byte_budget(CACHE_BYTES)
    }

    /// Creates an empty cache holding at most `bytes` of entries, split across the
    /// levels as the default is: a quarter for skeletons, half for solutions and a
    /// quarter for response transforms.  A budget of `0` caches nothing.
    pub fn with_byte_budget(bytes: usize) -> Self {
        let [skeletons, solutions, transforms] = level_budgets(bytes);
        SolverCache {
            skeletons: ShardedLru::new(skeletons, SHARDS),
            solutions: ShardedLru::new(solutions, SHARDS),
            transforms: ShardedLru::new(transforms, SHARDS),
        }
    }

    /// Creates an empty cache already wrapped in an [`Arc`], ready to be shared
    /// between solvers and threads.
    pub fn shared() -> Arc<Self> {
        Arc::new(SolverCache::new())
    }

    /// Returns the QBD skeleton for the server classes of the configuration, building
    /// and caching it on first use.
    ///
    /// The skeleton is built outside the shard lock, so concurrent sweeps never stall
    /// behind a build; if two threads race on the same key the first inserted skeleton
    /// wins and both threads share it (the builds are deterministic, so the values are
    /// interchangeable).
    ///
    /// # Errors
    ///
    /// Propagates skeleton-construction errors and rejects configurations whose
    /// parameters cannot form a sound cache key (non-finite values).
    pub fn skeleton(&self, config: &SystemConfig) -> Result<Arc<QbdSkeleton>> {
        let key = SkeletonKey::new(config)?;
        if let Some(hit) = self.skeletons.get(&key) {
            return Ok(hit);
        }
        let built = QbdSkeleton::for_classes(config.classes())?;
        let bytes = built.heap_bytes();
        Ok(self.skeletons.insert_or_get(key, Arc::new(built), bytes))
    }

    /// Looks up a complete solution for the configuration and options.
    pub(crate) fn lookup_solution(
        &self,
        config: &SystemConfig,
        options: &MatrixGeometricOptions,
    ) -> Result<Option<Arc<MatrixGeometricSolution>>> {
        Ok(self.solutions.get(&SolutionKey::new(config, options)?))
    }

    /// Stores a freshly computed solution.
    pub(crate) fn store_solution(
        &self,
        config: &SystemConfig,
        options: &MatrixGeometricOptions,
        solution: Arc<MatrixGeometricSolution>,
    ) -> Result<()> {
        let bytes = solution.heap_bytes();
        self.solutions.insert_or_get(SolutionKey::new(config, options)?, solution, bytes);
        Ok(())
    }

    /// Looks up a response-time absorption chain for `(config, solver options, tail ε)`.
    pub(crate) fn lookup_transform(
        &self,
        config: &SystemConfig,
        options: &MatrixGeometricOptions,
        tail_epsilon: f64,
    ) -> Result<Option<Arc<AbsorptionChain>>> {
        Ok(self.transforms.get(&TransformKey::new(config, options, tail_epsilon)?))
    }

    /// Stores a freshly built response-time absorption chain.
    pub(crate) fn store_transform(
        &self,
        config: &SystemConfig,
        options: &MatrixGeometricOptions,
        tail_epsilon: f64,
        chain: Arc<AbsorptionChain>,
    ) -> Result<()> {
        let bytes = chain.heap_bytes();
        let key = TransformKey::new(config, options, tail_epsilon)?;
        self.transforms.insert_or_get(key, chain, bytes);
        Ok(())
    }

    /// Current counters and byte occupancy.
    pub fn stats(&self) -> CacheStats {
        let [skeletons, solutions, transforms] = [
            self.skeletons.snapshot("skeletons"),
            self.solutions.snapshot("solutions"),
            self.transforms.snapshot("transforms"),
        ];
        CacheStats {
            skeleton_hits: skeletons.hits,
            skeleton_misses: skeletons.misses,
            solution_hits: solutions.hits,
            solution_misses: solutions.misses,
            transform_hits: transforms.hits,
            transform_misses: transforms.misses,
            skeleton_evictions: skeletons.evictions,
            solution_evictions: solutions.evictions,
            transform_evictions: transforms.evictions,
            skeleton_eviction_age: skeletons.eviction_age_total,
            solution_eviction_age: solutions.eviction_age_total,
            transform_eviction_age: transforms.eviction_age_total,
            skeleton_oversized: skeletons.oversized,
            solution_oversized: solutions.oversized,
            transform_oversized: transforms.oversized,
            skeleton_bytes: skeletons.bytes,
            solution_bytes: solutions.bytes,
            transform_bytes: transforms.bytes,
            skeleton_budget_bytes: skeletons.budget_bytes,
            solution_budget_bytes: solutions.budget_bytes,
            transform_budget_bytes: transforms.budget_bytes,
            poison_recoveries: self.skeletons.poison_recoveries.load(Ordering::Relaxed)
                + self.solutions.poison_recoveries.load(Ordering::Relaxed)
                + self.transforms.poison_recoveries.load(Ordering::Relaxed),
        }
    }

    /// Number of cached entries per level.
    pub fn len(&self) -> CacheOccupancy {
        CacheOccupancy {
            skeletons: self.skeletons.len(),
            solutions: self.solutions.len(),
            transforms: self.transforms.len(),
        }
    }

    /// Returns `true` if nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len().total() == 0
    }

    /// Drops every cached entry; the counters keep accumulating.
    pub fn clear(&self) {
        self.skeletons.clear();
        self.solutions.clear();
        self.transforms.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerLifecycle;
    use crate::matrix_geometric::MatrixGeometricSolver;
    use crate::solution::QueueSolution as _;

    fn config(servers: usize, lambda: f64) -> SystemConfig {
        SystemConfig::new(servers, lambda, 1.0, ServerLifecycle::paper_fitted().unwrap()).unwrap()
    }

    /// Bytes a paper-lifecycle skeleton of `servers` servers is charged.
    fn skeleton_bytes(servers: usize) -> usize {
        let skeleton = QbdSkeleton::for_classes(config(servers, 1.0).classes()).unwrap();
        skeleton.heap_bytes() + ENTRY_OVERHEAD
    }

    /// A cache whose skeleton level (a quarter of the total) holds exactly `bytes`.
    fn with_skeleton_budget(bytes: usize) -> SolverCache {
        SolverCache::with_byte_budget(4 * bytes)
    }

    #[test]
    fn skeletons_are_shared_per_lifecycle_and_server_count() {
        let cache = SolverCache::new();
        let first = cache.skeleton(&config(4, 2.0)).unwrap();
        let again = cache.skeleton(&config(4, 3.5)).unwrap(); // same N, µ, lifecycle
        assert!(Arc::ptr_eq(&first, &again), "λ must not affect the skeleton key");
        let other = cache.skeleton(&config(5, 2.0)).unwrap();
        assert!(!Arc::ptr_eq(&first, &other));
        let stats = cache.stats();
        assert_eq!((stats.skeleton_hits, stats.skeleton_misses), (1, 2));
        assert_eq!(cache.len().skeletons, 2);
    }

    #[test]
    fn different_lifecycles_get_different_skeletons() {
        let cache = SolverCache::new();
        let a = cache.skeleton(&config(3, 2.0)).unwrap();
        let exp = ServerLifecycle::exponential(0.1, 2.0).unwrap();
        let b = cache.skeleton(&SystemConfig::new(3, 2.0, 1.0, exp).unwrap()).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().skeleton_misses, 2);
    }

    #[test]
    fn solutions_are_memoised_bit_identically() {
        let cache = SolverCache::shared();
        let solver = MatrixGeometricSolver::default().with_cache(Arc::clone(&cache));
        let cfg = config(4, 2.5);
        let fresh = solver.solve_detailed(&cfg).unwrap();
        let cached = solver.solve_detailed(&cfg).unwrap();
        assert_eq!(fresh.mean_queue_length().to_bits(), cached.mean_queue_length().to_bits());
        for level in 0..=cfg.servers() + 2 {
            assert_eq!(fresh.level_vector(level), cached.level_vector(level));
        }
        let stats = cache.stats();
        assert_eq!(stats.solution_hits, 1);
        assert_eq!(stats.solution_misses, 1);
    }

    #[test]
    fn clear_empties_the_cache() {
        let cache = SolverCache::new();
        cache.skeleton(&config(3, 1.0)).unwrap();
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_lookups_share_one_skeleton() {
        use crate::parallel::ThreadPool;
        let cache = SolverCache::shared();
        let configs: Vec<SystemConfig> = (1..=8).map(|i| config(6, 0.5 * i as f64)).collect();
        let skeletons =
            ThreadPool::new(4).try_par_map(&configs, |cfg| cache.skeleton(cfg)).unwrap();
        for s in &skeletons {
            assert!(Arc::ptr_eq(s, &skeletons[0]));
        }
        assert_eq!(cache.len().skeletons, 1);
    }

    #[test]
    fn cache_statistics_are_run_to_run_deterministic() {
        // Two independent caches fed the same workload under eviction pressure
        // must report identical statistics and occupancy.  With a hash map this
        // held only by accident of hasher seeding; the ordered map makes
        // eviction order — and so every hit/miss counter — reproducible.
        let workload: Vec<SystemConfig> = [2, 3, 4, 2, 5, 3, 2, 6, 4, 5]
            .iter()
            .map(|&n| config(n, 1.0 + n as f64 / 10.0))
            .collect();
        let run = || {
            let cache = with_skeleton_budget(skeleton_bytes(5) + skeleton_bytes(6));
            for cfg in &workload {
                cache.skeleton(cfg).unwrap();
            }
            (cache.stats(), cache.len())
        };
        let (stats_a, len_a) = run();
        let (stats_b, len_b) = run();
        assert!(stats_a.skeleton_evictions > 0, "the workload must run under eviction pressure");
        assert_eq!(stats_a, stats_b);
        assert_eq!(len_a, len_b);
    }

    #[test]
    fn signed_zero_normalises_in_keys() {
        assert_eq!(key_bits("x", 0.0).unwrap(), key_bits("x", -0.0).unwrap());
        assert_eq!(key_bits("x", 1.5).unwrap(), 1.5f64.to_bits());
    }

    #[test]
    fn non_finite_key_values_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                key_bits("x", bad),
                Err(ModelError::InvalidParameter { name: "x", .. })
            ));
        }
        // A NaN smuggled in through the solver options must be rejected, not admitted
        // as a key that can never be found again.
        let cache = SolverCache::new();
        let bad_options = MatrixGeometricOptions { tolerance: f64::NAN, ..Default::default() };
        assert!(cache.lookup_solution(&config(2, 1.0), &bad_options).is_err());
        let bad_epsilon = cache.lookup_transform(&config(2, 1.0), &Default::default(), f64::NAN);
        assert!(bad_epsilon.is_err());
    }

    #[test]
    fn lru_evicts_the_least_recently_used_skeleton() {
        // The budget fits A with either B or C, never all three.  Eviction is by
        // level-wide recency, whichever shards the keys hash to.
        let cache = with_skeleton_budget(skeleton_bytes(2) + skeleton_bytes(4));
        let a = config(2, 1.0);
        let b = config(3, 1.0);
        let c = config(4, 1.0);
        cache.skeleton(&a).unwrap();
        cache.skeleton(&b).unwrap();
        cache.skeleton(&a).unwrap(); // A is now more recently used than B
        cache.skeleton(&c).unwrap(); // evicts B
        assert_eq!(cache.len().skeletons, 2);
        assert_eq!(cache.stats().skeleton_evictions, 1);
        // A survives (hit), B was evicted (miss rebuilds it).
        cache.skeleton(&a).unwrap();
        assert_eq!(cache.stats().skeleton_hits, 2);
        cache.skeleton(&b).unwrap();
        assert_eq!(cache.stats().skeleton_misses, 4);
    }

    #[test]
    fn lru_capacity_bounds_the_solution_map() {
        // Every N = 3 solution is charged the same bytes; the solution level (half
        // the total) holds exactly two of them.
        let options = MatrixGeometricOptions::default();
        let solutions: Vec<_> = [1.0, 1.25, 1.5, 1.75, 2.0]
            .iter()
            .map(|&lambda| {
                let cfg = config(3, lambda);
                (MatrixGeometricSolver::default().solve_shared(&cfg).unwrap(), cfg)
            })
            .collect();
        let entry = solutions[0].0.heap_bytes() + ENTRY_OVERHEAD;
        let cache = SolverCache::with_byte_budget(4 * entry);
        for (solution, cfg) in solutions {
            assert_eq!(solution.heap_bytes() + ENTRY_OVERHEAD, entry);
            cache.store_solution(&cfg, &options, solution).unwrap();
        }
        assert_eq!(cache.len().solutions, 2, "solution map must stay at its budget");
        assert_eq!(cache.stats().solution_evictions, 3);
        assert_eq!(cache.stats().solution_bytes, 2 * entry as u64);
    }

    #[test]
    fn heterogeneous_class_lists_key_distinctly() {
        use crate::config::ServerClass;
        let cache = SolverCache::new();
        let lc_a = ServerLifecycle::exponential(0.1, 2.0).unwrap();
        let lc_b = ServerLifecycle::exponential(0.05, 4.0).unwrap();
        let mixed = SystemConfig::heterogeneous(
            1.0,
            vec![
                ServerClass::new(2, 2.0, lc_a.clone()).unwrap(),
                ServerClass::new(2, 1.0, lc_b.clone()).unwrap(),
            ],
        )
        .unwrap();
        // A permutation of the same classes canonicalises to the same key.
        let permuted = SystemConfig::heterogeneous(
            1.0,
            vec![
                ServerClass::new(2, 1.0, lc_b).unwrap(),
                ServerClass::new(2, 2.0, lc_a.clone()).unwrap(),
            ],
        )
        .unwrap();
        let s1 = cache.skeleton(&mixed).unwrap();
        let s2 = cache.skeleton(&permuted).unwrap();
        assert!(Arc::ptr_eq(&s1, &s2), "permuted class lists must share a skeleton");
        // A genuinely different mix gets its own skeleton.
        let other = SystemConfig::heterogeneous(1.0, vec![ServerClass::new(4, 2.0, lc_a).unwrap()])
            .unwrap();
        let s3 = cache.skeleton(&other).unwrap();
        assert!(!Arc::ptr_eq(&s1, &s3));
    }
    #[test]
    fn shard_assignment_is_deterministic_across_caches() {
        // FNV-1a over the derived Hash bytes must send the same key to the same
        // shard in every process — eviction behaviour and statistics depend on it.
        let configs: Vec<SystemConfig> =
            (2..10).map(|n| config(n, 1.0 + n as f64 * 0.25)).collect();
        let budget = skeleton_bytes(8) + skeleton_bytes(9);
        let first = with_skeleton_budget(budget);
        let second = with_skeleton_budget(budget);
        for cfg in &configs {
            first.skeleton(cfg).unwrap();
            second.skeleton(cfg).unwrap();
        }
        assert_eq!(first.stats(), second.stats());
        assert_eq!(first.len(), second.len());
    }

    #[test]
    fn sharded_capacity_bounds_the_level() {
        // 16 distinct skeleton keys against a level that holds the four largest:
        // whatever shards the keys hash to, the level-wide bytes never exceed the
        // budget, and evictions account for every entry no longer held.
        let budget: usize = (14..18).map(skeleton_bytes).sum();
        let cache = with_skeleton_budget(budget);
        for n in 2..18 {
            cache.skeleton(&config(n, 1.0)).unwrap();
            assert!(cache.stats().skeleton_bytes <= budget as u64, "budget exceeded at N = {n}");
        }
        let stats = cache.stats();
        assert_eq!(stats.skeleton_budget_bytes, budget as u64);
        assert_eq!(stats.skeleton_evictions + cache.len().skeletons as u64, 16);
        assert!(stats.skeleton_eviction_age > 0, "evictions must report recency ages");
    }

    #[test]
    fn every_level_stays_within_its_byte_budget() {
        // Paper-lifecycle skeletons and solutions for N = 3..20 in a fixed order,
        // against the default budgets: large-N entries force evictions, and after
        // every insert each level fits its budget.
        let cache = SolverCache::shared();
        let solver = MatrixGeometricSolver::default().with_cache(Arc::clone(&cache));
        for n in 3..=20 {
            solver.solve_shared(&config(n, 0.5 * n as f64)).unwrap();
            let stats = cache.stats();
            for level in stats.levels() {
                assert!(
                    level.bytes <= level.budget_bytes,
                    "{} over budget at N = {n}",
                    level.level
                );
            }
        }
        let stats = cache.stats();
        assert_eq!(
            [
                stats.skeleton_budget_bytes,
                stats.solution_budget_bytes,
                stats.transform_budget_bytes
            ],
            [1 << 20, 2 << 20, 1 << 20]
        );
        assert!(stats.skeleton_evictions > 0 && stats.solution_evictions > 0);
        assert_eq!(stats.skeleton_oversized + stats.solution_oversized, 0);
    }

    #[test]
    fn an_entry_over_its_level_budget_is_returned_but_not_stored() {
        let small = config(2, 1.0);
        let large = config(6, 1.0);
        let cache = with_skeleton_budget(skeleton_bytes(2));
        cache.skeleton(&small).unwrap();
        let occupancy = cache.len();
        let built = cache.skeleton(&large).unwrap();
        assert_eq!(built.servers(), 6, "the oversized skeleton still reaches its caller");
        assert_eq!(cache.len(), occupancy, "an oversized entry must not be stored");
        let stats = cache.stats();
        assert_eq!((stats.skeleton_misses, stats.skeleton_oversized), (2, 1));
        assert_eq!(stats.skeleton_evictions, 0, "an oversized entry evicts nothing");
        // Looking it up again is another miss; the small entry is still a hit.
        cache.skeleton(&large).unwrap();
        cache.skeleton(&small).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.skeleton_misses, stats.skeleton_hits), (3, 1));
    }

    #[test]
    fn poisoned_shards_recover_by_clearing() {
        let cache = SolverCache::new();
        let cfg = config(3, 1.0);
        cache.skeleton(&cfg).unwrap();
        assert_eq!(cache.stats().poison_recoveries, 0);
        // Poison the shard holding the key by panicking while its lock is held.
        let index = cache.skeletons.shard_index(&SkeletonKey::new(&cfg).unwrap());
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.skeletons.with_shard_at(index, |_| panic!("worker died mid-update"));
        }));
        assert!(poison.is_err());
        // The next touch recovers: the shard is cleared (cold miss), counted, and
        // the cache keeps serving.
        cache.skeleton(&cfg).unwrap();
        assert_eq!(cache.stats().poison_recoveries, 1);
        assert_eq!(cache.stats().skeleton_misses, 2, "recovered shard restarts cold");
        cache.skeleton(&cfg).unwrap();
        assert_eq!(cache.stats().skeleton_hits, 1, "cache serves normally after recovery");
    }

    #[test]
    fn level_stats_report_hit_rates_and_eviction_ages() {
        let stats = CacheStats {
            skeleton_hits: 3,
            skeleton_misses: 1,
            skeleton_evictions: 2,
            skeleton_eviction_age: 10,
            ..CacheStats::default()
        };
        let levels = stats.levels();
        assert_eq!(levels[0].level, "skeletons");
        assert_eq!(levels[0].lookups(), 4);
        assert_eq!(levels[0].hit_rate().to_bits(), 0.75f64.to_bits());
        assert_eq!(levels[0].mean_eviction_age().to_bits(), 5.0f64.to_bits());
        // Untouched levels divide by zero nowhere.
        assert_eq!(levels[1].hit_rate().to_bits(), 0.0f64.to_bits());
        assert_eq!(levels[1].mean_eviction_age().to_bits(), 0.0f64.to_bits());
        assert_eq!(stats.total_hit_rate().to_bits(), 0.75f64.to_bits());
    }

    #[test]
    fn occupancy_totals_the_levels() {
        let occupancy = CacheOccupancy { skeletons: 1, solutions: 2, transforms: 4 };
        assert_eq!(occupancy.total(), 7);
        let cache = SolverCache::new();
        assert!(cache.is_empty());
        cache.skeleton(&config(2, 1.0)).unwrap();
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.len(), CacheOccupancy::default());
    }
}
