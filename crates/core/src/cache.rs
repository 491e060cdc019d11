//! Keyed caching of the λ-independent QBD skeletons, and the byte-budgeted LRU
//! behind every cache in the workspace.
//!
//! The sweeps behind the paper's Figures 5–9 reuse one piece of state across grid
//! points: the **QBD skeleton** — the mode enumeration and the generator blocks `A`,
//! `Dᴬ`, `C_0..C_N` — which depends only on the server classes (`N`, `µ`, lifecycle
//! per class), not on the arrival rate.  [`SolverCache`] keeps skeletons, shared
//! across solvers, threads and requests.  Solutions and response-time absorption
//! chains pay only between the queries of one plan, so the [`Engine`](crate::Engine)
//! keeps them in a store that lives for one plan.
//!
//! Both key on canonical `u64` words built here: the class words of a skeleton, then
//! for a solution the bits of λ, the solver tolerance and the iteration budget, then
//! for a chain the bits of the tail threshold.  Key construction normalises signed
//! zero (`-0.0` and `0.0` key identically) and rejects non-finite values, so NaN can
//! never be admitted as a silently-unequal cache key.  Hits return the stored value
//! unchanged, so cached and uncached runs are bit-identical.
//!
//! Both — and the response memo of `urs-server` — are one [`ByteLru`], a
//! **byte-budgeted LRU** behind one lock: heterogeneous server classes multiply the
//! key space combinatorially, and one dense large-fleet entry weighs hundreds of
//! kilobytes, so neither unbounded maps nor entry-count caps bound the memory of a
//! standing server.  Recency is counted in operations, never wall time, so a given
//! sequence of lookups evicts identically on every run.
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
//! let skeletons = cache.stats();
//! assert_eq!((skeletons.misses, skeletons.hits), (1, 1));
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::config::{canonical_bits, ServerClass, SystemConfig};
use crate::error::ModelError;
use crate::matrix_geometric::MatrixGeometricOptions;
use crate::qbd::{QbdMatrices, QbdSkeleton};
use crate::Result;

/// Byte budget of a default [`SolverCache`]: 1 MiB of skeletons.  That holds a
/// recent working set; one dense large-fleet skeleton (the 231 × 231 `A` at paper
/// N = 20) alone is ~0.43 MB.
pub const CACHE_BYTES: usize = 1 << 20;

/// Bytes the allocator spends on one heap allocation beyond its payload: glibc
/// malloc's chunk header plus its 16-byte rounding, on average.
pub(crate) const ALLOCATION_HEADER: usize = 16;

/// Heap bytes of one allocation holding `items`: the payload plus its header.
pub(crate) fn allocation_bytes<T>(items: &[T]) -> usize {
    size_of_val(items) + ALLOCATION_HEADER
}

/// Bytes a [`ByteLru`] charges per entry beyond its value's heap bytes and its key
/// words: the allocation headers of the key's two copies (map and recency index),
/// the entry's slots in both B-trees, and the value's handle (an `Arc`'s counts or
/// a `String`'s allocation).  Measured with a counting global allocator (payload
/// plus [`ALLOCATION_HEADER`] per live allocation) over 10 000 inserts of 14-word
/// keys, with and without evictions: 221–226 bytes per held entry for `Vec<u64>`
/// keys with `Arc` values (the solver cache), 261–269 for `QueryKey` keys with
/// `String` values (the response memo).  The constant is the larger, rounded up to
/// 16 bytes, so neither store is undercharged.
const ENTRY_OVERHEAD: usize = 272;

/// Deterministic digest of a list of canonical words: FNV-1a over the
/// little-endian bytes of the list's length and then of each word.  Stable across
/// runs, processes and platforms (no hasher seeding); it may collide, so it groups
/// and labels keys but never identifies them.
pub(crate) fn digest_of(words: &[u64]) -> u64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    std::iter::once(words.len() as u64)
        .chain(words.iter().copied())
        .flat_map(u64::to_le_bytes)
        .fold(OFFSET_BASIS, |hash, byte| (hash ^ u64::from(byte)).wrapping_mul(PRIME))
}

/// Deterministic digest of the λ-independent skeleton identity of a class list —
/// the digest of its [`push_class_words`]: two class lists with equal digests
/// share their QBD skeleton, which is what makes their queries batchable.
///
/// # Errors
///
/// Rejects classes with non-finite parameters (no sound cache key).
pub(crate) fn skeleton_digest(classes: &[ServerClass]) -> Result<u64> {
    Ok(digest_of(&skeleton_key(classes)?))
}

/// Appends the canonical words of a server-class list — the class count, then per
/// class its server count, service-rate bits and the `(weight, rate)` bits of both
/// period distributions, each list prefixed by its length — to `words`.  Two class
/// lists append equal words exactly when they share a skeleton, and no word
/// sequence is a prefix of another, so the words can be followed by further fields.
///
/// # Errors
///
/// Rejects non-finite parameters (no sound key).
pub(crate) fn push_class_words(classes: &[ServerClass], words: &mut Vec<u64>) -> Result<()> {
    words.push(classes.len() as u64);
    for class in classes {
        words.extend([class.count() as u64, key_bits("service_rate", class.service_rate())?]);
        for phases in [class.lifecycle().operative(), class.lifecycle().inoperative()] {
            words.push(phases.weights().len() as u64);
            for (&weight, &rate) in phases.weights().iter().zip(phases.rates()) {
                words.extend([key_bits("phase weight", weight)?, key_bits("phase rate", rate)?]);
            }
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

/// Key of the λ-independent skeleton: the words of the canonical class list.
fn skeleton_key(classes: &[ServerClass]) -> Result<Vec<u64>> {
    let mut words = Vec::new();
    push_class_words(classes, &mut words)?;
    Ok(words)
}

/// Key of a complete matrix-geometric solution: the skeleton key plus the bits of
/// the arrival rate and the solver options (the tolerance moves where the reduction
/// stops, the iteration budget whether it fails).
pub(crate) fn solution_key(
    config: &SystemConfig,
    options: &MatrixGeometricOptions,
) -> Result<Vec<u64>> {
    // Exhaustive destructuring: adding a field to MatrixGeometricOptions must break
    // this line rather than silently conflating solutions computed under different
    // options.
    let MatrixGeometricOptions { tolerance, max_iterations } = *options;
    let mut words = skeleton_key(config.classes())?;
    words.extend([
        key_bits("arrival_rate", config.arrival_rate())?,
        key_bits("tolerance", tolerance)?,
        max_iterations as u64,
    ]);
    Ok(words)
}

/// Key of a response-time absorption chain: the solution key plus the bits
/// of the tail-truncation threshold (the chain stores the arrival-state
/// distribution truncated at that mass, so different thresholds yield different —
/// if numerically close — chains).  The certification tolerances are deliberately
/// *not* part of the key: they affect only how the chain is evaluated, never its
/// contents.
pub(crate) fn transform_key(
    config: &SystemConfig,
    options: &MatrixGeometricOptions,
    tail_epsilon: f64,
) -> Result<Vec<u64>> {
    let mut words = solution_key(config, options)?;
    words.push(key_bits("tail_epsilon", tail_epsilon)?);
    Ok(words)
}

/// A key of a [`ByteLru`]: ordered, cloneable (the recency index holds a copy) and
/// made of canonical words whose heap bytes each entry is charged.
pub trait CacheKey: Ord + Clone {
    /// Heap bytes held by the key's words.
    fn heap_bytes(&self) -> usize;
}

impl CacheKey for Vec<u64> {
    fn heap_bytes(&self) -> usize {
        size_of_val(self.as_slice())
    }
}

/// One cached value, the bytes it is charged and the stamp of its last use (its
/// position in the recency index).
#[derive(Debug)]
struct Entry<V> {
    value: V,
    bytes: usize,
    stamp: u64,
}

/// Everything a [`ByteLru`]'s lock guards: the entries, the recency index, the
/// bytes charged, the operation clock and the counters.  Ordered maps (rather than
/// hash maps) keep eviction order — and so every counter — independent of hasher
/// seeding across runs and processes.
#[derive(Debug)]
struct LruState<K, V> {
    map: BTreeMap<K, Entry<V>>,
    /// Every key under the stamp of its last use: the first entry is the least
    /// recently used.
    order: BTreeMap<u64, K>,
    bytes: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    eviction_age: u64,
    oversized: u64,
    poison_recoveries: u64,
}

impl<K: CacheKey, V: Clone> LruState<K, V> {
    /// Advances the operation clock and looks `key` up; a found entry becomes the
    /// most recently used, under the new stamp.
    fn touch(&mut self, key: &K) -> Option<V> {
        self.clock += 1;
        let entry = self.map.get_mut(key)?;
        if let Some(key) = self.order.remove(&entry.stamp) {
            self.order.insert(self.clock, key);
        }
        entry.stamp = self.clock;
        Some(entry.value.clone())
    }

    /// Drops every entry; the clock and the counters keep running.
    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
        self.bytes = 0;
    }
}

/// A byte-budgeted, poison-recovering LRU map: the one cache implementation behind
/// the [`SolverCache`], the engine's plan store and the response memo of
/// `urs-server`.
///
/// One mutex guards the entries, a recency index from last-use stamp to key, and the
/// counters, so a lookup, an insert and each eviction cost `O(log n)`.  Each entry
/// is charged [`charge`](Self::charge) bytes — its value's heap bytes, its key
/// words twice (map and recency index) and a fixed per-entry overhead; after an
/// insert the least recently used entries are evicted until the charged bytes fit
/// the budget again.  Stamps come from an operation clock (never the wall clock),
/// so a single-threaded sequence of lookups and inserts evicts in the same order on
/// every run.  An entry larger than the whole budget is handed back to the caller
/// without being stored.
///
/// Locking never panics on a poisoned mutex: a worker that panicked while holding
/// the lock leaves the contents suspect, so they are **cleared and reused**
/// (recover-and-continue) and the recovery is counted.  The map only ever stores
/// complete, immutable values, so one crashed worker can never wedge a standing
/// server — the worst case is a few cold keys.
#[derive(Debug)]
pub struct ByteLru<K, V> {
    budget: usize,
    state: Mutex<LruState<K, V>>,
}

impl<K: CacheKey, V: Clone> ByteLru<K, V> {
    /// An empty LRU holding at most `budget` charged bytes (`0` stores nothing).
    pub fn new(budget: usize) -> Self {
        ByteLru {
            budget,
            state: Mutex::new(LruState {
                map: BTreeMap::new(),
                order: BTreeMap::new(),
                bytes: 0,
                clock: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                eviction_age: 0,
                oversized: 0,
                poison_recoveries: 0,
            }),
        }
    }

    /// Bytes an entry under `key` with a value of `value_bytes` heap bytes is
    /// charged: the value, the key's words twice (map and recency index) and the
    /// per-entry overhead.
    pub fn charge(key: &K, value_bytes: usize) -> usize {
        value_bytes + 2 * key.heap_bytes() + ENTRY_OVERHEAD
    }

    /// The most charged bytes the LRU holds.
    pub(crate) fn budget(&self) -> usize {
        self.budget
    }

    /// Locks the state, recovering a poisoned lock by clearing the entries.
    fn lock(&self) -> MutexGuard<'_, LruState<K, V>> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                // Clear the flag too, so the recovery is counted once rather than on
                // every later lock.
                self.state.clear_poison();
                let mut guard = poisoned.into_inner();
                guard.clear();
                guard.poison_recoveries += 1;
                guard
            }
        }
    }

    /// Looks `key` up, counting a hit or a miss; a hit becomes the most recently
    /// used entry.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut state = self.lock();
        let found = state.touch(key);
        if found.is_some() {
            state.hits += 1;
        } else {
            state.misses += 1;
        }
        found
    }

    /// Inserts `value`, whose heap bytes are `value_bytes`, unless another thread
    /// already stored the key (the racing winner is returned unchanged, so racing
    /// builders converge on one shared value), then evicts down to the budget.  A
    /// value over the whole budget is returned without being stored, and counted.
    pub fn insert_or_get(&self, key: K, value: V, value_bytes: usize) -> V {
        self.insert_or_get_with(key, value, value_bytes, |_, _| {})
    }

    /// [`insert_or_get`](Self::insert_or_get), calling `evicted` under the lock with
    /// each value it evicts and that value's recency age.
    pub(crate) fn insert_or_get_with(
        &self,
        key: K,
        value: V,
        value_bytes: usize,
        mut evicted: impl FnMut(&V, u64),
    ) -> V {
        let bytes = Self::charge(&key, value_bytes);
        let mut state = self.lock();
        if bytes > self.budget {
            state.oversized += 1;
            return value;
        }
        if let Some(winner) = state.touch(&key) {
            return winner;
        }
        let stamp = state.clock;
        state.order.insert(stamp, key.clone());
        state.map.insert(key, Entry { value: value.clone(), bytes, stamp });
        state.bytes += bytes;
        while state.bytes > self.budget {
            let Some((oldest, key)) = state.order.pop_first() else { break };
            let age = stamp.saturating_sub(oldest);
            if let Some(entry) = state.map.remove(&key) {
                state.bytes -= entry.bytes;
                evicted(&entry.value, age);
            }
            state.evictions += 1;
            state.eviction_age += age;
        }
        value
    }

    /// Drops every entry; the counters keep accumulating.
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// The counters, entries, bytes and budget, under the name `level`.
    pub fn stats(&self, level: &'static str) -> CacheLevelStats {
        let state = self.lock();
        CacheLevelStats {
            level,
            hits: state.hits,
            misses: state.misses,
            evictions: state.evictions,
            eviction_age_total: state.eviction_age,
            oversized: state.oversized,
            entries: state.map.len() as u64,
            bytes: state.bytes as u64,
            budget_bytes: self.budget as u64,
        }
    }

    /// Poisoned locks cleared and reused so far.
    pub fn poison_recoveries(&self) -> u64 {
        self.lock().poison_recoveries
    }
}

/// Hit/miss/eviction counters and occupancy of one cache level — the
/// [`SolverCache`]'s skeletons, one result kind of the engine's plan stores, or the
/// response memo — as a serving process reports them on its metrics endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheLevelStats {
    /// Level name: `"skeletons"` for the cache, `"solutions"` or `"transforms"`
    /// for the plan stores' results, `"response_memo"` for the server's memo.
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
    /// Entries the level holds now.
    pub entries: u64,
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

/// Counters and occupancy of an [`Engine`](crate::Engine)'s caches, per level, for
/// reporting and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// The levels `[skeletons, solutions, transforms]`, each with its hit rate,
    /// eviction-age diagnostics, entries and bytes against budget — the shape a
    /// serving process's `stats` endpoint reports.  The skeleton row is the shared
    /// [`SolverCache`]; the two result rows sum the counters of every plan store
    /// the engine has run, and hold no entries or bytes between plans.
    pub levels: [CacheLevelStats; 3],
    /// Skeleton-cache locks cleared after a worker panicked while holding them
    /// (recover-and-continue; see the poisoning policy in the [`ByteLru`] docs).
    pub poison_recoveries: u64,
}

impl CacheStats {
    /// Overall hit rate across all three levels (`0.0` before the first lookup).
    pub fn total_hit_rate(&self) -> f64 {
        let hits: u64 = self.levels.iter().map(|level| level.hits).sum();
        let lookups: u64 = self.levels.iter().map(CacheLevelStats::lookups).sum();
        if lookups == 0 {
            return 0.0;
        }
        hits as f64 / lookups as f64
    }
}

/// A thread-safe, byte-budgeted LRU cache of QBD skeletons.
///
/// Attach one cache to any of the solvers with its `with_cache` method —
/// [`MatrixGeometricSolver`](crate::MatrixGeometricSolver),
/// [`SpectralExpansionSolver`](crate::SpectralExpansionSolver),
/// [`GeometricApproximation`](crate::GeometricApproximation),
/// [`ResponseAnalysis`](crate::ResponseAnalysis) or
/// [`MixSearch`](crate::MixSearch) — and each reuses its skeletons, so solvers
/// compared on the same grid (Figures 8 and 9) build each one once between them.
/// See the example above in the module docs.
///
/// The cache is one [`ByteLru`] within [`CACHE_BYTES`] by default (set with
/// [`with_byte_budget`](Self::with_byte_budget)); see there for how entries are
/// charged and evicted, and how a poisoned lock is cleared and reused.  Skeletons
/// are built outside the lock, so the worker threads of a parallel sweep (or the
/// request threads of a standing server) wait on each other only for `O(log n)`
/// map steps.
#[derive(Debug)]
pub struct SolverCache {
    skeletons: ByteLru<Vec<u64>, Arc<QbdSkeleton>>,
}

impl Default for SolverCache {
    fn default() -> Self {
        SolverCache::new()
    }
}

impl SolverCache {
    /// Creates an empty cache with the default budget of [`CACHE_BYTES`].
    pub fn new() -> Self {
        SolverCache::with_byte_budget(CACHE_BYTES)
    }

    /// Creates an empty cache holding at most `bytes` of skeletons.  A budget of `0`
    /// caches nothing.
    pub fn with_byte_budget(bytes: usize) -> Self {
        SolverCache { skeletons: ByteLru::new(bytes) }
    }

    /// Creates an empty cache already wrapped in an [`Arc`], ready to be shared
    /// between solvers and threads.
    pub fn shared() -> Arc<Self> {
        Arc::new(SolverCache::new())
    }

    /// Returns the QBD skeleton for the server classes of the configuration, building
    /// and caching it on first use.
    ///
    /// The skeleton is built outside the lock, so concurrent sweeps never stall
    /// behind a build; if two threads race on the same key the first inserted
    /// skeleton wins and both threads share it (the builds are deterministic, so the
    /// values are interchangeable).
    ///
    /// # Errors
    ///
    /// Propagates skeleton-construction errors and rejects configurations whose
    /// parameters cannot form a sound cache key (non-finite values).
    pub fn skeleton(&self, config: &SystemConfig) -> Result<Arc<QbdSkeleton>> {
        let key = skeleton_key(config.classes())?;
        if let Some(hit) = self.skeletons.get(&key) {
            return Ok(hit);
        }
        let built = QbdSkeleton::for_classes(config.classes())?;
        let bytes = built.heap_bytes();
        Ok(self.skeletons.insert_or_get(key, Arc::new(built), bytes))
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheLevelStats {
        self.skeletons.stats("skeletons")
    }

    /// Poisoned locks cleared and reused so far.
    pub fn poison_recoveries(&self) -> u64 {
        self.skeletons.poison_recoveries()
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.stats().entries == 0
    }

    /// Drops every cached skeleton; the counters keep accumulating.
    pub fn clear(&self) {
        self.skeletons.clear();
    }
}

/// The QBD matrices of `config`, stamped from the skeleton in `cache` when a cache is
/// attached and from a freshly built one otherwise — what `with_cache` means on
/// every solver.
///
/// # Errors
///
/// As [`SolverCache::skeleton`].
pub(crate) fn qbd_matrices(
    cache: Option<&Arc<SolverCache>>,
    config: &SystemConfig,
) -> Result<QbdMatrices> {
    match cache {
        Some(cache) => {
            Ok(QbdMatrices::with_skeleton(cache.skeleton(config)?, config.arrival_rate()))
        }
        None => QbdMatrices::new(config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerLifecycle;
    use crate::matrix_geometric::MatrixGeometricSolver;

    fn config(servers: usize, lambda: f64) -> SystemConfig {
        SystemConfig::new(servers, lambda, 1.0, ServerLifecycle::paper_fitted().unwrap()).unwrap()
    }

    /// Bytes a paper-lifecycle skeleton of `servers` servers is charged.
    fn skeleton_bytes(servers: usize) -> usize {
        let cfg = config(servers, 1.0);
        let skeleton = QbdSkeleton::for_classes(cfg.classes()).unwrap();
        ByteLru::<_, ()>::charge(&skeleton_key(cfg.classes()).unwrap(), skeleton.heap_bytes())
    }

    #[test]
    fn skeletons_are_shared_per_lifecycle_and_server_count() {
        let cache = SolverCache::new();
        let first = cache.skeleton(&config(4, 2.0)).unwrap();
        let again = cache.skeleton(&config(4, 3.5)).unwrap(); // same N, µ, lifecycle
        assert!(Arc::ptr_eq(&first, &again), "λ must not affect the skeleton key");
        let other = cache.skeleton(&config(5, 2.0)).unwrap();
        assert!(!Arc::ptr_eq(&first, &other));
        let skeletons = cache.stats();
        assert_eq!((skeletons.hits, skeletons.misses), (1, 2));
        assert_eq!(skeletons.entries, 2);
    }

    #[test]
    fn different_lifecycles_get_different_skeletons() {
        let cache = SolverCache::new();
        let a = cache.skeleton(&config(3, 2.0)).unwrap();
        let exp = ServerLifecycle::exponential(0.1, 2.0).unwrap();
        let b = cache.skeleton(&SystemConfig::new(3, 2.0, 1.0, exp).unwrap()).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().misses, 2);
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
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn concurrent_evictions_stay_within_the_budget() {
        // Four workers insert 16 distinct skeleton keys into a level that holds
        // only the four largest: the one lock keeps the bytes within the budget,
        // and every miss is either still held or was evicted.
        use crate::parallel::ThreadPool;
        let budget: usize = (14..18).map(skeleton_bytes).sum();
        let cache = SolverCache::with_byte_budget(budget);
        let configs: Vec<SystemConfig> = (2..18).map(|n| config(n, 1.0)).collect();
        ThreadPool::new(4)
            .try_par_map(&configs, |cfg| {
                cache.skeleton(cfg)?;
                let skeletons = cache.stats();
                assert!(skeletons.bytes <= budget as u64, "budget exceeded");
                Ok::<_, ModelError>(())
            })
            .unwrap();
        let skeletons = cache.stats();
        assert!(skeletons.bytes <= budget as u64);
        assert_eq!(skeletons.misses, 16);
        assert!(skeletons.evictions > 0, "the workload must run under eviction pressure");
        assert_eq!(skeletons.evictions + skeletons.entries, skeletons.misses);
    }

    #[test]
    fn cache_statistics_are_run_to_run_deterministic() {
        // Two independent caches fed the same workload under eviction pressure
        // must report identical statistics and occupancy.  With a hash map this
        // held only by accident of hasher seeding; the ordered maps make
        // eviction order — and so every hit/miss counter — reproducible.
        let workload: Vec<SystemConfig> = [2, 3, 4, 2, 5, 3, 2, 6, 4, 5]
            .iter()
            .map(|&n| config(n, 1.0 + n as f64 / 10.0))
            .collect();
        let run = || {
            let cache = SolverCache::with_byte_budget(skeleton_bytes(5) + skeleton_bytes(6));
            for cfg in &workload {
                cache.skeleton(cfg).unwrap();
            }
            cache.stats()
        };
        let (stats_a, stats_b) = (run(), run());
        assert!(stats_a.evictions > 0, "the workload must run under eviction pressure");
        assert_eq!(stats_a, stats_b);
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
        let bad_options = MatrixGeometricOptions { tolerance: f64::NAN, ..Default::default() };
        assert!(solution_key(&config(2, 1.0), &bad_options).is_err());
        let bad_epsilon = transform_key(&config(2, 1.0), &Default::default(), f64::NAN);
        assert!(bad_epsilon.is_err());
    }

    #[test]
    fn lru_evicts_the_least_recently_used_skeleton() {
        // The budget fits A with either B or C, never all three.
        let cache = SolverCache::with_byte_budget(skeleton_bytes(2) + skeleton_bytes(4));
        let a = config(2, 1.0);
        let b = config(3, 1.0);
        let c = config(4, 1.0);
        cache.skeleton(&a).unwrap();
        cache.skeleton(&b).unwrap();
        cache.skeleton(&a).unwrap(); // A is now more recently used than B
        cache.skeleton(&c).unwrap(); // evicts B
        let skeletons = cache.stats();
        assert_eq!((skeletons.entries, skeletons.evictions), (2, 1));
        // A survives (hit), B was evicted (miss rebuilds it).
        cache.skeleton(&a).unwrap();
        assert_eq!(cache.stats().hits, 2);
        cache.skeleton(&b).unwrap();
        assert_eq!(cache.stats().misses, 4);
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
    fn sharded_capacity_bounds_the_level() {
        // 16 distinct skeleton keys against a level that holds the four largest:
        // the level's bytes never exceed the budget, and evictions account for
        // every entry no longer held.
        let budget: usize = (14..18).map(skeleton_bytes).sum();
        let cache = SolverCache::with_byte_budget(budget);
        for n in 2..18 {
            cache.skeleton(&config(n, 1.0)).unwrap();
            assert!(cache.stats().bytes <= budget as u64, "budget exceeded at N = {n}");
        }
        let skeletons = cache.stats();
        assert_eq!(skeletons.budget_bytes, budget as u64);
        assert_eq!(skeletons.evictions + skeletons.entries, 16);
        assert!(skeletons.eviction_age_total > 0, "evictions must report recency ages");
    }

    #[test]
    fn every_level_stays_within_its_byte_budget() {
        // Paper-lifecycle solves for N = 3..20 in a fixed order, against the default
        // budget: large-N skeletons force evictions, and after every insert the
        // cache fits its budget.
        let cache = SolverCache::shared();
        let solver = MatrixGeometricSolver::default().with_cache(Arc::clone(&cache));
        for n in 3..=20 {
            solver.solve_detailed(&config(n, 0.5 * n as f64)).unwrap();
            let skeletons = cache.stats();
            assert!(skeletons.bytes <= skeletons.budget_bytes, "over budget at N = {n}");
        }
        let skeletons = cache.stats();
        assert_eq!(skeletons.budget_bytes, CACHE_BYTES as u64);
        assert_eq!(CACHE_BYTES, 1 << 20);
        assert!(skeletons.evictions > 0);
        assert_eq!(skeletons.oversized, 0);
    }

    #[test]
    fn an_entry_over_its_level_budget_is_returned_but_not_stored() {
        let small = config(2, 1.0);
        let large = config(6, 1.0);
        let cache = SolverCache::with_byte_budget(skeleton_bytes(2));
        cache.skeleton(&small).unwrap();
        let built = cache.skeleton(&large).unwrap();
        assert_eq!(built.servers(), 6, "the oversized skeleton still reaches its caller");
        let skeletons = cache.stats();
        assert_eq!(skeletons.entries, 1, "an oversized entry must not be stored");
        assert_eq!((skeletons.misses, skeletons.oversized), (2, 1));
        assert_eq!(skeletons.evictions, 0, "an oversized entry evicts nothing");
        // Looking it up again is another miss; the small entry is still a hit.
        cache.skeleton(&large).unwrap();
        cache.skeleton(&small).unwrap();
        let skeletons = cache.stats();
        assert_eq!((skeletons.misses, skeletons.hits), (3, 1));
    }

    #[test]
    fn poisoned_shards_recover_by_clearing() {
        let cache = SolverCache::new();
        let cfg = config(3, 1.0);
        cache.skeleton(&cfg).unwrap();
        assert_eq!(cache.poison_recoveries(), 0);
        // Poison the skeleton level's lock by panicking while it is held.
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = cache.skeletons.lock();
            panic!("worker died mid-update");
        }));
        assert!(poison.is_err());
        // The next touch recovers: the level is cleared (cold miss), counted, and
        // the cache keeps serving.
        cache.skeleton(&cfg).unwrap();
        assert_eq!(cache.poison_recoveries(), 1);
        assert_eq!(cache.stats().misses, 2, "recovered level restarts cold");
        cache.skeleton(&cfg).unwrap();
        assert_eq!(cache.stats().hits, 1, "cache serves normally after recovery");
    }

    #[test]
    fn level_stats_report_hit_rates_and_eviction_ages() {
        let skeletons = CacheLevelStats {
            level: "skeletons",
            hits: 3,
            misses: 1,
            evictions: 2,
            eviction_age_total: 10,
            ..CacheLevelStats::default()
        };
        let solutions = CacheLevelStats { level: "solutions", ..CacheLevelStats::default() };
        let stats = CacheStats { levels: [skeletons, solutions, solutions], poison_recoveries: 0 };
        assert_eq!(skeletons.lookups(), 4);
        assert_eq!(skeletons.hit_rate().to_bits(), 0.75f64.to_bits());
        assert_eq!(skeletons.mean_eviction_age().to_bits(), 5.0f64.to_bits());
        // Untouched levels divide by zero nowhere.
        assert_eq!(solutions.hit_rate().to_bits(), 0.0f64.to_bits());
        assert_eq!(solutions.mean_eviction_age().to_bits(), 0.0f64.to_bits());
        assert_eq!(stats.total_hit_rate().to_bits(), 0.75f64.to_bits());
    }

    #[test]
    fn occupancy_totals_the_levels() {
        // Two arrival rates on one fleet hold one skeleton and no solution.
        let cache = SolverCache::shared();
        assert!(cache.is_empty());
        let solver = MatrixGeometricSolver::default().with_cache(Arc::clone(&cache));
        solver.solve_detailed(&config(2, 1.0)).unwrap();
        solver.solve_detailed(&config(2, 1.5)).unwrap();
        let skeletons = cache.stats();
        assert_eq!((skeletons.entries, skeletons.misses, skeletons.hits), (1, 1, 1));
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().bytes, 0);
    }
}
