//! Analytical evaluation of multi-server systems with unreliable servers.
//!
//! This crate implements the modelling contribution of Palmer & Mitrani, *Empirical and
//! Analytical Evaluation of Systems with Multiple Unreliable Servers* (DSN 2006): an
//! M/M/N queue whose servers alternate between hyperexponentially distributed operative
//! periods and hyperexponentially distributed inoperative periods, modelled as a
//! Markov-modulated queue and solved
//!
//! * **exactly**, by the method of spectral expansion ([`SpectralExpansionSolver`])
//!   and by the matrix-geometric method ([`MatrixGeometricSolver`]) — the faster of
//!   the two, which the query [`Engine`] serves, with spectral expansion certifying
//!   it,
//! * **approximately**, by the heavy-traffic geometric approximation
//!   ([`GeometricApproximation`]),
//! * and, as an independent cross-check, by brute-force solution of a truncated chain
//!   ([`TruncatedCtmcSolver`]).
//!
//! On top of the solvers sit the analyses of the paper's Section 4: the cost model
//! `C = c₁L + c₂N` and its optimisation over the number of servers ([`CostSweep`]),
//! capacity planning ([`ProvisioningSweep`]), the sensitivity sweeps behind
//! Figures 6–8 ([`sweeps`]), and the per-class cost model ([`ClassCostModel`]) with
//! the fleet-mix optimiser built on it ([`mix::MixSearch`]).
//!
//! The model also implements the extension the paper flags as future work:
//! **heterogeneous server classes**.  [`SystemConfig::heterogeneous`] partitions the
//! fleet into [`ServerClass`]es with distinct service rates and lifecycles, the mode
//! space becomes the per-class product ([`ModeSpace::for_classes`]), jobs go to the
//! fastest operative servers first, and every solver above handles the extended model
//! unchanged — with equal-parameter classes collapsing to the homogeneous path bit
//! for bit.
//!
//! # Paper map
//!
//! | Paper section | Module |
//! |---|---|
//! | §3 state space (modes, eq. 12) | [`ModeSpace`] |
//! | §3.1 QBD generator blocks | [`QbdMatrices`], [`QbdSkeleton`] |
//! | §3.1 spectral expansion (exact) | [`SpectralExpansionSolver`] |
//! | §3.2 heavy-traffic geometric approximation | [`GeometricApproximation`] |
//! | §4 cost model (eq. 22) and Figure 5 | [`CostModel`], [`CostSweep`] |
//! | Figures 6–8 sensitivity sweeps | [`sweeps`] |
//! | Figure 9 capacity planning | [`ProvisioningSweep`] |
//! | §5 open problem: response-time *distribution* | [`response`] ([`ResponseAnalysis`], [`sweeps::percentile_vs_servers`]) |
//! | §6 future work: distinct server classes | [`ServerClass`], [`SystemConfig::heterogeneous`], [`ModeSpace::for_classes`], [`QbdSkeleton::for_classes`] |
//! | §6 future work: class-mix exploration | [`sweeps::queue_length_vs_class_mix`] |
//! | §4 cost model lifted to class mixes | [`ClassCostModel`], [`mix::MixSearch`] |
//! | §4–§5 analyses as a served query protocol | [`engine`] ([`Engine`], [`engine::Query`], the `urs-server` binary) |
//!
//! # Performance subsystem
//!
//! Every figure of the paper is a parameter sweep that re-solves the model per grid
//! point.  Two building blocks make those sweeps fast without changing their results:
//!
//! * [`ThreadPool`] — a scoped-thread worker pool whose `par_map` returns results in
//!   input order, so parallel sweeps are bit-identical to serial ones.  All sweep
//!   helpers fan out over it; pass [`ThreadPool::serial`] (or set `URS_THREADS=1`) to
//!   force the serial path.  The same pool also parallelises *inside* a single
//!   solve: [`SpectralExpansionSolver::with_pool`] extracts eigenvectors
//!   concurrently, while [`MatrixGeometricSolver::with_pool`] and
//!   [`TruncatedCtmcSolver::with_pool`] hand the pool to `urs-linalg`'s row-banded
//!   gemm/LU/right-solve kernels.
//!   Intra-solve parallelism is strictly opt-in (defaults stay serial) and is
//!   pinned bit-identical across thread counts by the `parallel_equivalence`
//!   thread-matrix suite.
//! * [`SolverCache`] — a shared, thread-safe cache of λ-independent QBD skeletons
//!   within [`CACHE_BYTES`].  [`MatrixGeometricSolver::with_cache`],
//!   [`SpectralExpansionSolver::with_cache`], [`GeometricApproximation::with_cache`],
//!   [`ResponseAnalysis::with_cache`] and [`MixSearch::with_cache`] all reuse its
//!   skeletons, so solvers compared on one grid build each skeleton once between
//!   them.  (The approximation needs no eigensystem: it brackets its decay rate
//!   with unpivoted real LUs.)  The cache is one [`ByteLru`] — the byte-budgeted
//!   LRU behind one lock, keyed on canonical `u64` words, that also holds the
//!   engine's plan stores and `urs-server`'s response memo — whose poisoned lock
//!   recovers by clearing rather than propagating.
//! * [`Engine`] — the standing query engine over both: parses [`engine::Query`]
//!   values from a newline-delimited JSON protocol, plans batches so queries with
//!   the same QBD skeleton share one pool fan-out, and executes them
//!   bit-identically to the batch API.  The queries of one plan share their
//!   solutions and absorption chains in a store dropped with the plan, and
//!   [`CacheStats::levels`] reports the skeleton cache and those stores.  The
//!   `urs-server` binary serves it over stdin or TCP.
//!
//! Underneath both, every solver runs on `urs-linalg`'s allocation-free kernels
//! (tiled `gemm`, blocked LU, `Workspace`-recycled scratch), and
//! [`MatrixGeometricSolver`] computes its `R` matrix by symmetric cyclic reduction
//! — quadratic convergence, one Cholesky factorisation per step in the frame where
//! the reversible mode chain makes every block symmetric, instead of the classical
//! fixed point's per-step inverse (the achieved depth is reported by
//! [`MatrixGeometricSolution::reduction_depth`]).
//!
//! # Quick start
//!
//! ```
//! use urs_core::{QueueSolver, ServerLifecycle, SpectralExpansionSolver, SystemConfig};
//!
//! # fn main() -> Result<(), urs_core::ModelError> {
//! // 10 servers, Poisson arrivals at rate 8, unit service rate, and the
//! // breakdown/repair behaviour fitted to the Sun trace in the paper.
//! let config = SystemConfig::new(10, 8.0, 1.0, ServerLifecycle::paper_fitted()?)?;
//! let solution = SpectralExpansionSolver::default().solve(&config)?;
//! println!("mean jobs in system: {:.2}", solution.mean_queue_length());
//! println!("mean response time:  {:.2}", solution.mean_response_time());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod approx;
mod cache;
mod config;
mod cost;
mod error;
mod matrix_geometric;
mod modes;
mod parallel;
mod provisioning;
mod qbd;
mod solution;
mod spectral;
mod truncated;

pub mod engine;
pub mod mix;
pub mod response;
pub mod sweeps;

pub use approx::{dominant_eigenvalue, GeometricApproximation, GeometricSolution};
pub use cache::{ByteLru, CacheKey, CacheLevelStats, CacheStats, SolverCache, CACHE_BYTES};
pub use config::{ServerClass, ServerLifecycle, SystemConfig};
pub use cost::{ClassCostModel, CostModel, CostPoint, CostSweep};
pub use engine::{Engine, Query, QueryResult};
pub use error::ModelError;
pub use matrix_geometric::{
    MatrixGeometricOptions, MatrixGeometricSolution, MatrixGeometricSolver,
};
pub use mix::{MixBounds, MixCandidate, MixSearch, MixSearchOptions, MixSearchResult};
pub use modes::{Mode, ModeSpace};
pub use parallel::{ThreadPool, WorkerPanic};
pub use provisioning::{min_servers_for_response_time, ProvisioningPoint, ProvisioningSweep};
pub use qbd::{QbdMatrices, QbdSkeleton};
pub use response::{
    invert_lst, invert_lst_cdf, AbsorptionChain, InversionOptions, ResponseAnalysis,
    ResponseOptions,
};
pub use solution::{consistency_violations, QueueSolution, QueueSolver};
pub use spectral::{SpectralExpansionSolver, SpectralOptions, SpectralSolution};
pub use truncated::{TruncatedCtmcSolver, TruncatedOptions, TruncatedSolution};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ModelError>;
