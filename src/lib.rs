//! # unreliable-servers
//!
//! A reproduction of Palmer & Mitrani, *Empirical and Analytical Evaluation of Systems
//! with Multiple Unreliable Servers* (DSN 2006 / Newcastle CS-TR-936), packaged as a
//! set of reusable Rust crates.
//!
//! The workspace models service-provisioning clusters whose servers alternate between
//! operative and inoperative periods.  It contains:
//!
//! * [`core`] (`urs-core`) — the paper's analytical contribution: the Markov-modulated
//!   multi-server queue with breakdowns and repairs, solved exactly by spectral
//!   expansion and approximately by the heavy-traffic geometric approximation, plus
//!   matrix-geometric and truncated-chain cross-checks, cost optimisation, capacity
//!   planning, cost-aware fleet-mix search over heterogeneous server classes, and the
//!   certified response-time *distribution* (a uniformised absorption chain) the
//!   paper leaves as an open problem;
//! * [`dist`] (`urs-dist`) — exponential/hyperexponential/Erlang/deterministic
//!   distributions, empirical statistics, Kolmogorov–Smirnov testing and
//!   hyperexponential fitting;
//! * [`sim`] (`urs-sim`) — a discrete-event simulator of the same system with arbitrary
//!   period distributions;
//! * [`data`] (`urs-data`) — synthetic Sun-like breakdown traces and the Section-2
//!   empirical analysis pipeline;
//! * [`linalg`] (`urs-linalg`) — the real dense and banded linear algebra and
//!   eigenvalue machinery everything else is built on.
//!
//! Parameter sweeps and simulation replications run in parallel by default on
//! [`core::ThreadPool`] (scoped threads, deterministic result order — set
//! `URS_THREADS=1` to force the serial path), and [`core::SolverCache`] keeps the
//! λ-independent QBD skeletons, so λ-only-varying solves skip building them; both are
//! bit-identity-preserving.  See the README's "Performance" section.
//!
//! This umbrella crate simply re-exports the sub-crates under convenient names so that
//! an application can depend on a single crate:
//!
//! ```
//! use unreliable_servers::core::{QueueSolver, ServerLifecycle, SpectralExpansionSolver, SystemConfig};
//!
//! # fn main() -> Result<(), unreliable_servers::core::ModelError> {
//! let config = SystemConfig::new(10, 8.0, 1.0, ServerLifecycle::paper_fitted()?)?;
//! let solution = SpectralExpansionSolver::default().solve(&config)?;
//! assert!(solution.mean_response_time() > 1.0);
//! # Ok(())
//! # }
//! ```
//!
//! The runnable examples in `examples/` and the experiment binaries in `crates/bench`
//! reproduce every figure of the paper; see the README's "Reproducing the paper"
//! section.

#![deny(missing_docs)]

pub use urs_core as core;
pub use urs_data as data;
pub use urs_dist as dist;
pub use urs_linalg as linalg;
pub use urs_sim as sim;
