//! # rsin-queueing — analytical models for resource-sharing networks
//!
//! The analytical substrate of the RSIN reproduction (Wah, 1983):
//!
//! - [`Mm1`] and [`Mmr`]: the degenerate limits of the single shared bus
//!   (infinitely many resources → M/M/1 on the bus; instantaneous
//!   transmission → M/M/r on the resources).
//! - [`Ctmc`]: sparse continuous-time Markov chains with Gauss–Seidel and
//!   dense steady-state solvers.
//! - [`SharedBusChain`]: the paper's exact model of a single shared bus
//!   (Section III, Fig. 3) with the stage-recursion solver of eq. (2) and a
//!   truncated full-balance reference solver.
//! - [`approx`]: the light-/heavy-load crossbar approximations of
//!   Section IV.
//! - [`traffic`]: the reference traffic-intensity convention the figures
//!   are plotted against.
//!
//! # Example
//!
//! Reproduce one point of Fig. 4 (16 processors and 32 resources on one
//! shared bus, `µ_s/µ_n = 0.1`, ρ = 0.3 — this configuration saturates its
//! single bus at ρ = 0.375, one of the effects the figure shows):
//!
//! ```
//! use rsin_queueing::{traffic, SharedBusChain, SharedBusParams};
//!
//! let (mu_n, mu_s) = (1.0, 0.1);
//! let lambda = traffic::lambda_for_intensity(16, 32, 0.3, mu_n, mu_s);
//! let chain = SharedBusChain::new(SharedBusParams {
//!     processors: 16,
//!     resources: 32,
//!     lambda,
//!     mu_n,
//!     mu_s,
//! })?;
//! let sol = chain.solve()?;
//! println!("normalized delay = {:.3}", sol.normalized_delay);
//! # Ok::<(), rsin_queueing::SolveError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod approx;
mod cache;
mod error;
mod linalg;
mod markov;
mod mm1;
mod mmr;
pub mod provisioning;
mod sbus;
pub mod traffic;
mod xbar_chain;

pub use cache::{shared_bus_cache_stats, solve_shared_bus_cached, CacheStats};
pub use error::SolveError;
pub use markov::{Ctmc, Transition};
pub use mm1::Mm1;
pub use mmr::Mmr;
pub use sbus::{SharedBusChain, SharedBusParams, SharedBusSolution};
pub use xbar_chain::{
    SmallCrossbarChain, SmallCrossbarParams, SmallCrossbarSeed, SmallCrossbarSolution,
};
