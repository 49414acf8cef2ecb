//! Output statistics for simulation runs.
//!
//! - [`Welford`]: streaming mean/variance of untimed observations.
//! - [`TimeWeighted`]: time-averages of piecewise-constant signals
//!   (queue lengths, busy counts).
//! - [`Histogram`]: delay distributions and quantiles.
//! - [`replication_interval`]: Student-t confidence intervals over
//!   independent replication means, which respect autocorrelation in
//!   steady-state output.
//! - [`normal_quantile`] / [`t_quantile`]: the quantile functions backing
//!   the intervals.

mod batch;
mod histogram;
mod quantile;
mod timeavg;
mod welford;

pub use batch::{replication_interval, ConfidenceInterval};
pub use histogram::Histogram;
pub use quantile::{erfc, normal_quantile, t_quantile};
pub use timeavg::TimeWeighted;
pub use welford::Welford;
