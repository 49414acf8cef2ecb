//! # rsin-core — resource-sharing interconnection networks
//!
//! The unifying layer of the RSIN reproduction of Wah, *"A Comparative Study
//! of Distributed Resource Sharing on Multiprocessors"* (1983). A
//! resource-sharing request is directed at *any* free member of a pool of
//! identical resources; the paper's contribution is to distribute the
//! scheduling of such requests into the interconnection network itself.
//! This crate defines everything the three network families
//! (`rsin-sbus`, `rsin-xbar`, `rsin-omega`) share:
//!
//! - [`SystemConfig`] / [`NetworkKind`]: the paper's `p/i×j×k N/r`
//!   configuration notation, parsed and validated.
//! - [`Workload`]: Poisson arrivals, exponential transmission (`µ_n`) and
//!   service (`µ_s`), and the reference traffic-intensity convention.
//! - [`ResourceNetwork`] + [`Grant`]: the contract a network implements —
//!   request cycles in, grants out, circuit release at end of transmission,
//!   resource release at end of service.
//! - [`PortPool`]: the busy count and up/down state of the resource pool
//!   behind every output port, and the one owner of the resource-fault
//!   contract.
//! - [`simulate`] / [`SimOptions`] / [`SimReport`]: the task-lifecycle
//!   discrete-event simulator measuring the paper's delay metric `d`.
//! - [`simulate_faulty`] / [`FaultOptions`] / [`SimError`]: the same
//!   lifecycle under a fault-injection plan, with casualty requeueing and
//!   a livelock watchdog.
//! - [`simulate_round_trip`] + [`ReturnNetwork`] / [`InstantReturn`]: the
//!   result-return leg of Section II in the same loop — each result waits
//!   for a circuit back to its processor — filling
//!   [`SimReport::round_trip`] and [`SimReport::return_wait`] while every
//!   forward statistic stays bit for bit what [`simulate`] reports.
//! - [`estimate_delay`]: replicated runs with confidence intervals.
//! - [`experiment`]: text/CSV rendering for the figure regenerators.
//! - [`advisor`]: the Table-II network-selection decision rule.
//! - [`equivalence`]: bit-exact fingerprints of fixed DES runs, which the
//!   network crates use to check their resolvers against test oracles.
//!
//! # Example
//!
//! ```
//! use rsin_core::{SystemConfig, Workload};
//!
//! let cfg: SystemConfig = "16/1x16x16 OMEGA/2".parse()?;
//! assert_eq!(cfg.total_resources(), 32);
//! // A Fig. 12 load point: µ_s/µ_n = 0.1, ρ = 0.4.
//! let w = Workload::for_intensity(&cfg, 0.4, 0.1)?;
//! assert!((w.intensity(&cfg) - 0.4).abs() < 1e-12);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod advisor;
mod config;
pub mod equivalence;
mod error;
pub mod experiment;
mod network;
mod pool;
mod runner;
mod sim;
pub mod typed;
mod workload;

pub use config::{NetworkKind, SystemConfig};
pub use error::{ConfigError, HarnessError};
pub use network::{
    Grant, InstantReturn, NetworkCounters, PendingSet, ResourceNetwork, ReturnNetwork,
};
pub use pool::PortPool;
pub use runner::{estimate_delay, estimate_delay_jobs, DelayEstimate};
pub use sim::{
    simulate, simulate_faulty, simulate_general, simulate_round_trip, FaultOptions, SimError,
    SimOptions, SimReport, StageDistributions,
};
pub use workload::Workload;
