//! # rsin-des — discrete-event simulation kernel
//!
//! The simulation substrate for the RSIN (resource-sharing interconnection
//! network) reproduction of Wah's *"A Comparative Study of Distributed
//! Resource Sharing on Multiprocessors"* (1983). The paper evaluates
//! crossbar networks partly — and Omega networks entirely — by stochastic
//! simulation; this crate provides everything those simulators need and
//! nothing domain-specific:
//!
//! - [`SimTime`]: a validated, totally ordered simulation clock value.
//! - [`Calendar`]: the future event list, with deterministic FIFO
//!   tie-breaking and event cancellation.
//! - [`SimRng`]: seeded, stream-splittable random numbers.
//! - [`Draw`] and implementations ([`Exponential`], [`Deterministic`],
//!   [`Erlang`], [`HyperExponential`]): service/arrival variates.
//! - [`FaultPlan`] / [`FaultTimeline`]: scripted and stochastic
//!   fail/repair schedules for fault-injection studies.
//! - [`stats`]: Welford accumulators, time-weighted averages, histograms,
//!   and replication confidence intervals.
//! - [`replicate_par`]: the independent-replication runner (inline at
//!   `jobs = 1`, scoped threads above; bitwise-identical results).
//! - [`scope_map`] / [`default_jobs`]: the deterministic parallel-map
//!   primitive the whole workspace's `--jobs` support is built on.
//!
//! # Example: an M/M/1 queue in ~30 lines
//!
//! ```
//! use rsin_des::{Calendar, Exponential, Draw, SimRng, SimTime, stats::Welford};
//!
//! #[derive(Debug)]
//! enum Ev { Arrival, Departure }
//!
//! let (lambda, mu) = (0.5, 1.0);
//! let mut rng = SimRng::new(7);
//! let (arr, svc) = (Exponential::with_rate(lambda), Exponential::with_rate(mu));
//! let mut cal = Calendar::new();
//! let mut queue = 0u64;
//! let mut delays = Welford::new();
//! let mut waiting: Vec<SimTime> = Vec::new();
//!
//! cal.schedule(SimTime::ZERO + arr.draw(&mut rng), Ev::Arrival);
//! while delays.count() < 10_000 {
//!     let (now, ev) = cal.pop().expect("event");
//!     match ev {
//!         Ev::Arrival => {
//!             cal.schedule(now + arr.draw(&mut rng), Ev::Arrival);
//!             waiting.push(now);
//!             queue += 1;
//!             if queue == 1 {
//!                 cal.schedule(now + svc.draw(&mut rng), Ev::Departure);
//!             }
//!         }
//!         Ev::Departure => {
//!             let arrived = waiting.remove(0);
//!             delays.push(now - arrived);
//!             queue -= 1;
//!             if queue > 0 {
//!                 cal.schedule(now + svc.draw(&mut rng), Ev::Departure);
//!             }
//!         }
//!     }
//! }
//! // M/M/1 sojourn time = 1/(mu - lambda) = 2.0.
//! assert!((delays.mean() - 2.0).abs() < 0.25);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod calendar;
mod dist;
mod fault;
mod parallel;
mod replicate;
mod rng;
pub mod stats;
mod time;

pub use calendar::{Calendar, EventHandle, OpenRoot};
pub use dist::{Deterministic, Draw, Erlang, Exponential, HyperExponential};
pub use fault::{FaultAction, FaultEvent, FaultPlan, FaultTarget, FaultTimeline, StochasticFault};
pub use parallel::{default_jobs, panic_message, scope_map, scope_map_indexed, RetryPolicy};
pub use replicate::{replicate_par, Replicated};
pub use rng::SimRng;
pub use time::SimTime;
