//! # rsin-provision — cost-aware provisioning over the configuration space
//!
//! The paper's comparative question — which `p / i×j×k NET / r` system is
//! most cost-effective at a given load — turned into a search tool:
//!
//! - [`topo`]: candidate topologies — the classic single-class systems
//!   plus two composites (clustered crossbars feeding an Omega core,
//!   multi-lane Omega fabrics), all with overflow-checked dimensions so
//!   thousands of processors enumerate safely.
//! - [`cost`]: Table-I switch-point/bus-tap hardware counts and a
//!   user-overridable unit-price model.
//! - [`slo`]: the delay evaluator — analytic chains (cold shared-bus
//!   solves, π-chained small crossbars) where they exist, parallel DES
//!   where they don't, with a saturation guard in front of both.
//! - [`search`](mod@search): guided coordinate descent per shape with monotone
//!   pruning on the `r` axis, Pareto frontier output, DES confirmation of
//!   the winner, and an optional degraded-mode recheck.
//!
//! # Example
//!
//! Find the cheapest shared-bus organization of 16 processors meeting a
//! normalized-delay SLO at the paper's reference load:
//!
//! ```
//! use rsin_provision::{search, Family, SearchSpec};
//!
//! let mut spec = SearchSpec::new(16, 0.3, 0.1, 1.0)?;
//! spec.families = vec![Family::Sbus];
//! spec.confirm = None; // skip the DES confirmation in this doc test
//! let report = search(&spec)?;
//! let winner = report.winner.expect("feasible at this load");
//! println!("{} at cost {}", winner.topo, winner.cost);
//! # Ok::<(), rsin_core::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cost;
pub mod netmodel;
pub mod search;
pub mod slo;
pub mod topo;

pub use cost::{hardware, CostModel, Hardware};
pub use netmodel::{ClusteredXbarNet, MultiLaneOmegaNet};
pub use search::{search, Candidate, Confirmation, Family, SearchReport, SearchSpec};
pub use slo::{
    build_network, DelayOutcome, DelayValue, EvalCounters, EvalQuality, Evaluator, Method,
    TrafficProfile, EVAL_SEED,
};
pub use topo::{classic, CandidateTopology, ClusteredXbar, MultiLaneOmega};
