//! # rsin-sbus — the single-shared-bus RSIN (Section III)
//!
//! The simplest resource-sharing interconnection network: a bus broadcasts
//! resource-status information to its processors, an arbiter serializes
//! access, and tasks transmit over the bus to one of `r` attached
//! resources. The paper analyzes it exactly (see
//! [`rsin_queueing::SharedBusChain`]) and uses it both as the upper bound on
//! queueing delay and, partitioned into private buses, as the preferred
//! organization when resources are cheap.
//!
//! - [`SharedBusNetwork`]: a simulatable
//!   [`ResourceNetwork`](rsin_core::ResourceNetwork) of `i` independent
//!   buses.
//! - [`TypedSharedBus`]: the multiple-resource-type extension (Section VII)
//!   as a plain [`ResourceNetwork`](rsin_core::ResourceNetwork) whose
//!   ports are its (bus, type) pools.
//! - [`Arbitration`] / [`Arbiter`]: fixed-priority (the paper's hardware),
//!   random (POLYP-style token), and round-robin policies.
//! - [`analytic::partition_delay`]: the exact per-partition Markov solution.
//!
//! # Example: simulation agrees with the exact chain
//!
//! ```
//! use rsin_core::{simulate, SimOptions, SystemConfig, Workload};
//! use rsin_des::SimRng;
//! use rsin_sbus::{analytic, Arbitration, SharedBusNetwork};
//!
//! let cfg: SystemConfig = "4/4x1x1 SBUS/2".parse()?;
//! let w = Workload::new(0.2, 1.0, 0.5)?;
//! let exact = analytic::partition_delay(&cfg, &w)?.mean_queue_delay;
//!
//! let mut net = SharedBusNetwork::from_config(&cfg, Arbitration::FixedPriority)?;
//! let mut rng = SimRng::new(7);
//! let opts = SimOptions { warmup_tasks: 1_000, measured_tasks: 30_000 };
//! let sim = simulate(&mut net, &w, &opts, &mut rng).mean_delay();
//! assert!((sim - exact).abs() / exact < 0.1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analytic;
mod arbiter;
mod network;
mod typed;

pub use arbiter::{Arbiter, Arbitration};
pub use network::{SharedBusNetwork, WrongKindError};
pub use typed::TypedSharedBus;

#[cfg(test)]
mod integration_tests {
    use super::*;
    use rsin_core::{simulate, SimOptions, SystemConfig, Workload};
    use rsin_des::SimRng;

    /// The load-bearing validation: for several SBUS configurations the
    /// event-driven simulation must agree with the exact Markov chain.
    #[test]
    fn simulation_matches_exact_chain_across_configs() {
        let cases = [
            ("16/16x1x1 SBUS/2", 0.3, 0.1),
            ("16/2x8x1 SBUS/16", 0.3, 0.1),
            // Note 16/4x4x1 SBUS/8 at ratio 1.0 saturates its buses by
            // ρ = 0.375 — the Fig. 5 partition effect — so test the
            // 16-partition system there instead.
            ("16/16x1x1 SBUS/2", 0.5, 1.0),
        ];
        for (cfg_str, rho, ratio) in cases {
            let cfg: SystemConfig = cfg_str.parse().expect("valid");
            let w = Workload::for_intensity(&cfg, rho, ratio).expect("valid");
            let exact = analytic::partition_delay(&cfg, &w)
                .expect("stable")
                .mean_queue_delay;
            let mut net =
                SharedBusNetwork::from_config(&cfg, Arbitration::FixedPriority).expect("sbus");
            let mut rng = SimRng::new(99);
            let opts = SimOptions {
                warmup_tasks: 5_000,
                measured_tasks: 80_000,
            };
            let sim = simulate(&mut net, &w, &opts, &mut rng).mean_delay();
            let rel = (sim - exact).abs() / exact.max(1e-9);
            assert!(
                rel < 0.08,
                "{cfg_str} at rho={rho}: sim {sim} vs exact {exact} (rel {rel})"
            );
        }
    }

    /// Arbitration policy does not change the *mean* delay of a symmetric
    /// exponential bus (the service order is independent of service times),
    /// though it changes fairness; the means should agree within noise.
    #[test]
    fn arbitration_policy_leaves_mean_delay_unchanged() {
        let cfg: SystemConfig = "8/1x8x1 SBUS/4".parse().expect("valid");
        let w = Workload::for_intensity(&cfg, 0.5, 0.5).expect("valid");
        let opts = SimOptions {
            warmup_tasks: 3_000,
            measured_tasks: 60_000,
        };
        let mut means = Vec::new();
        for policy in [
            Arbitration::FixedPriority,
            Arbitration::Random,
            Arbitration::RoundRobin,
        ] {
            let mut net = SharedBusNetwork::from_config(&cfg, policy).expect("sbus");
            let mut rng = SimRng::new(4242);
            means.push(simulate(&mut net, &w, &opts, &mut rng).mean_delay());
        }
        let max = means.iter().cloned().fold(f64::MIN, f64::max);
        let min = means.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            (max - min) / min < 0.1,
            "policies should agree on mean delay: {means:?}"
        );
    }
}
