//! # rsin-omega — the Omega multistage RSIN (Section V)
//!
//! A `log₂N`-stage Omega network whose 2×2 interchange boxes carry the
//! scheduling intelligence: resource-availability bits flood backward from
//! the output ports, requests flow forward toward set availability
//! registers, and conflicts produce rejects that backtrack and divert to
//! alternate free resources. The headline result is a blocking probability
//! of ≈ 0.15 on an 8×8 network versus ≈ 0.3 for the same network under
//! conventional address mapping — a request that can *search* is much
//! harder to block.
//!
//! - [`OmegaState`] / [`Admission`] / [`Circuit`]: the distributed
//!   resolution protocol with circuit-held links and box-visit accounting
//!   (Fig. 11's example reproduces with 3.0 boxes per request against the
//!   paper's 3.5: straight-first tie-breaking avoids its one reroute).
//! - [`OmegaNetwork`]: the simulatable
//!   [`ResourceNetwork`](rsin_core::ResourceNetwork), optionally hosting
//!   several resource types laid out by a [`Placement`] (Section VII).
//! - [`AddressMappedOmega`]: the conventional baseline with a centralized
//!   random assigner.
//! - [`CentralOmegaNetwork`] / [`SequentialScheduler`]: the
//!   centralized-scheduler baseline — sequential allocation with a single
//!   point of failure for the fault study.
//! - [`blocking`]: the Monte Carlo blocking-probability experiment.
//!
//! # Example
//!
//! ```
//! use rsin_des::SimRng;
//! use rsin_omega::blocking::{run_blocking_experiment, BlockingExperiment};
//!
//! let mut rng = SimRng::new(1);
//! let exp = BlockingExperiment { trials: 500, ..BlockingExperiment::default() };
//! let res = run_blocking_experiment(&exp, &mut rng);
//! assert!(res.rsin < res.address_mapping);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod address_map;
pub mod blocking;
mod central;
mod model;
mod resolver;
mod return_path;

pub use address_map::AddressMappedOmega;
pub use central::{CentralOmegaNetwork, SequentialOutcome, SequentialScheduler};
pub use model::{OmegaNetwork, Placement, WrongKindError};
pub use resolver::{
    Admission, Circuit, MultistageState, OmegaState, Resolution, StatusFreshness, Wiring,
};
pub use return_path::OmegaReturnPath;

#[cfg(test)]
mod integration_tests {
    use super::*;
    use rsin_core::{simulate, SimOptions, SystemConfig, Workload};
    use rsin_des::SimRng;

    fn run(cfg: &SystemConfig, w: &Workload, seed: u64) -> rsin_core::SimReport {
        let mut net = OmegaNetwork::from_config(cfg, Admission::Simultaneous).expect("omega");
        let mut rng = SimRng::new(seed);
        let opts = SimOptions {
            warmup_tasks: 4_000,
            measured_tasks: 40_000,
        };
        simulate(&mut net, w, &opts, &mut rng)
    }

    /// Fig. 12's observation: eight 2×2 networks and one 16×16 network are
    /// nearly interchangeable except under heavy load.
    #[test]
    fn small_partitions_match_large_network_at_light_load() {
        let big: SystemConfig = "16/1x16x16 OMEGA/2".parse().expect("valid");
        let small: SystemConfig = "16/8x2x2 OMEGA/2".parse().expect("valid");
        let w_big = Workload::for_intensity(&big, 0.3, 0.1).expect("valid");
        let d_big = run(&big, &w_big, 21).mean_delay();
        let w_small = Workload::for_intensity(&small, 0.3, 0.1).expect("valid");
        let d_small = run(&small, &w_small, 22).mean_delay();
        // At light load both delays are a small fraction of a service time;
        // the curves coincide in absolute terms (Fig. 12's message).
        assert!(
            (d_big - d_small).abs() < 0.1,
            "light-load delays should be close: {d_big} vs {d_small}"
        );
    }

    /// Under heavier load the large network's path diversity wins.
    #[test]
    fn large_network_wins_under_heavy_load() {
        let big: SystemConfig = "16/1x16x16 OMEGA/2".parse().expect("valid");
        let small: SystemConfig = "16/8x2x2 OMEGA/2".parse().expect("valid");
        let rho = 0.75;
        let d_big = run(
            &big,
            &Workload::for_intensity(&big, rho, 0.1).expect("valid"),
            23,
        )
        .mean_delay();
        let d_small = run(
            &small,
            &Workload::for_intensity(&small, rho, 0.1).expect("valid"),
            24,
        )
        .mean_delay();
        assert!(
            d_big < d_small,
            "16x16 ({d_big}) should beat 8 small nets ({d_small}) at rho={rho}"
        );
    }

    /// The distributed RSIN must not do worse than the address-mapping
    /// baseline at equal configuration and load.
    #[test]
    fn rsin_beats_address_mapping_end_to_end() {
        let cfg: SystemConfig = "8/1x8x8 OMEGA/1".parse().expect("valid");
        let w = Workload::for_intensity(&cfg, 0.6, 1.0).expect("valid");
        let opts = SimOptions {
            warmup_tasks: 4_000,
            measured_tasks: 40_000,
        };
        let mut rsin = OmegaNetwork::from_config(&cfg, Admission::Simultaneous).expect("omega");
        let mut rng = SimRng::new(31);
        let d_rsin = simulate(&mut rsin, &w, &opts, &mut rng).mean_delay();
        let mut am = AddressMappedOmega::from_config(&cfg).expect("omega");
        let mut rng = SimRng::new(31);
        let d_am = simulate(&mut am, &w, &opts, &mut rng).mean_delay();
        assert!(
            d_rsin <= d_am * 1.05,
            "distributed scheduling {d_rsin} should not lose to address mapping {d_am}"
        );
    }
}
