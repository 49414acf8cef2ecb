//! The crossbar ladder's π chaining agrees with cold solves.
//!
//! `SmallCrossbarChain::solve` starts each truncation of its ladder from
//! the previous truncation's π. That only accelerates iteration toward the
//! truncation's unique fixed point, so the ladder's answer matches a cold
//! solve of the truncation it stopped at, to the Gauss–Seidel tolerance.
//! The shared-bus chain has no warm path: every solve is cold.

use rsin_queueing::{SmallCrossbarChain, SmallCrossbarParams};

fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1e-300)
}

#[test]
fn xbar_warm_grid_matches_cold_within_1e9() {
    // Small-m crossbar chains for every tractable bus count, across an
    // arrival-rate grid.
    for (m, r) in [(1u32, 2u32), (2, 1), (3, 1)] {
        for lam in [0.01, 0.03, 0.05] {
            let params = SmallCrossbarParams {
                processors: 4,
                buses: m,
                resources_per_bus: r,
                lambda: lam,
                mu_n: 1.0,
                mu_s: 0.5,
            };
            let Ok(chain) = SmallCrossbarChain::new(params) else {
                break;
            };
            let warm = chain.solve().expect("ladder solve");
            let cold = chain.solve_truncated(warm.levels).expect("cold solve");
            for (w, c) in [
                (warm.normalized_delay, cold.normalized_delay),
                (warm.mean_queue_length, cold.mean_queue_length),
                (warm.bus_utilization, cold.bus_utilization),
            ] {
                assert!(
                    rel_err(w, c) < 1e-9,
                    "m={m} r={r} lambda {lam}: warm {w} vs cold {c}"
                );
            }
        }
    }
}
