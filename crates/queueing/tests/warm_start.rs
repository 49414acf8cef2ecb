//! Crossbar π chaining agrees with cold solves, and the shared-bus cache
//! is transparent.
//!
//! π chaining in the small-crossbar chain only accelerates iteration
//! toward a unique fixed point, so a warm result matches the cold result
//! to tolerance and a seed from another state-space shape is ignored.
//! The shared-bus chain has no warm path: every solve is cold, and a
//! cache hit is bit for bit what a fresh chain returns.

use rsin_queueing::{
    solve_shared_bus_cached, traffic, SharedBusChain, SharedBusParams, SmallCrossbarChain,
    SmallCrossbarParams,
};

fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1e-300)
}

#[test]
fn xbar_warm_grid_matches_cold_within_1e9() {
    // Small-m crossbar chains for every tractable bus count, warm-chained
    // across an arrival-rate grid the way a figure sweep would.
    for (m, r) in [(1u32, 2u32), (2, 1), (3, 1)] {
        let mut seed = None;
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
            let cold = chain.solve().expect("cold solve");
            let (warm, next_seed) = chain.solve_seeded(seed.as_ref()).expect("warm solve");
            seed = Some(next_seed);
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

#[test]
fn xbar_warm_seed_transfers_only_at_equal_shape() {
    // The crossbar seed is π over a shape-dependent state space: chaining
    // across lambda at fixed shape must agree with cold; a shape change
    // must fall back to cold exactly.
    let at = |buses, r, lambda| SmallCrossbarParams {
        processors: 64,
        buses,
        resources_per_bus: r,
        lambda,
        mu_n: 1.0,
        mu_s: 0.1,
    };
    let chain_a = SmallCrossbarChain::new(at(2, 2, 0.003)).expect("stable");
    let (_, seed_a) = chain_a.solve_seeded(None).expect("solves");
    // Same shape, new load: warm agrees with cold to tolerance.
    let chain_b = SmallCrossbarChain::new(at(2, 2, 0.004)).expect("stable");
    let cold_b = chain_b.solve().expect("cold");
    let (warm_b, _) = chain_b.solve_seeded(Some(&seed_a)).expect("warm");
    // The truncation ladder stops when a doubling moves the delay by less
    // than 1e-6 relative, and a warm start may settle one rung away from
    // the cold solve — so agreement is pinned at that stopping tolerance,
    // not at the CTMC solver's 1e-12 convergence noise.
    assert!(rel_err(warm_b.normalized_delay, cold_b.normalized_delay) < 1e-6);
    // Different shape — 3×1 has the same state-space dimensions as 2×2 but
    // numbers entirely different states, so the seed must be ignored: the
    // seeded run must match an unseeded `solve_seeded` bit for bit (the
    // internal truncation-ladder warm-starting is identical either way).
    let chain_c = SmallCrossbarChain::new(at(3, 1, 0.003)).expect("stable");
    let (unseeded_c, _) = chain_c.solve_seeded(None).expect("unseeded");
    let (warm_c, _) = chain_c.solve_seeded(Some(&seed_a)).expect("warm");
    assert_eq!(warm_c, unseeded_c, "mismatched shape must ignore the seed");
}

#[test]
fn cache_returns_what_a_fresh_chain_returns() {
    // Satellite contract: the solution cache is transparent — a hit is the
    // exact value a fresh chain would produce.
    for rho in [0.05, 0.3, 0.6] {
        let lambda = traffic::lambda_for_intensity(16, 32, rho, 1.0, 0.1);
        let params = SharedBusParams {
            processors: 2,
            resources: 4,
            lambda,
            mu_n: 1.0,
            mu_s: 0.1,
        };
        let fresh = SharedBusChain::new(params)
            .expect("stable")
            .solve()
            .expect("solves");
        assert_eq!(solve_shared_bus_cached(params).expect("ok"), fresh);
        assert_eq!(solve_shared_bus_cached(params).expect("ok"), fresh, "hit");
    }
}
