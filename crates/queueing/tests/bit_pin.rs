//! Exact-bit pins of the analytic chain results the provisioning frontier
//! publishes.
//!
//! The `provision` frontier CSVs print chain delays at full precision and
//! are digested, so the sparse generator's layout and the crossbar-chain
//! builder must not move a single bit: every sum has to add its terms in
//! the same order. The constants were captured with `f64::to_bits` from the
//! nested-vector generator these replaced.

use rsin_queueing::{
    traffic, SharedBusChain, SharedBusParams, SmallCrossbarChain, SmallCrossbarParams,
};

/// Per-processor arrival rate of the `provision --p 8` search: ρ = 0.3
/// against 16 resources, µ_n = 1, µ_s = 0.1.
fn lambda() -> f64 {
    traffic::lambda_for_intensity(8, 16, 0.3, 1.0, 0.1)
}

fn xbar(processors: u32, buses: u32, resources_per_bus: u32) -> SmallCrossbarChain {
    SmallCrossbarChain::new(SmallCrossbarParams {
        processors,
        buses,
        resources_per_bus,
        lambda: lambda(),
        mu_n: 1.0,
        mu_s: 0.1,
    })
    .expect("stable under the p8 profile")
}

fn assert_bits(what: &str, got: f64, want: u64) {
    assert_eq!(
        got.to_bits(),
        want,
        "{what}: got {got} ({:#018x}), pinned {} ({want:#018x})",
        got.to_bits(),
        f64::from_bits(want)
    );
}

/// The four `xbar-chain` rows of the p8 frontier, each solved cold as the
/// search solves them.
#[test]
fn p8_frontier_chains_are_bit_pinned() {
    for (p, m, r, want) in [
        (8, 1, 6, 0x3fd8_aa0a_2704_963d),
        (8, 2, 3, 0x3fd2_02c5_27c3_46b1),
        (8, 3, 2, 0x3fd0_cb19_82a6_15cb),
        (4, 2, 2, 0x3fc1_3047_5485_23e7),
    ] {
        let (sol, _) = xbar(p, m, r).solve_seeded(None).expect("solves");
        assert_bits(&format!("{p}x{m} r{r}"), sol.normalized_delay, want);
    }
}

/// The search's next 2-bus r2 solve, 2×2 r2, warm-started from the 4×2 r2
/// seed (8×2 r2 saturates under this profile, so 4×2 r2 is the first
/// solve of that shape).
#[test]
fn seeded_2x2r2_after_4x2r2_is_bit_pinned() {
    let (_, seed) = xbar(4, 2, 2).solve_seeded(None).expect("solves");
    let (sol, _) = xbar(2, 2, 2).solve_seeded(Some(&seed)).expect("solves");
    assert_eq!(sol.levels, 48);
    assert_bits("2x2 r2 seeded", sol.normalized_delay, 0x3f86_e7e6_26ad_0ce1);
}

/// A three-bus chain with a wide per-bus pool: 729 queued sub-states per
/// level.
#[test]
fn m3_r8_chain_is_bit_pinned() {
    let (sol, _) = xbar(8, 3, 8).solve_seeded(None).expect("solves");
    assert_eq!(sol.levels, 48);
    assert_bits("8x3 r8", sol.normalized_delay, 0x3f35_2ed4_c5dc_a404);
}

/// The shared-bus full-balance reference solver runs on the same sparse
/// generator; its residual also pins the balance-residual sum.
#[test]
fn shared_bus_truncated_is_bit_pinned() {
    let sol = SharedBusChain::new(SharedBusParams {
        processors: 8,
        resources: 16,
        lambda: lambda(),
        mu_n: 1.0,
        mu_s: 0.1,
    })
    .expect("stable")
    .solve_truncated(64)
    .expect("solves");
    assert_bits("sbus 8 r16", sol.normalized_delay, 0x3fb1_112c_d38e_23ff);
    assert_bits("sbus 8 r16 residual", sol.residual, 0x3d68_bcc0_0000_0000);
}
