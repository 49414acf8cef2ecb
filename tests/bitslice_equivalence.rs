//! Umbrella byte-identity tests for the bit-sliced resolvers.
//!
//! The compiled evaluators in `rsin-bitslice` are the only production
//! resolvers. Each network crate's unit tests run them against its naive
//! oracle (the SBUS candidate-list arbiter, the Table-I crossbar cell wave,
//! the per-wire Omega status flood) through the full discrete-event
//! simulation. These tests pin the outcome of the same runs, as recorded
//! when both engines still shipped and produced identical values: the
//! FNV-1a digest of every statistic each `SimReport` holds, bit for bit —
//! for every discipline and policy, healthy and under fault injection.

use rsin::core::equivalence::{digest, faulted_fingerprint, healthy_fingerprint};
use rsin::core::ResourceNetwork;
use rsin::omega::{Admission, OmegaNetwork, Wiring};
use rsin::sbus::{Arbitration, SharedBusNetwork};
use rsin::xbar::{CrossbarNetwork, CrossbarPolicy};

/// Every network under test with its pinned healthy and faulted digests.
fn pinned_networks() -> Vec<(String, Box<dyn ResourceNetwork>, u64, u64)> {
    let mut nets: Vec<(String, Box<dyn ResourceNetwork>, u64, u64)> = Vec::new();

    for (arb, healthy, faulted) in [
        (
            Arbitration::FixedPriority,
            0xb517_205f_2b3c_1dd5,
            0x766c_0bec_1499_7957,
        ),
        (
            Arbitration::Random,
            0x7c53_c191_10ca_c4cc,
            0xc5f1_afd9_51d7_1d62,
        ),
        (
            Arbitration::RoundRobin,
            0x928c_4c66_9d96_8e10,
            0xea42_91f3_3403_e9a8,
        ),
    ] {
        let net = SharedBusNetwork::new(2, 3, 2, arb);
        nets.push((format!("sbus/{arb:?}"), Box::new(net), healthy, faulted));
    }

    for (policy, healthy, faulted) in [
        (
            CrossbarPolicy::FixedPriority,
            0x5373_0b4a_6c69_76f1,
            0xbf81_ddaf_3027_5d2c,
        ),
        (
            CrossbarPolicy::RandomToken,
            0x70ea_4d9b_dce1_affc,
            0x9439_1c12_4c91_ff68,
        ),
    ] {
        let net = CrossbarNetwork::new(2, 4, 3, 2, policy);
        nets.push((format!("xbar/{policy:?}"), Box::new(net), healthy, faulted));
    }

    for (wiring, admission, healthy, faulted) in [
        (
            Wiring::Omega,
            Admission::Simultaneous,
            0xe231_c566_a939_41f8,
            0x144f_a215_90f7_31d5,
        ),
        (
            Wiring::Omega,
            Admission::Staggered,
            0xa965_494b_3887_ea36,
            0xf2d8_d499_ccc9_0cc5,
        ),
        (
            Wiring::Cube,
            Admission::Simultaneous,
            0xe231_c566_a939_41f8,
            0x80ac_dd4f_b988_13f8,
        ),
        (
            Wiring::Cube,
            Admission::Staggered,
            0xa965_494b_3887_ea36,
            0x5a4f_6910_c68e_6c99,
        ),
    ] {
        let net = OmegaNetwork::with_wiring(1, 8, 2, admission, wiring);
        nets.push((
            format!("omega/{wiring:?}/{admission:?}"),
            Box::new(net),
            healthy,
            faulted,
        ));
    }

    nets
}

#[test]
fn engines_produce_identical_reports_on_healthy_networks() {
    for (label, mut net, pinned, _) in pinned_networks() {
        let words = healthy_fingerprint(net.as_mut());
        assert_eq!(
            digest(&words),
            pinned,
            "{label}: healthy run diverged from the pinned report {words:?}"
        );
    }
}

#[test]
fn engines_produce_identical_reports_under_fault_injection() {
    for (label, mut net, _, pinned) in pinned_networks() {
        // None of the pinned faulted runs stalls.
        let words = faulted_fingerprint(net.as_mut())
            .unwrap_or_else(|e| panic!("{label}: faulted run stalled: {e}"));
        assert_eq!(
            digest(&words),
            pinned,
            "{label}: faulted run diverged from the pinned report {words:?}"
        );
    }
}
