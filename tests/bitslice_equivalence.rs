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
//! The centralized and address-mapped Omega baselines and the typed shared
//! bus have no bit-sliced resolver, but keep their per-port resource pools
//! in the same `rsin_core::PortPool`; their runs are pinned alongside.

use rsin::core::equivalence::{digest, faulted_fingerprint, fingerprint, healthy_fingerprint};
use rsin::core::typed::{simulate_typed, TypedWorkload};
use rsin::core::{ResourceNetwork, SimOptions, Workload};
use rsin::des::SimRng;
use rsin::omega::{AddressMappedOmega, Admission, CentralOmegaNetwork, OmegaNetwork, Wiring};
use rsin::sbus::{Arbitration, SharedBusNetwork, TypedSharedBus};
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

    // The networks with no bit-sliced resolver share the per-port resource
    // pools with the ones above, so their runs are pinned too.
    let others: [(&str, Box<dyn ResourceNetwork>, u64, u64); 2] = [
        (
            "c-omega",
            Box::new(CentralOmegaNetwork::new(8, 2).expect("power of two")),
            0xc01d_3bb4_b7b3_31b8,
            0x9c46_f993_6f3a_443f,
        ),
        (
            "omega-am",
            Box::new(AddressMappedOmega::new(1, 8, 2)),
            0x695f_ce63_e34d_975b,
            0x61c6_6df1_463e_4d0e,
        ),
    ];
    for (label, net, healthy, faulted) in others {
        nets.push((label.to_string(), net, healthy, faulted));
    }
    for (arb, healthy, faulted) in [
        (
            Arbitration::FixedPriority,
            0xb517_205f_2b3c_1dd5,
            0x5019_006c_1bc1_bece,
        ),
        (
            Arbitration::Random,
            0x7c53_c191_10ca_c4cc,
            0x9b28_420d_db6a_0295,
        ),
        (
            Arbitration::RoundRobin,
            0x928c_4c66_9d96_8e10,
            0xc687_1c60_36ff_6a96,
        ),
    ] {
        let net = TypedSharedBus::new(2, 3, vec![2, 1], arb);
        nets.push((
            format!("typed-sbus/{arb:?}"),
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

/// The typed-SBUS pins above run untyped workloads, so every task asks for
/// type 0. This pins a two-type run of the same bus (half the tasks ask
/// for the single type-1 resource of each bus) under every arbitration, so
/// the per-type candidate filter is checked on a type other than 0: the
/// report's words plus each type's delay count and mean, healthy load and
/// options as in `healthy_fingerprint`.
#[test]
fn typed_sbus_grants_both_types_as_pinned() {
    for (arb, pinned) in [
        (Arbitration::FixedPriority, 0x2142_f51e_10b3_6c2e),
        (Arbitration::Random, 0x7fc8_0c6b_411a_a670),
        (Arbitration::RoundRobin, 0x0720_c067_77fd_803f),
    ] {
        let mut net = TypedSharedBus::new(2, 3, vec![2, 1], arb);
        let base = Workload::new(0.3 * net.processors() as f64, 10.0, 1.0).expect("valid workload");
        let workload = TypedWorkload::new(base, vec![0.5, 0.5]).expect("valid mix");
        let opts = SimOptions {
            warmup_tasks: 100,
            measured_tasks: 1_500,
        };
        let report = simulate_typed(&mut net, &workload, &opts, &mut SimRng::new(42));
        let type1 = report.per_type_delay[1].count();
        assert!(type1 > 0, "{arb:?}: no type-1 request was granted");
        let mut words = fingerprint(&report);
        for d in &report.per_type_delay {
            words.extend([d.count(), d.mean().to_bits()]);
        }
        assert_eq!(
            digest(&words),
            pinned,
            "{arb:?}: two-type run diverged from the pinned report {words:?} ({type1} type-1 grants)"
        );
    }
}
