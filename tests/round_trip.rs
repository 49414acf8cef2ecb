//! The result-return leg (Section II) through the umbrella API: every
//! forward discipline, with the address-mapped Omega return fabric and
//! with the never-blocking one. The return leg must leave the forward leg
//! untouched — the paper's `d` and every other forward statistic are the
//! plain run's, bit for bit — and must bring back every measured result.

use rsin::core::equivalence::fingerprint;
use rsin::core::{
    simulate, simulate_round_trip, InstantReturn, ResourceNetwork, ReturnNetwork, SimOptions,
    SystemConfig, Workload,
};
use rsin::des::SimRng;
use rsin::omega::{Admission, CentralOmegaNetwork, OmegaNetwork, OmegaReturnPath};
use rsin::sbus::{Arbitration, SharedBusNetwork};
use rsin::xbar::{CrossbarNetwork, CrossbarPolicy};

const OPTS: SimOptions = SimOptions {
    warmup_tasks: 200,
    measured_tasks: 2_000,
};

/// Builds a fresh forward network.
type Build = fn() -> Box<dyn ResourceNetwork>;

/// Each discipline on 8 processors, its configuration fixing the workload.
fn networks() -> Vec<(&'static str, Build)> {
    vec![
        ("8/2x4x1 SBUS/2", || {
            let cfg = "8/2x4x1 SBUS/2".parse().expect("valid");
            Box::new(SharedBusNetwork::from_config(&cfg, Arbitration::FixedPriority).expect("sbus"))
        }),
        ("8/1x8x8 XBAR/1", || {
            let cfg = "8/1x8x8 XBAR/1".parse().expect("valid");
            Box::new(
                CrossbarNetwork::from_config(&cfg, CrossbarPolicy::FixedPriority).expect("xbar"),
            )
        }),
        ("8/1x8x8 OMEGA/1", || {
            let cfg = "8/1x8x8 OMEGA/1".parse().expect("valid");
            Box::new(OmegaNetwork::from_config(&cfg, Admission::Simultaneous).expect("omega"))
        }),
        ("8/1x8x8 OMEGA/1", || {
            Box::new(CentralOmegaNetwork::new(8, 1).expect("c-omega"))
        }),
    ]
}

#[test]
fn the_return_leg_leaves_the_forward_leg_bit_identical_and_returns_every_result() {
    for (config, build) in networks() {
        let cfg: SystemConfig = config.parse().expect("valid");
        let w = Workload::for_intensity(&cfg, 0.5, 0.1).expect("valid");
        for seed in [1, 2, 3] {
            let plain = simulate(build().as_mut(), &w, &OPTS, &mut SimRng::new(seed));
            let returns: [Box<dyn ReturnNetwork>; 2] = [
                Box::new(OmegaReturnPath::new(8).expect("8x8")),
                Box::new(InstantReturn),
            ];
            for mut ret in returns {
                let label = format!("{} seed {seed} over {ret:?}", build().label());
                let report = simulate_round_trip(
                    build().as_mut(),
                    ret.as_mut(),
                    &w,
                    w.mu_n(),
                    &OPTS,
                    &mut SimRng::new(seed),
                );
                assert_eq!(report.queueing_delay, plain.queueing_delay, "{label}");
                assert_eq!(fingerprint(&report), fingerprint(&plain), "{label}");
                assert_eq!(report.round_trip.count(), OPTS.measured_tasks, "{label}");
                assert_eq!(report.return_wait.count(), OPTS.measured_tasks, "{label}");
                assert!(report.round_trip.min() > 0.0, "{label}");
            }
        }
    }
}

/// With a return network that never blocks, a round trip is the delay plus
/// one transmission, one service and one return time: the mean lands
/// within four standard errors of `d + 1/µn + 1/µs + 1/µr`.
#[test]
fn an_instant_return_adds_exactly_the_three_stage_means() {
    for (config, build) in networks() {
        let cfg: SystemConfig = config.parse().expect("valid");
        let w = Workload::for_intensity(&cfg, 0.5, 0.1).expect("valid");
        let mu_r = 2.0 * w.mu_n();
        for seed in [4, 5, 6] {
            let report = simulate_round_trip(
                build().as_mut(),
                &mut InstantReturn,
                &w,
                mu_r,
                &OPTS,
                &mut SimRng::new(seed),
            );
            assert_eq!(
                report.return_wait.max(),
                0.0,
                "an instant return never waits"
            );
            let stages = [w.mu_n(), w.mu_s(), mu_r];
            let expect = report.mean_delay() + stages.iter().map(|mu| 1.0 / mu).sum::<f64>();
            let sd: f64 = stages.iter().map(|mu| 1.0 / (mu * mu)).sum::<f64>().sqrt();
            let bound = 4.0 * sd / (OPTS.measured_tasks as f64).sqrt();
            let got = report.round_trip.mean();
            assert!(
                (got - expect).abs() < bound,
                "{} seed {seed}: round trip {got} vs {expect} ± {bound}",
                build().label()
            );
        }
    }
}
