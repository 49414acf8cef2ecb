//! Headline cross-validation: the runtime broker's *measured* mean grant
//! delay must agree with the workspace's predictive stack — the DES (with
//! a replication confidence interval), the exact `SharedBusChain`, and
//! M/M/r in the µ_n → ∞ degenerate limit.
//!
//! ## Tolerances (DESIGN.md §8)
//!
//! The broker runs on a wall clock, so two measurement effects are
//! budgeted explicitly on top of the statistical terms:
//!
//! - **Sampling error**: the broker's own `2·SE` plus the DES replication
//!   CI half-width.
//! - **Poll resolution**: a blocked acquire re-examines the world at worst
//!   every `Waiter::MAX_SLEEP` (200 µs), so measured delays carry a
//!   positive floor of roughly one poll interval. `POLL_SLACK_US` converts
//!   that to model units at the configured time scale.
//!
//! The M/M/r check runs at ρ = 0.8 with a 10 ms/unit scale precisely so
//! the 5% criterion dwarfs the poll floor.
//!
//! Timing-sensitive: serialized on a static mutex, single-core friendly.

use rsin_broker::{run, Arrival, LoadConfig, SbusBroker};
use rsin_core::{simulate, SimOptions, Workload};
use rsin_des::{replicate, SimRng};
use rsin_queueing::{Mmr, SharedBusChain, SharedBusParams};
use rsin_sbus::{Arbitration, SharedBusNetwork};
use std::sync::{Mutex, MutexGuard, PoisonError};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

const P: usize = 8;
const R: usize = 2;
const MU_S: f64 = 1.0;

/// Measurement floor from the broker's bounded poll interval, in wall µs
/// (≈ 2 × `Waiter::MAX_SLEEP`).
const POLL_SLACK_US: f64 = 400.0;

/// At matched offered load ρ ∈ {0.2, 0.5, 0.8}, the SBUS broker's mean
/// grant delay falls inside the DES replication interval (plus the
/// broker's own sampling error and the poll floor), and tracks the exact
/// Markov chain the same way.
#[test]
fn sbus_broker_matches_des_and_chain_across_rho() {
    let _guard = serial();
    let mu_n = 4.0;
    // Capacity of the bus–resource pipeline: the chain's saturation
    // throughput µ_n·(1 − B(µ_n/µ_s, r)), probed with a vanishing load.
    let cap = SharedBusChain::new(SharedBusParams {
        processors: P as u32,
        resources: R as u32,
        lambda: 1e-9,
        mu_n,
        mu_s: MU_S,
    })
    .expect("stable at vanishing load")
    .saturation_throughput();
    // Replications per ρ: delays at high load are strongly autocorrelated
    // (integrated autocorrelation ~ tens of tasks near saturation), so a
    // single run's iid standard error understates the true sampling error
    // badly. Independent replications restore an honest spread — the same
    // reason `replicate` exists on the DES side.
    for (rho, warmup, duration, reps) in [
        (0.2, 40.0, 1500.0, 1u64),
        (0.5, 100.0, 1200.0, 1),
        (0.8, 200.0, 900.0, 4),
    ] {
        // ρ is offered load relative to that capacity — exactly the chain's
        // `utilization()`, so ρ → 1 is saturation of *this* system. (Naive
        // dials like p·λ/(r·µ_s) overshoot: the coupled pipeline saturates
        // below the bare resource capacity, and an "ρ = 0.8" chosen that
        // way is already unstable.)
        let lambda = rho * cap / P as f64;

        // DES prediction with a replication confidence interval.
        let workload = Workload::new(lambda, mu_n, MU_S).expect("valid workload");
        let opts = SimOptions {
            warmup_tasks: 2_000,
            measured_tasks: 15_000,
        };
        let des = replicate(&SimRng::new(0xC0FE), 5, 0.95, |_, mut rng| {
            let mut net = SharedBusNetwork::new(1, P, R as u32, Arbitration::RoundRobin);
            simulate(&mut net, &workload, &opts, &mut rng).mean_delay()
        });
        let interval = des.interval.expect("5 replications");

        // Exact chain prediction.
        let chain = SharedBusChain::new(SharedBusParams {
            processors: P as u32,
            resources: R as u32,
            lambda,
            mu_n,
            mu_s: MU_S,
        })
        .expect("stable")
        .solve()
        .expect("solves")
        .mean_queue_delay;

        // The measured artifact: `reps` independent broker runs.
        let mut means = Vec::new();
        let mut iid_se = 0.0;
        let mut measured = 0u64;
        for rep in 0..reps {
            let mut cfg = LoadConfig::new(lambda, MU_S);
            cfg.mu_n = Some(mu_n);
            cfg.scale_us = 3_000.0;
            cfg.warmup = warmup;
            cfg.duration = duration;
            cfg.drain = 80.0;
            cfg.seed = 0x5B05 + (rho * 10.0) as u64 + rep * 0x1000;
            let broker = SbusBroker::new(P, R);
            let report = run(&broker, &Arrival::Poisson(cfg), None);
            assert_eq!(report.violations, 0, "rho {rho}: exclusivity violated");
            assert!(
                report.abandoned() <= report.offered() / 100,
                "rho {rho}: {} of {} acquires abandoned",
                report.abandoned(),
                report.offered()
            );
            means.push(report.mean_delay());
            iid_se = report.delay().std_error();
            measured += report.measured();
        }
        let k = means.len() as f64;
        let d = means.iter().sum::<f64>() / k;
        let se = if means.len() > 1 {
            let var = means.iter().map(|m| (m - d).powi(2)).sum::<f64>() / (k - 1.0);
            (var / k).sqrt()
        } else {
            iid_se
        };
        let slack = POLL_SLACK_US / 3_000.0;
        let tol = interval.half_width + 2.0 * se + slack;
        eprintln!(
            "rho {rho}: broker d = {d:.4} (n = {measured}, reps {reps}, se = {se:.4}, \
             means {means:.4?}), DES = {:.4} ± {:.4}, chain = {chain:.4}, tol = {tol:.4}",
            interval.mean, interval.half_width,
        );
        assert!(
            (d - interval.mean).abs() <= tol,
            "rho {rho}: broker {d:.4} vs DES {:.4} ± {:.4} (tol {tol:.4})",
            interval.mean,
            interval.half_width
        );
        assert!(
            (d - chain).abs() <= tol + (chain - interval.mean).abs(),
            "rho {rho}: broker {d:.4} vs chain {chain:.4}"
        );
    }
}

/// In the µ_n → ∞ degenerate limit the ticket-FIFO bus is exactly an
/// M/M/r queue: at ρ = 0.8 the measured mean delay must land within 5% of
/// `Mmr::mean_wait_in_queue` (plus the broker's 2·SE sampling guard).
#[test]
fn mmr_degenerate_limit_within_five_percent() {
    let _guard = serial();
    let rho = 0.8;
    let lambda = rho * R as f64 * MU_S / P as f64; // per-worker
    let predicted = Mmr::new(P as f64 * lambda, MU_S, R as u32)
        .expect("stable")
        .mean_wait_in_queue();

    let mut cfg = LoadConfig::new(lambda, MU_S);
    cfg.mu_n = None;
    cfg.scale_us = 10_000.0;
    cfg.warmup = 250.0;
    cfg.duration = 1_000.0;
    cfg.drain = 120.0;
    cfg.seed = 0x3A11;
    let broker = SbusBroker::new(P, R);
    let report = run(&broker, &Arrival::Poisson(cfg), None);
    assert_eq!(report.violations, 0, "exclusivity violated");
    assert!(
        report.abandoned() <= report.offered() / 100,
        "{} of {} acquires abandoned",
        report.abandoned(),
        report.offered()
    );

    let d = report.mean_delay();
    let se = report.delay().std_error();
    let tol = 0.05 * predicted + 2.0 * se;
    eprintln!(
        "M/M/{R}: broker d = {d:.4} (n = {}, se = {se:.4}) vs Wq = {predicted:.4}, tol = {tol:.4}",
        report.measured()
    );
    assert!(
        (d - predicted).abs() <= tol,
        "broker {d:.4} vs M/M/{R} Wq {predicted:.4} (tol {tol:.4})"
    );
}
