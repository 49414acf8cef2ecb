//! Safety-invariant stress tests (CI `broker-smoke`): every discipline is
//! driven by real contending threads while an independent [`Ledger`] audits
//! exclusivity, and every run is bounded by the load generator's stop
//! watchdog — a hung broker fails, it does not hang the suite.
//!
//! Timing-sensitive: the tests serialize on a static mutex so a single-core
//! host never runs two multi-threaded runs at once.

use rsin_broker::{
    run, Arrival, Broker, LoadConfig, OmegaBroker, SbusBroker, XbarBroker, XbarPolicy,
};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn disciplines(workers: usize, resources: usize) -> Vec<(&'static str, Box<dyn Broker>)> {
    vec![
        ("SBUS", Box::new(SbusBroker::new(workers, resources))),
        (
            "XBAR/fixed",
            Box::new(XbarBroker::new(
                workers,
                resources,
                XbarPolicy::FixedPriority,
            )),
        ),
        (
            "XBAR/token",
            Box::new(XbarBroker::new(
                workers,
                resources,
                XbarPolicy::TokenRotation,
            )),
        ),
        ("OMEGA", Box::new(OmegaBroker::new(workers, resources))),
    ]
}

/// Each resource has at most one holder at a time, under saturation, for
/// every discipline — checked by the ledger, not by the broker itself.
#[test]
fn saturation_preserves_exclusivity_and_makes_progress() {
    let _guard = serial();
    for (name, broker) in disciplines(8, 3) {
        let saturated = Arrival::Saturated {
            hold: Duration::from_micros(200),
            run_for: Duration::from_millis(350),
        };
        let report = run(broker.as_ref(), &saturated, None);
        assert_eq!(report.violations, 0, "{name}: exclusivity violated");
        assert!(
            report.total_grants() > 100,
            "{name}: only {} grants under saturation",
            report.total_grants()
        );
    }
}

/// Fair disciplines leave no worker empty-handed even at saturation.
/// (Fixed-priority XBAR is *supposed* to starve high rows — that behavior
/// has its own regression in `tests/fairness.rs`. OMEGA's claim-or-retry
/// arbitration carries no queue-order state at all, so under sustained
/// saturation a fresh releaser can re-win the race against sleeping
/// waiters indefinitely — unfairness is a documented property of the
/// discipline, not a regression; see `omega.rs` module docs.)
#[test]
fn fair_disciplines_serve_every_worker_under_saturation() {
    let _guard = serial();
    for (name, broker) in disciplines(6, 2) {
        if name == "XBAR/fixed" || name == "OMEGA" {
            continue;
        }
        let saturated = Arrival::Saturated {
            hold: Duration::from_micros(200),
            run_for: Duration::from_millis(400),
        };
        let report = run(broker.as_ref(), &saturated, None);
        assert_eq!(report.violations, 0, "{name}: exclusivity violated");
        let grants = report.grants();
        for (w, &g) in grants.iter().enumerate() {
            assert!(g > 0, "{name}: worker {w} starved ({grants:?})");
        }
    }
}

/// Open-loop Poisson runs complete without abandonment (every acquire
/// eventually completes — the liveness invariant) and with a clean audit.
#[test]
fn open_loop_runs_drain_cleanly() {
    let _guard = serial();
    for (name, broker) in disciplines(6, 2) {
        let mut cfg = LoadConfig::new(0.2, 1.0); // ρ = 6·0.2 / (2·1) = 0.6
        cfg.scale_us = 800.0;
        cfg.warmup = 15.0;
        cfg.duration = 120.0;
        cfg.drain = 60.0;
        cfg.seed = 0xBEEF;
        let report = run(broker.as_ref(), &Arrival::Poisson(cfg), None);
        assert_eq!(report.violations, 0, "{name}: exclusivity violated");
        assert_eq!(report.abandoned(), 0, "{name}: acquires left hanging");
        assert_eq!(
            report.measured(),
            report.offered(),
            "{name}: measured tasks lost"
        );
        assert!(report.measured() > 50, "{name}: run too small to trust");
        assert_eq!(
            report.hist().count(),
            report.measured(),
            "{name}: shard skew"
        );
        assert!(report.mean_delay() >= 0.0, "{name}: negative delay");
    }
}

/// The degenerate µ_n → ∞ run and a finite-µ_n run both audit clean on the
/// bus discipline, whose end_transmission path is the subtle one.
#[test]
fn sbus_transmission_phase_audits_clean() {
    let _guard = serial();
    for mu_n in [None, Some(4.0)] {
        let broker = SbusBroker::new(6, 2);
        let mut cfg = LoadConfig::new(0.15, 1.0);
        cfg.mu_n = mu_n;
        cfg.scale_us = 800.0;
        cfg.warmup = 15.0;
        cfg.duration = 100.0;
        cfg.drain = 60.0;
        cfg.seed = 7;
        let report = run(&broker, &Arrival::Poisson(cfg), None);
        assert_eq!(report.violations, 0, "mu_n {mu_n:?}: exclusivity violated");
        assert_eq!(
            report.abandoned(),
            0,
            "mu_n {mu_n:?}: acquires left hanging"
        );
        assert!(report.measured() > 40, "mu_n {mu_n:?}: run too small");
    }
}
