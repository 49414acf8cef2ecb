//! Degraded-mode cross-validation: under an *identical* resource-outage
//! realization, the runtime broker's measured mean grant delay must agree
//! with `simulate_faulty` for all three disciplines, within the honest
//! tolerance methodology of DESIGN.md §8.
//!
//! ## Identical fault realization
//!
//! Both sides must see the *same* outages, not just the same MTBF/MTTR
//! process: a different draw of the fail/repair times changes the mean
//! delay by far more than the statistical tolerance. So the stochastic
//! `mtbf`/`mttr` process is materialized **once** (via
//! `FaultTimeline::drain_until`) into a *scripted* [`FaultPlan`] — a fixed
//! list of fail/repair instants — and that scripted plan is fed verbatim
//! to both `simulate_faulty` and the broker's chaos supervisor. Scripted
//! events consume no randomness, so every DES replication and every broker
//! repetition degrades on exactly the same schedule while keeping its own
//! independent arrival/service randomness.
//!
//! ## Why mean delay, not raw throughput
//!
//! In a stable open-loop run the completed throughput equals the offered
//! rate on both sides by construction — it cannot discriminate. The
//! statistic an outage actually moves is the *delay inflation* from the
//! capacity dips (and their queue-drain tails), so that is what is
//! compared. (Degraded *saturated* throughput — where outages do move the
//! grant rate — is recorded by the perf harness as `broker_resilience`.)
//!
//! ## Tolerance (DESIGN.md §8, plus one model-difference term)
//!
//! DES replication CI half-width + 2·(broker across-rep SE) + the poll
//! floor, plus an explicit casualty-semantics allowance: the DES aborts
//! and requeues tasks in service at a failing resource (they redo the
//! full acquire–transmit–serve cycle, after backoff), while the broker
//! parks the fault until the holder's release. A handful of tasks per
//! outage therefore see genuinely different service; the allowance is
//! budgeted per outage, not hidden in a fudge factor.
//!
//! Timing-sensitive: serialized on a static mutex, single-core friendly.

use rsin_broker::{
    run, Arrival, Broker, ChaosOptions, ChaosPlan, LoadConfig, OmegaBroker, SbusBroker, XbarBroker,
    XbarPolicy,
};
use rsin_core::{simulate_faulty, FaultOptions, SimOptions, Workload};
use rsin_des::{
    replicate, FaultAction, FaultEvent, FaultPlan, FaultTarget, SimRng, SimTime, StochasticFault,
};
use rsin_omega::{Admission, OmegaNetwork};
use rsin_queueing::{SharedBusChain, SharedBusParams};
use rsin_sbus::{Arbitration, SharedBusNetwork};
use rsin_xbar::{CrossbarNetwork, CrossbarPolicy};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Measurement floor from the broker's bounded poll interval, in wall µs
/// (≈ 2 × `Waiter::MAX_SLEEP`) — same budget as `cross_validation.rs`.
const POLL_SLACK_US: f64 = 400.0;

/// Long on purpose: at these time scales a short lease would truncate the
/// exponential service tail (the supervisor would evict *legitimate*
/// holders whose service draw exceeds the lease), silently raising the
/// broker's capacity and deflating its queueing. 100 ms ≥ 40 model units
/// at every scale used here, so P(service > lease) is negligible; the
/// supervisor still polls every 2 ms (the clamp), which is what applies
/// the fault schedule promptly.
const LEASE: Duration = Duration::from_millis(100);

/// Outage process shared by every discipline: exponential up-times of
/// mean 70 and repairs of mean 25 model units, per faulted resource.
const MTBF: f64 = 70.0;
const MTTR: f64 = 25.0;

/// Materializes the stochastic outage process into a *scripted* plan:
/// the prefix of the realization inside `horizon`, with any outage still
/// open at the horizon closed by a scripted repair, so the run's tail can
/// drain and a final-repair edge never straddles the measurement end.
fn scripted_outages(seed: u64, targets: &[usize], horizon: f64) -> FaultPlan {
    let mut process = FaultPlan::new();
    for &t in targets {
        process = process.stochastic(StochasticFault {
            target: FaultTarget::Resource(t),
            mtbf: MTBF,
            mttr: MTTR,
        });
    }
    let mut rng = SimRng::new(seed);
    let mut timeline = process.timeline(&mut rng);
    let mut plan = FaultPlan::new();
    let mut open: Vec<usize> = Vec::new();
    for event in timeline.drain_until(SimTime::new(horizon)) {
        plan = plan.scripted(event);
        if let FaultTarget::Resource(r) = event.target {
            match event.action {
                FaultAction::Fail => open.push(r),
                FaultAction::Repair => open.retain(|&x| x != r),
            }
        }
    }
    let closing = open.len();
    for r in open {
        plan = plan.repair_at(SimTime::new(horizon), FaultTarget::Resource(r));
    }
    assert!(
        !plan.is_empty(),
        "the realization must contain at least one outage (closed {closing} at horizon)"
    );
    plan
}

/// Duplicates every event of a scripted plan onto resources `0..pool`.
///
/// The DES's `FaultTarget::Resource` is *pool*-granular for the shared
/// bus: `fail_resource(0)` downs the whole resource pool behind bus 0,
/// while the broker faults individual resources. Replaying the identical
/// physical scenario therefore requires fanning each DES event out to
/// every resource of the pool on the broker side.
fn fan_out_to_pool(plan: &FaultPlan, pool: usize) -> FaultPlan {
    let mut rng = SimRng::new(0); // scripted events consume no randomness
    let mut timeline = plan.timeline(&mut rng);
    let mut out = FaultPlan::new();
    for e in timeline.drain_until(SimTime::new(1e18)) {
        for r in 0..pool {
            out = out.scripted(FaultEvent {
                time: e.time,
                target: FaultTarget::Resource(r),
                action: e.action,
            });
        }
    }
    out
}

/// Counts the fail events of a scripted plan (for the casualty allowance).
fn count_outages(plan: &FaultPlan) -> usize {
    let mut rng = SimRng::new(0); // scripted events consume no randomness
    let mut timeline = plan.timeline(&mut rng);
    timeline
        .drain_until(SimTime::new(1e18))
        .iter()
        .filter(|e| e.action == FaultAction::Fail)
        .count()
}

struct BrokerSide {
    mean: f64,
    se: f64,
    measured: u64,
}

/// `reps` independent degraded broker runs (fresh broker each, same
/// scripted outage plan, different arrival seeds); across-rep SE.
fn degraded_broker_runs<B: Broker, F: Fn() -> B>(
    make: F,
    cfg0: &LoadConfig,
    opts: &ChaosOptions,
    reps: u64,
    resources: usize,
    name: &str,
) -> BrokerSide {
    let mut means = Vec::new();
    let mut iid_se = 0.0;
    let mut measured = 0u64;
    for rep in 0..reps {
        let mut cfg = *cfg0;
        cfg.seed = cfg0.seed + rep * 0x1000;
        let broker = make();
        let report = run(&broker, &Arrival::Poisson(cfg), Some(opts));
        let chaos = report.chaos.as_ref().expect("chaos accounting");
        assert_eq!(
            report.violations, 0,
            "{name} rep {rep}: exclusivity violated"
        );
        assert!(
            report.abandoned() <= report.offered() / 50,
            "{name} rep {rep}: {} of {} acquires abandoned",
            report.abandoned(),
            report.offered()
        );
        assert_eq!(
            chaos.available_at_end, resources,
            "{name} rep {rep}: resources leaked"
        );
        assert_eq!(
            chaos.ledger_held_at_end, 0,
            "{name} rep {rep}: ledger still holds grants"
        );
        means.push(report.mean_delay());
        iid_se = report.delay().std_error();
        measured += report.measured();
    }
    let k = means.len() as f64;
    let mean = means.iter().sum::<f64>() / k;
    let se = if means.len() > 1 {
        let var = means.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / (k - 1.0);
        (var / k).sqrt()
    } else {
        iid_se
    };
    BrokerSide { mean, se, measured }
}

/// The shared assertion: |broker − DES| within half-width + 2·SE + poll
/// floor + casualty allowance.
#[allow(clippy::too_many_arguments)]
fn assert_degraded_agreement(
    name: &str,
    des_mean: f64,
    des_half_width: f64,
    broker: &BrokerSide,
    scale_us: f64,
    outages: usize,
    tasks_per_run: f64,
    healthy_mean: f64,
) {
    let slack = POLL_SLACK_US / scale_us;
    // Casualty allowance: per outage, at most a couple of in-service
    // tasks differ between abort-and-redo (DES) and run-to-completion
    // (broker); each can move its own delay by roughly one healthy mean
    // residence. Spread over the measured tasks of a run, that bounds the
    // mean shift at ~2·outages·healthy_mean / tasks.
    let casualty = 2.0 * outages as f64 * healthy_mean.max(1.0) / tasks_per_run;
    let tol = des_half_width + 2.0 * broker.se + slack + casualty;
    eprintln!(
        "{name}: broker d = {:.4} (n = {}, se = {:.4}) vs faulty DES {des_mean:.4} ± \
         {des_half_width:.4}; tol = {tol:.4} (slack {slack:.4}, casualty {casualty:.4}, \
         {outages} outages)",
        broker.mean, broker.measured, broker.se,
    );
    assert!(
        (broker.mean - des_mean).abs() <= tol,
        "{name}: degraded broker {:.4} vs faulty DES {des_mean:.4} ± {des_half_width:.4} \
         (tol {tol:.4})",
        broker.mean
    );
}

/// SBUS at ρ = 0.55 with one of two resources failing (ρ_eff ≈ 1.1 during
/// outages): delay inflates visibly, and broker and DES agree on it.
#[test]
fn sbus_degraded_agrees_with_faulty_des() {
    let _guard = serial();
    let p = 8;
    let r = 2usize;
    let mu_n = 4.0;
    let mu_s = 1.0;
    let cap = SharedBusChain::new(SharedBusParams {
        processors: p as u32,
        resources: r as u32,
        lambda: 1e-9,
        mu_n,
        mu_s,
    })
    .expect("stable at vanishing load")
    .saturation_throughput();
    let lambda = 0.55 * cap / p as f64;

    let warmup = 80.0;
    let duration = 600.0;
    let fault_horizon = warmup + 0.8 * duration;
    let plan = scripted_outages(0xFA17, &[0], fault_horizon);
    let outages = count_outages(&plan);

    // DES, replicated: same scripted outages, independent arrivals.
    let workload = Workload::new(lambda, mu_n, mu_s).expect("valid workload");
    let tasks = (p as f64 * lambda * duration).round();
    let opts = SimOptions {
        warmup_tasks: (p as f64 * lambda * warmup).round() as u64,
        measured_tasks: tasks as u64,
    };
    let fopts = FaultOptions::default();
    let des = replicate(&SimRng::new(0xD15B), 5, 0.95, |_, mut rng| {
        let mut net = SharedBusNetwork::new(1, p, r as u32, Arbitration::RoundRobin);
        simulate_faulty(&mut net, &workload, &opts, &plan, &fopts, &mut rng)
            .expect("faulty run completes")
            .mean_delay()
    });
    let interval = des.interval.expect("5 replications");
    // Healthy DES point estimate, for the casualty allowance scale.
    let mut healthy_rng = SimRng::new(0xD15B);
    let healthy = {
        let mut net = SharedBusNetwork::new(1, p, r as u32, Arbitration::RoundRobin);
        rsin_core::simulate(&mut net, &workload, &opts, &mut healthy_rng).mean_delay()
    };

    // Broker under the same scripted outages — fanned out to the whole
    // pool, because the DES shared-bus resource fault is pool-granular
    // (see `fan_out_to_pool`). The generous drain lets the total-outage
    // backlog clear before the leak audit.
    let mut cfg = LoadConfig::new(lambda, mu_s);
    cfg.mu_n = Some(mu_n);
    cfg.scale_us = 2_500.0;
    cfg.warmup = warmup;
    cfg.duration = duration;
    cfg.drain = 250.0;
    cfg.seed = 0x5B05;
    let mut chaos = ChaosOptions::new(ChaosPlan::new(), LEASE);
    chaos.faults = fan_out_to_pool(&plan, r);
    let broker = degraded_broker_runs(
        || SbusBroker::with_lease(p, r, LEASE),
        &cfg,
        &chaos,
        3,
        r,
        "sbus",
    );

    assert_degraded_agreement(
        "sbus",
        interval.mean,
        interval.half_width,
        &broker,
        cfg.scale_us,
        outages,
        tasks,
        healthy + mu_n.recip() + mu_s.recip(),
    );
    assert!(
        interval.mean > healthy,
        "outages must inflate the DES delay ({:.4} vs healthy {healthy:.4}) — \
         else this test validates nothing",
        interval.mean
    );
}

/// Crossbar (fixed priority both sides) at near-M/M/2 geometry — short
/// transmissions, one resource per column — with column 0's resource on
/// the outage schedule.
#[test]
fn xbar_degraded_agrees_with_faulty_des() {
    let _guard = serial();
    let p = 8;
    let columns = 2usize;
    let mu_n = 200.0; // transmissions ≈ 0: broker and DES column pipelining coincide
    let mu_s = 1.0;
    let lambda = 0.55 * columns as f64 * mu_s / p as f64;

    let warmup = 80.0;
    let duration = 600.0;
    let fault_horizon = warmup + 0.8 * duration;
    let plan = scripted_outages(0xFA18, &[0], fault_horizon);
    let outages = count_outages(&plan);

    let workload = Workload::new(lambda, mu_n, mu_s).expect("valid workload");
    let tasks = (p as f64 * lambda * duration).round();
    let opts = SimOptions {
        warmup_tasks: (p as f64 * lambda * warmup).round() as u64,
        measured_tasks: tasks as u64,
    };
    let fopts = FaultOptions::default();
    let des = replicate(&SimRng::new(0xD15C), 5, 0.95, |_, mut rng| {
        let mut net = CrossbarNetwork::new(1, p, columns, 1, CrossbarPolicy::FixedPriority);
        simulate_faulty(&mut net, &workload, &opts, &plan, &fopts, &mut rng)
            .expect("faulty run completes")
            .mean_delay()
    });
    let interval = des.interval.expect("5 replications");
    let mut healthy_rng = SimRng::new(0xD15C);
    let healthy = {
        let mut net = CrossbarNetwork::new(1, p, columns, 1, CrossbarPolicy::FixedPriority);
        rsin_core::simulate(&mut net, &workload, &opts, &mut healthy_rng).mean_delay()
    };

    let mut cfg = LoadConfig::new(lambda, mu_s);
    cfg.mu_n = Some(mu_n);
    cfg.scale_us = 2_500.0;
    cfg.warmup = warmup;
    cfg.duration = duration;
    cfg.drain = 120.0;
    cfg.seed = 0x5B06;
    let mut chaos = ChaosOptions::new(ChaosPlan::new(), LEASE);
    chaos.faults = plan.clone();
    let broker = degraded_broker_runs(
        || XbarBroker::with_lease(p, columns, XbarPolicy::FixedPriority, LEASE),
        &cfg,
        &chaos,
        3,
        columns,
        "xbar",
    );

    assert_degraded_agreement(
        "xbar",
        interval.mean,
        interval.half_width,
        &broker,
        cfg.scale_us,
        outages,
        tasks,
        healthy + mu_n.recip() + mu_s.recip(),
    );
    assert!(
        interval.mean > healthy,
        "outages must inflate the DES delay ({:.4} vs healthy {healthy:.4})",
        interval.mean
    );
}

/// Omega 8×8 (staggered admission — the DES mode closest to the broker's
/// asynchronous retry protocol) with three of eight port resources on the
/// outage schedule.
#[test]
fn omega_degraded_agrees_with_faulty_des() {
    let _guard = serial();
    let p = 8;
    let size = 8usize;
    let mu_n = 200.0;
    let mu_s = 1.0;
    let lambda = 0.55;

    let warmup = 60.0;
    let duration = 300.0;
    let fault_horizon = warmup + 0.8 * duration;
    let plan = scripted_outages(0xFA19, &[0, 3, 5], fault_horizon);
    let outages = count_outages(&plan);

    let workload = Workload::new(lambda, mu_n, mu_s).expect("valid workload");
    let tasks = (p as f64 * lambda * duration).round();
    let opts = SimOptions {
        warmup_tasks: (p as f64 * lambda * warmup).round() as u64,
        measured_tasks: tasks as u64,
    };
    let fopts = FaultOptions::default();
    let des = replicate(&SimRng::new(0xD15D), 5, 0.95, |_, mut rng| {
        let mut net = OmegaNetwork::new(1, size, 1, Admission::Staggered);
        simulate_faulty(&mut net, &workload, &opts, &plan, &fopts, &mut rng)
            .expect("faulty run completes")
            .mean_delay()
    });
    let interval = des.interval.expect("5 replications");
    let mut healthy_rng = SimRng::new(0xD15D);
    let healthy = {
        let mut net = OmegaNetwork::new(1, size, 1, Admission::Staggered);
        rsin_core::simulate(&mut net, &workload, &opts, &mut healthy_rng).mean_delay()
    };

    let mut cfg = LoadConfig::new(lambda, mu_s);
    cfg.mu_n = Some(mu_n);
    cfg.scale_us = 1_200.0;
    cfg.warmup = warmup;
    cfg.duration = duration;
    cfg.drain = 60.0;
    cfg.seed = 0x5B07;
    let mut chaos = ChaosOptions::new(ChaosPlan::new(), LEASE);
    chaos.faults = plan.clone();
    let broker = degraded_broker_runs(
        || OmegaBroker::with_lease(p, size, LEASE),
        &cfg,
        &chaos,
        3,
        size,
        "omega",
    );

    assert_degraded_agreement(
        "omega",
        interval.mean,
        interval.half_width,
        &broker,
        cfg.scale_us,
        outages,
        tasks,
        healthy + mu_n.recip() + mu_s.recip(),
    );
}
