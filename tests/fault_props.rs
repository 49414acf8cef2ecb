//! Property-based tests of the fault-injection invariants, exercised
//! end-to-end through all three RSIN classes (shared bus, crossbar,
//! Omega) plus the centralized baseline:
//!
//! * **conservation** — no task is silently lost: every arrival is either
//!   completed, still queued, or still in flight when the run ends, under
//!   arbitrary stochastic fail/repair schedules;
//! * **counter monotonicity** — a repair is only ever recorded against an
//!   earlier failure;
//! * **capacity restoration** — failing and repairing every resource pool
//!   and element leaves the network able to hold exactly as many
//!   simultaneous allocations as a never-faulted twin;
//! * **the pool contract** — [`PortPool`], which every network keeps its
//!   per-port resource state in, follows the fault contract after every
//!   operation of a random sequence, and its packed status words always
//!   equal the scalar predicate.

use rsin::core::{
    simulate_faulty, FaultOptions, PortPool, ResourceNetwork, SimError, SimOptions, Workload,
};
use rsin::des::{FaultPlan, FaultTarget, SimRng, StochasticFault};
use rsin::omega::{Admission, CentralOmegaNetwork, OmegaNetwork};
use rsin::sbus::{Arbitration, SharedBusNetwork};
use rsin::xbar::{CrossbarNetwork, CrossbarPolicy};
use rsin_minicheck::{check, Gen};

/// Builds one randomly sized network of each class.
fn build_networks(g: &mut Gen) -> Vec<Box<dyn ResourceNetwork>> {
    let sbus = SharedBusNetwork::new(
        g.usize_in(1, 3),
        g.usize_in(1, 4),
        g.u32_in(1, 3),
        Arbitration::FixedPriority,
    );
    let xbar = CrossbarNetwork::new(
        g.usize_in(1, 2),
        g.usize_in(1, 4),
        g.usize_in(1, 4),
        g.u32_in(1, 3),
        CrossbarPolicy::FixedPriority,
    );
    let omega = OmegaNetwork::new(
        g.usize_in(1, 2),
        1 << g.u32_in(1, 3),
        g.u32_in(1, 2),
        Admission::Simultaneous,
    );
    let central =
        CentralOmegaNetwork::new(1 << g.u32_in(1, 3), g.u32_in(1, 2)).expect("power of two");
    vec![
        Box::new(sbus),
        Box::new(xbar),
        Box::new(omega),
        Box::new(central),
    ]
}

/// A stochastic plan hitting a random subset of resources and elements.
fn random_plan(g: &mut Gen, net: &dyn ResourceNetwork) -> FaultPlan {
    let mut plan = FaultPlan::new();
    let processes = g.usize_in(1, 3);
    for _ in 0..processes {
        let target = if g.bool() && net.fault_elements() > 0 {
            FaultTarget::Element(g.usize_in(0, net.fault_elements()))
        } else {
            FaultTarget::Resource(g.usize_in(0, net.total_resources()))
        };
        plan = plan.stochastic(StochasticFault {
            target,
            mtbf: g.f64_in(0.5, 5.0),
            mttr: g.f64_in(0.1, 2.0),
        });
    }
    plan
}

/// How many allocations the network can hold at once: grant and complete
/// transmissions until nothing more is grantable. A healthy network ends
/// with every reachable resource busy.
fn saturate(net: &mut dyn ResourceNetwork, seed: u64) -> usize {
    let mut rng = SimRng::new(seed);
    let p = net.processors();
    let mut total = 0;
    loop {
        let grants = net.request_cycle(&vec![true; p], &mut rng);
        if grants.is_empty() {
            break;
        }
        for grant in grants {
            net.end_transmission(grant);
            total += 1;
        }
        assert!(total <= net.total_resources(), "over-allocation");
    }
    total
}

#[test]
fn no_task_is_silently_lost_under_stochastic_faults() {
    check(24, |g| {
        let seed = g.u64();
        for mut net in build_networks(g) {
            let plan = random_plan(g, net.as_ref());
            let workload = Workload::new(g.f64_in(0.05, 0.4) * net.processors() as f64, 10.0, 1.0)
                .expect("valid workload");
            let opts = SimOptions {
                warmup_tasks: 50,
                measured_tasks: 400,
            };
            let mut rng = SimRng::new(seed);
            match simulate_faulty(
                net.as_mut(),
                &workload,
                &opts,
                &plan,
                &FaultOptions::default(),
                &mut rng,
            ) {
                Ok(report) => {
                    assert_eq!(
                        report.arrivals,
                        report.completions + report.queued_at_end + report.in_flight_at_end,
                        "{}: task conservation",
                        net.label()
                    );
                }
                Err(SimError::Stalled { queued, .. }) => {
                    // The watchdog fired instead of hanging: acceptable for
                    // fault schedules that starve the system, but a stall
                    // must have stranded work by definition.
                    assert!(queued > 0, "{}: stall implies queued work", net.label());
                }
            }
        }
    });
}

#[test]
fn fault_counters_never_record_more_repairs_than_failures() {
    check(24, |g| {
        let seed = g.u64();
        for mut net in build_networks(g) {
            let plan = random_plan(g, net.as_ref());
            let workload = Workload::new(0.2 * net.processors() as f64, 10.0, 1.0).expect("valid");
            let opts = SimOptions {
                warmup_tasks: 20,
                measured_tasks: 200,
            };
            let mut rng = SimRng::new(seed);
            let _ = simulate_faulty(
                net.as_mut(),
                &workload,
                &opts,
                &plan,
                &FaultOptions::default(),
                &mut rng,
            );
            let c = net.take_counters();
            assert!(
                c.resource_repairs <= c.resource_failures,
                "{}: resource repairs {} > failures {}",
                net.label(),
                c.resource_repairs,
                c.resource_failures
            );
            assert!(
                c.element_repairs <= c.element_failures,
                "{}: element repairs {} > failures {}",
                net.label(),
                c.element_repairs,
                c.element_failures
            );
        }
    });
}

#[test]
fn repair_restores_pre_fault_capacity() {
    check(24, |g| {
        let seed = g.u64();
        let mut fresh = build_networks(g);
        // Rebuild identical twins: Gen is deterministic per case, so replay
        // the same dimension draws by saving them via a second pass is not
        // possible — instead, fail/repair the *same* instance and compare
        // against its own pre-fault saturation measured on the twin below.
        for net in &mut fresh {
            let net = net.as_mut();
            // Measure healthy capacity first (leaves resources busy), then
            // drain by ending every service.
            let healthy = saturate(net, seed);
            // Knock everything over, then repair everything.
            for port in 0..net.total_resources() {
                net.fail_resource(port);
            }
            for e in 0..net.fault_elements() {
                net.fail_element(e);
            }
            for port in 0..net.total_resources() {
                net.repair_resource(port);
            }
            for e in 0..net.fault_elements() {
                net.repair_element(e);
            }
            // Failing every pool cleared all the busy counts, so the
            // repaired network starts idle: it must saturate to exactly
            // the healthy capacity again.
            let repaired = saturate(net, seed);
            assert_eq!(
                healthy,
                repaired,
                "{}: capacity after full fail/repair cycle",
                net.label()
            );
        }
    });
}

#[test]
fn scripted_total_outage_and_recovery_round_trips() {
    // Deterministic end-to-end: kill every pool early, repair midway; the
    // run must complete (no stall) and conserve tasks.
    check(12, |g| {
        let seed = g.u64();
        for mut net in build_networks(g) {
            let mut plan = FaultPlan::new();
            for port in 0..net.total_resources() {
                plan = plan
                    .fail_at(rsin::des::SimTime::new(0.5), FaultTarget::Resource(port))
                    .repair_at(rsin::des::SimTime::new(2.0), FaultTarget::Resource(port));
            }
            let workload = Workload::new(0.1 * net.processors() as f64, 10.0, 1.0).expect("valid");
            let opts = SimOptions {
                warmup_tasks: 20,
                measured_tasks: 300,
            };
            let mut rng = SimRng::new(seed);
            let report = simulate_faulty(
                net.as_mut(),
                &workload,
                &opts,
                &plan,
                &FaultOptions::default(),
                &mut rng,
            )
            .unwrap_or_else(|e| panic!("{}: outage with repair must recover: {e}", net.label()));
            assert_eq!(
                report.arrivals,
                report.completions + report.queued_at_end + report.in_flight_at_end,
                "{}: task conservation through outage",
                net.label()
            );
        }
    });
}

/// Every port's packed status bit equals the scalar predicate (up with a
/// free resource), and the lanes past the last port stay zero.
fn assert_words_match_scalars(pool: &PortPool) {
    let words = pool.words();
    assert_eq!(words.len(), pool.ports().div_ceil(64), "word count");
    for lane in 0..words.len() * 64 {
        let bit = words[lane / 64] >> (lane % 64) & 1 == 1;
        let scalar = lane < pool.ports() && pool.is_up(lane) && pool.busy(lane) < pool.capacity();
        assert_eq!(bit, scalar, "lane {lane}");
        if lane < pool.ports() {
            assert_eq!(pool.has_free(lane), scalar, "has_free({lane})");
            assert_eq!(pool.free(lane) > 0, scalar, "free({lane})");
        }
    }
}

#[test]
fn port_pool_keeps_the_fault_contract_under_random_operations() {
    check(64, |g| {
        let ports = g.usize_in(1, 130);
        let capacity = g.u32_in(1, 4);
        let mut pool = PortPool::new(ports, capacity);
        assert_words_match_scalars(&pool);
        for _ in 0..400 {
            // Ports past the end probe the range checks.
            let port = g.usize_in(0, ports + 2);
            let before = pool.clone();
            match g.usize_in(0, 4) {
                0 if port < ports && pool.has_free(port) => {
                    pool.occupy(port);
                    assert_eq!(pool.busy(port), before.busy(port) + 1);
                }
                1 if port < ports && !pool.is_up(port) => {
                    pool.vacate(port);
                    assert_eq!(pool, before, "vacate on a downed port is a no-op");
                }
                1 if port < ports && pool.busy(port) > 0 => {
                    pool.vacate(port);
                    assert_eq!(pool.busy(port), before.busy(port) - 1);
                }
                2 => {
                    let accepted = pool.fail(port);
                    assert_eq!(accepted, port < ports && before.is_up(port));
                    if accepted {
                        assert!(!pool.is_up(port));
                        assert_eq!(pool.busy(port), 0, "fail zeroes busy");
                        assert!(!pool.fail(port), "double fail is refused");
                    } else {
                        assert_eq!(pool, before, "a refused fail changes nothing");
                    }
                }
                3 => {
                    let accepted = pool.repair(port);
                    assert_eq!(accepted, port < ports && !before.is_up(port));
                    if accepted {
                        assert!(pool.is_up(port));
                        assert_eq!(pool.free(port), capacity, "full capacity");
                        assert!(!pool.repair(port), "double repair is refused");
                    } else {
                        assert_eq!(pool, before, "a refused repair changes nothing");
                    }
                }
                _ => {}
            }
            assert_words_match_scalars(&pool);
        }
    });
}
