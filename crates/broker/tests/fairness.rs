//! Fairness regression: under saturation, fixed-priority crossbar
//! arbitration starves the highest-index requester while the
//! token-rotation variant bounds every requester's wait — asserted in
//! BOTH the gate-level/DES simulator (`rsin-xbar`) and the runtime broker
//! (`rsin-broker`), so the model and the artifact can never silently
//! diverge on the paper's fairness claim (Section IV's POLYP discussion).

use rsin_broker::{run, Arrival, XbarBroker, XbarPolicy};
use rsin_core::ResourceNetwork;
use rsin_des::SimRng;
use rsin_xbar::{CrossbarFabric, CrossbarNetwork, CrossbarPolicy};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

const WORKERS: usize = 4;
const HOLD: Duration = Duration::from_micros(300);
const RUN: Duration = Duration::from_millis(400);
const SATURATED: Arrival = Arrival::Saturated {
    hold: HOLD,
    run_for: RUN,
};

/// Broker side, baseline: with one column and every row hammering it, the
/// fixed-priority wave never ranks row 3 first while a lower row requests,
/// so row 3 wins (at most) a couple of startup-race grants while row 0
/// collects hundreds.
#[test]
fn broker_fixed_priority_starves_the_highest_row() {
    let _guard = serial();
    let broker = XbarBroker::new(WORKERS, 1, XbarPolicy::FixedPriority);
    let report = run(&broker, &SATURATED, None);
    assert_eq!(report.violations, 0);
    let g = &report.grants();
    assert!(g[0] > 50, "low rows must monopolize, got {g:?}");
    assert!(
        g[WORKERS - 1] <= 2,
        "highest row must starve under fixed priority, got {g:?}"
    );
    assert!(
        g[WORKERS - 1] * 20 < g[0].max(1),
        "starvation must be extreme, got {g:?}"
    );
}

/// Broker side, fix: token rotation serves every row and bounds each
/// row's worst-case wait to a small multiple of one full rotation.
#[test]
fn broker_token_rotation_bounds_every_rows_wait() {
    let _guard = serial();
    let broker = XbarBroker::new(WORKERS, 1, XbarPolicy::TokenRotation);
    let report = run(&broker, &SATURATED, None);
    assert_eq!(report.violations, 0);
    let g = &report.grants();
    let total = report.total_grants();
    for (w, &won) in g.iter().enumerate() {
        assert!(won > 0, "worker {w} starved under token rotation: {g:?}");
        assert!(
            won as f64 > total as f64 / (4.0 * WORKERS as f64),
            "worker {w} got far less than its share: {g:?}"
        );
    }
    // One rotation is WORKERS grants; generous scheduling slack for a
    // single-core host, but far below the starvation regime (where the
    // wait would be the whole run).
    let bound = RUN / 4;
    for (w, &worst) in report.max_wait().iter().enumerate() {
        assert!(
            worst < bound,
            "worker {w} waited {worst:?} (> {bound:?}): rotation is not bounding waits"
        );
    }
}

/// Simulator side, gate level: the Table-I wave itself is the asymmetry —
/// with all rows requesting one available column, the wave closes the
/// top-left crosspoint.
#[test]
fn fabric_wave_grants_the_lowest_requesting_row() {
    let mut fabric = CrossbarFabric::new(WORKERS, 1);
    let grants = fabric.request_cycle(&[true; WORKERS], &[true]);
    assert_eq!(grants, vec![(0, 0)], "wave must favor the lowest row");
}

/// Simulator side, network level: drive saturated request cycles through
/// the DES-facing [`CrossbarNetwork`]. Fixed priority gives every grant to
/// processor 0; the token policy serves everyone, with every processor's
/// gap between consecutive grants bounded.
#[test]
fn simulated_crossbar_policies_split_on_starvation() {
    let cycles = 2_000u64;
    let run = |policy: CrossbarPolicy| {
        let mut net = CrossbarNetwork::new(1, WORKERS, 1, 1, policy);
        let mut rng = SimRng::new(0xFA1);
        let mut counts = vec![0u64; WORKERS];
        let mut last_grant = [0u64; WORKERS];
        let mut max_gap = vec![0u64; WORKERS];
        let pending = vec![true; WORKERS];
        for cycle in 1..=cycles {
            for grant in net.request_cycle(&pending, &mut rng) {
                counts[grant.processor] += 1;
                let gap = cycle - last_grant[grant.processor];
                max_gap[grant.processor] = max_gap[grant.processor].max(gap);
                last_grant[grant.processor] = cycle;
                // Free the bus and the resource for the next cycle.
                net.end_transmission(grant);
                net.end_service(grant);
            }
        }
        (counts, max_gap)
    };

    let (fixed, _) = run(CrossbarPolicy::FixedPriority);
    assert_eq!(fixed[0], cycles, "fixed priority: row 0 wins every cycle");
    assert!(
        fixed[1..].iter().all(|&c| c == 0),
        "fixed priority must starve rows 1..: {fixed:?}"
    );

    let (token, gaps) = run(CrossbarPolicy::RandomToken);
    for (w, (&c, &gap)) in token.iter().zip(&gaps).enumerate() {
        assert!(
            c > cycles / (4 * WORKERS as u64),
            "token: processor {w} under-served: {token:?}"
        );
        assert!(
            gap <= 64,
            "token: processor {w} waited {gap} cycles between grants"
        );
    }
}

/// Cross-shard fairness: partition the token-rotation crossbar into two
/// one-slot shards and saturate it. Within a shard the camp queue serves
/// waiters in FIFO order; across shards the rotating steal token keeps
/// probing siblings for overflow, so *every* worker — whichever shard it
/// calls home — keeps a bounded wait and a non-trivial share of the
/// grants. Under *symmetric* saturation the camp gates correctly route
/// each shard's capacity to its own campers, so completed steals may be
/// rare — but the steal path must at least be probed continuously (the
/// deterministic completed-steal coverage lives in the shard unit tests
/// and the dead-thief chaos test).
#[test]
fn sharded_token_rotation_bounds_waits_across_shards() {
    let _guard = serial();
    let broker = rsin_broker::ShardedBroker::new(WORKERS, 2, 2, |w, r| {
        XbarBroker::new(w, r, XbarPolicy::TokenRotation)
    });
    let report = run(&broker, &SATURATED, None);
    assert_eq!(report.violations, 0, "stealing must never double-grant");
    assert!(
        broker.steal_probes() > 0,
        "saturating two one-slot shards must keep the steal path probing"
    );
    let g = &report.grants();
    let total = report.total_grants();
    for (w, &won) in g.iter().enumerate() {
        assert!(won > 0, "worker {w} starved across shards: {g:?}");
        assert!(
            won as f64 > total as f64 / (4.0 * WORKERS as f64),
            "worker {w} got far less than its share: {g:?}"
        );
    }
    // Same slack as the flat token-rotation bound: a full home-shard
    // rotation plus one steal-token rotation is still far below RUN/4.
    let bound = RUN / 4;
    for (w, &worst) in report.max_wait().iter().enumerate() {
        assert!(
            worst < bound,
            "worker {w} waited {worst:?} (> {bound:?}): cross-shard rotation \
             is not bounding waits"
        );
    }
}
