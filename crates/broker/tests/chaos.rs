//! Chaos acceptance suite: the three distributed disciplines keep
//! granting through seeded client crashes and stalls — zero exclusivity
//! violations, every leaked lease reclaimed, full capacity recovered at
//! shutdown — while the central-scheduler baseline demonstrably stops the
//! moment its arbiter dies. This is the paper's distributed-vs-central
//! resilience claim, executed rather than modeled.
//!
//! Timing-sensitive (leases expire on a wall clock): serialized on a
//! static mutex, single-core friendly.

use rsin_broker::{
    run, Arrival, Broker, CentralBroker, ChaosOptions, ChaosPlan, ClientChaos, ClientEvent,
    LoadConfig, OmegaBroker, RunControl, SbusBroker, XbarBroker, XbarPolicy,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Lease long enough that well-behaved holders (service ≈ 0.25 ms here)
/// never expire, short enough that eviction is prompt on this scale.
const LEASE: Duration = Duration::from_millis(4);

/// The seeded schedule every discipline faces: 25% of the client threads
/// crash mid-protocol and 12.5% stall far past their lease, at seeded
/// times inside the measured window.
fn chaos_plan(workers: usize) -> ChaosPlan {
    let plan = ChaosPlan::seeded(0xC405, workers, 0.25, 0.125, (10.0, 40.0), 20.0);
    assert!(
        plan.crashes() + plan.stalls() >= workers.div_ceil(10),
        "schedule must touch at least 10% of the client threads"
    );
    plan
}

fn chaos_cfg() -> LoadConfig {
    let mut cfg = LoadConfig::new(0.5, 2.0);
    cfg.scale_us = 500.0;
    cfg.warmup = 5.0;
    cfg.duration = 80.0;
    cfg.drain = 40.0;
    cfg.seed = 0xBEEF;
    cfg
}

/// The tentpole acceptance check, per discipline: run the seeded chaos
/// schedule and require exclusivity, reclamation, liveness, and a clean
/// shutdown inventory.
fn assert_survives_chaos<B: Broker + ?Sized>(broker: &B, name: &str) {
    let plan = chaos_plan(broker.workers());
    let cfg = chaos_cfg();
    let opts = ChaosOptions::new(plan.clone(), LEASE);
    let report = run(broker, &Arrival::Poisson(cfg), Some(&opts));
    let chaos = report.chaos.as_ref().expect("chaos accounting");
    assert_eq!(
        report.violations, 0,
        "{name}: exclusivity violated under chaos"
    );
    assert_eq!(
        chaos.crashed,
        plan.crashes(),
        "{name}: every scheduled crash must fire"
    );
    assert_eq!(
        chaos.stalled,
        plan.stalls(),
        "{name}: every scheduled stall must fire"
    );
    assert!(
        chaos.reclaimed + chaos.forced_reclaims >= plan.crashes() as u64,
        "{name}: {} reclaims cannot cover {} leaked grants",
        chaos.reclaimed + chaos.forced_reclaims,
        plan.crashes()
    );
    assert!(
        chaos.post_chaos_grants > 0,
        "{name}: no grants after the last chaos event — the system wedged"
    );
    assert_eq!(
        chaos.available_at_end,
        broker.resources(),
        "{name}: resources leaked through shutdown"
    );
    assert_eq!(
        chaos.ledger_held_at_end, 0,
        "{name}: audit ledger still records held grants"
    );
}

#[test]
fn xbar_token_rotation_survives_chaos() {
    let _guard = serial();
    let broker = XbarBroker::with_lease(8, 4, XbarPolicy::TokenRotation, LEASE);
    assert_survives_chaos(&broker, "xbar/token");
}

#[test]
fn xbar_fixed_priority_survives_chaos() {
    let _guard = serial();
    let broker = XbarBroker::with_lease(8, 4, XbarPolicy::FixedPriority, LEASE);
    assert_survives_chaos(&broker, "xbar/fixed");
}

#[test]
fn sbus_survives_chaos() {
    let _guard = serial();
    let broker = SbusBroker::with_lease(8, 4, LEASE);
    assert_survives_chaos(&broker, "sbus");
}

#[test]
fn omega_survives_chaos() {
    let _guard = serial();
    let broker = OmegaBroker::with_lease(8, 8, LEASE);
    assert_survives_chaos(&broker, "omega");
}

/// After any number of holder deaths the rotating token must still exist,
/// uniquely: a post-chaos serial sweep in which every worker acquires and
/// releases once can only complete if exactly one live token circulates
/// (zero tokens wedges the sweep; a duplicated token shows up as an
/// exclusivity violation during the chaos run itself).
#[test]
fn token_rotation_has_exactly_one_live_token_after_chaos() {
    let _guard = serial();
    let broker = XbarBroker::with_lease(6, 1, XbarPolicy::TokenRotation, LEASE);
    let plan = ChaosPlan::seeded(0x70CE, 6, 0.34, 0.0, (10.0, 40.0), 5.0);
    assert!(plan.crashes() >= 2, "want multiple token-relevant deaths");
    let cfg = chaos_cfg();
    let opts = ChaosOptions::new(plan.clone(), LEASE);
    let report = run(&broker, &Arrival::Poisson(cfg), Some(&opts));
    let chaos = report.chaos.as_ref().expect("chaos accounting");
    assert_eq!(report.violations, 0, "duplicated token double-grants");
    assert_eq!(chaos.crashed, plan.crashes());
    assert_eq!(chaos.available_at_end, 1);

    // The liveness sweep, under a watchdog so a lost token fails loudly
    // instead of hanging the suite.
    let ctl = RunControl::new();
    std::thread::scope(|s| {
        let watchdog = s.spawn(|| {
            std::thread::sleep(Duration::from_secs(3));
            ctl.stop();
        });
        for w in 0..6 {
            let grant = broker
                .acquire(w, &ctl)
                .unwrap_or_else(|| panic!("worker {w}: token lost after chaos"));
            broker.end_transmission(w, grant);
            broker.release(w, grant);
        }
        drop(watchdog); // sweep done; let the watchdog run out harmlessly
    });
}

/// Stall-only schedule: live-but-slow stragglers are evicted by the
/// supervisor and their own late releases land as stale no-ops — no
/// violation, no leak, and the stragglers' threads all return normally.
#[test]
fn stalled_stragglers_are_evicted_and_release_stale() {
    let _guard = serial();
    let broker = SbusBroker::with_lease(8, 2, LEASE);
    let plan = ChaosPlan::seeded(0x57A1, 8, 0.0, 0.25, (10.0, 30.0), 25.0);
    assert!(plan.stalls() >= 2);
    let cfg = chaos_cfg();
    let opts = ChaosOptions::new(plan.clone(), LEASE);
    let report = run(&broker, &Arrival::Poisson(cfg), Some(&opts));
    let chaos = report.chaos.as_ref().expect("chaos accounting");
    assert_eq!(chaos.crashed, 0, "nobody dies in a stall-only schedule");
    assert_eq!(chaos.stalled, plan.stalls());
    assert_eq!(report.violations, 0);
    assert!(
        chaos.reclaimed >= plan.stalls() as u64,
        "each 12.5 ms stall must outlive the 4 ms lease and be evicted"
    );
    assert_eq!(chaos.available_at_end, 2);
    assert_eq!(chaos.ledger_held_at_end, 0);
}

/// The saturated driver under a kill: the survivors keep the grant rate
/// up and the dead worker's lease is reclaimed.
#[test]
fn saturated_chaos_keeps_granting_through_a_kill() {
    let _guard = serial();
    let broker = XbarBroker::with_lease(4, 2, XbarPolicy::TokenRotation, LEASE);
    let plan = ChaosPlan::new().with(ClientEvent {
        at: 30.0, // milliseconds, on the saturated driver's wall clock
        worker: 1,
        kind: ClientChaos::Crash,
    });
    let opts = ChaosOptions::new(plan, LEASE);
    let saturated = Arrival::Saturated {
        hold: Duration::from_micros(300),
        run_for: Duration::from_millis(150),
    };
    let report = run(&broker, &saturated, Some(&opts));
    let chaos = report.chaos.as_ref().expect("chaos accounting");
    assert_eq!(report.violations, 0);
    assert_eq!(chaos.crashed, 1, "the kill must fire");
    assert!(
        chaos.reclaimed + chaos.forced_reclaims >= 1,
        "the dead worker's grant must be reclaimed"
    );
    assert!(
        chaos.post_chaos_grants > 0,
        "survivors must keep granting after the kill"
    );
    assert_eq!(chaos.available_at_end, 2);
}

/// The paper's resilience claim, head to head: kill the central arbiter
/// and granting stops (only in-flight grants land); give a distributed
/// discipline the same treatment — a worker killed mid-protocol — and the
/// survivors keep granting.
#[test]
fn central_spof_stops_granting_while_distributed_continues() {
    let _guard = serial();

    // Central: one arbiter thread, killable.
    let central = CentralBroker::new(4, 2);
    let ctl = RunControl::new();
    let grants = AtomicU64::new(0);
    let (at_kill, at_end) = std::thread::scope(|s| {
        for w in 0..4 {
            let (grants, ctl, central) = (&grants, &ctl, &central);
            s.spawn(move || {
                while let Some(grant) = central.acquire(w, ctl) {
                    grants.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_micros(200));
                    central.release(w, grant);
                }
            });
        }
        std::thread::sleep(Duration::from_millis(40));
        central.kill_arbiter();
        let at_kill = grants.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(40));
        let at_end = grants.load(Ordering::Relaxed);
        ctl.stop();
        (at_kill, at_end)
    });
    assert!(at_kill > 10, "arbiter must have been granting before death");
    assert!(
        at_end - at_kill <= 4,
        "dead arbiter kept granting: {} grants after the kill",
        at_end - at_kill
    );

    // Distributed, same treatment: kill a client, throughput survives.
    let broker = XbarBroker::with_lease(4, 2, XbarPolicy::TokenRotation, LEASE);
    let plan = ChaosPlan::new().with(ClientEvent {
        at: 40.0, // ms
        worker: 0,
        kind: ClientChaos::Crash,
    });
    let opts = ChaosOptions::new(plan, LEASE);
    let saturated = Arrival::Saturated {
        hold: Duration::from_micros(200),
        run_for: Duration::from_millis(80),
    };
    let report = run(&broker, &saturated, Some(&opts));
    let chaos = report.chaos.as_ref().expect("chaos accounting");
    assert_eq!(chaos.crashed, 1);
    assert!(
        chaos.post_chaos_grants > 10,
        "distributed discipline must keep granting after a death \
         (got {} post-chaos grants)",
        chaos.post_chaos_grants
    );
    assert_eq!(report.violations, 0);
    assert_eq!(chaos.available_at_end, 2);
}

/// A client dies mid-steal: its home shard is exhausted, so its last grant
/// was stolen from the sibling shard — and the thread exits without
/// releasing it. The reclaimer must route the expired lease back to the
/// *owning* shard (a stolen slot must never be double-granted or leaked),
/// refund the shard's credit hint, and leave the pool fully available.
#[test]
fn dead_thief_leaks_nothing_across_shards() {
    let _guard = serial();
    // 2 shards × 1 slot; workers 0/2 are home on shard 0, workers 1/3 on
    // shard 1.
    let broker = rsin_broker::ShardedBroker::sbus_with_lease(4, 2, 2, LEASE);
    let ctl = RunControl::new();

    // Exhaust the thief's home shard.
    let home_hold = broker.acquire(0, &ctl).expect("shard 0 free");
    // Worker 2 (also home on shard 0) must now steal from shard 1 — and
    // its thread dies holding the stolen grant.
    std::thread::scope(|s| {
        s.spawn(|| {
            let stolen = broker.acquire(2, &ctl).expect("steals from shard 1");
            broker.end_transmission(2, stolen);
            // Crash: exit without releasing.
        });
    });
    assert_eq!(broker.stolen_grants(), 1, "the grant must have been stolen");
    assert_eq!(broker.available_resources(), 0);

    // The live holder releases before its own lease runs out, so the only
    // expirable lease is the dead thief's.
    broker.end_transmission(0, home_hold);
    broker.release(0, home_hold);

    // The orphan's lease expires; reclamation must find it on the shard
    // that owns the slot and audit it with its global index.
    std::thread::sleep(2 * LEASE);
    let mut reclaimed = Vec::new();
    let n = broker.reclaim_expired(&mut |resource, holder| reclaimed.push((resource, holder)));
    assert_eq!(n, 1, "exactly the dead thief's lease expires");
    assert_eq!(reclaimed, vec![(1, 2)], "shard 1's slot, held by worker 2");

    // The slot is grantable again, by its home-shard local.
    let again = broker.acquire(3, &ctl).expect("reclaimed slot grants");
    assert_eq!(again.resource, 1);
    broker.end_transmission(3, again);
    broker.release(3, again);
    assert_eq!(broker.available_resources(), 2, "nothing leaked");
}

/// The saturated chaos driver over the sharded broker: a kill lands while
/// the steal path is continuously probed (2 shards × 1 slot under 4
/// saturating workers), and the sharded pool still shows zero violations,
/// prompt reclamation, post-kill liveness, and a clean shutdown inventory.
#[test]
fn sharded_saturated_chaos_survives_a_mid_steal_kill() {
    let _guard = serial();
    let broker = rsin_broker::ShardedBroker::sbus_with_lease(4, 2, 2, LEASE);
    let plan = ChaosPlan::new().with(ClientEvent {
        at: 30.0, // milliseconds, on the saturated driver's wall clock
        worker: 2,
        kind: ClientChaos::Crash,
    });
    let opts = ChaosOptions::new(plan, LEASE);
    let saturated = Arrival::Saturated {
        hold: Duration::from_micros(300),
        run_for: Duration::from_millis(150),
    };
    let report = run(&broker, &saturated, Some(&opts));
    let chaos = report.chaos.as_ref().expect("chaos accounting");
    assert_eq!(report.violations, 0, "stealing must never double-grant");
    assert_eq!(chaos.crashed, 1, "the kill must fire");
    assert!(
        chaos.reclaimed + chaos.forced_reclaims >= 1,
        "the dead worker's lease must be reclaimed"
    );
    assert!(
        chaos.post_chaos_grants > 0,
        "survivors must keep granting after the kill"
    );
    assert_eq!(chaos.available_at_end, 2, "full pool back at shutdown");
    // Under symmetric saturation the camp gates route each shard's
    // capacity to its own campers, so completed steals are load-dependent;
    // the steal path must still be probed throughout (completed-steal
    // coverage is the deterministic dead-thief test above).
    assert!(
        broker.steal_probes() > 0,
        "saturating 2 one-slot shards must keep the steal path probing"
    );
}
