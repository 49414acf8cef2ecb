//! Equivalence of the blocking and probing grant paths: a probe
//! ([`Broker::try_acquire`]) is one round of the blocking path
//! ([`Broker::acquire`]), so whenever a single-threaded caller can be
//! granted at all, both paths must grant the same `(resource,
//! generation)` and leave the broker in the same state.
//!
//! Each case builds two identical brokers and drives them through one
//! seeded operation sequence — grants to idle workers (each followed at
//! once by `end_transmission`), releases of random holders, fault and
//! repair toggles, and `reclaim_all` — granting through `acquire` on one
//! and `try_acquire` on the other, and compares every observable after
//! every operation.

use rsin_broker::{
    Broker, BrokerGrant, OmegaBroker, RunControl, SbusBroker, ShardedBroker, XbarBroker, XbarPolicy,
};
use rsin_minicheck::{check, Gen};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const CASES: u64 = 64;
const OPS: usize = 80;

/// Stops `ctl` if the property runs this long: a blocking acquire that
/// would hang then returns `None` and fails the comparison instead.
const WATCHDOG: Duration = Duration::from_secs(60);

/// Discipline state beyond the common trait surface that must also agree
/// (the crossbar token); constant for disciplines without any.
type Extra<B> = fn(&B) -> (usize, u32);

fn no_extra<B>(_: &B) -> (usize, u32) {
    (0, 0)
}

fn xbar_token(b: &XbarBroker) -> (usize, u32) {
    (b.token_position(), b.token_generation())
}

/// Runs the property for brokers built by `make(workers, resources)`.
///
/// `fault_held` says whether faults may strike held resources. The
/// sharded broker's free-slot credit understates by one while a fault is
/// parked on a held slot (a documented, self-correcting hint), and a
/// single thread cannot wait that window out, so its sequences fault only
/// idle resources.
fn equivalent<B: Broker>(
    min_resources: usize,
    fault_held: bool,
    make: impl Fn(usize, usize) -> B,
    extra: Extra<B>,
) {
    let ctl = RunControl::new();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let _finished = Finished(&done);
        s.spawn(|| {
            let t0 = Instant::now();
            while !done.load(Ordering::Acquire) {
                if t0.elapsed() > WATCHDOG {
                    ctl.stop();
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        check(CASES, |g| {
            let workers = g.usize_in(1, 9);
            let resources = g.usize_in(min_resources, 7);
            let blocking = make(workers, resources);
            let probing = make(workers, resources);
            drive(g, &ctl, &blocking, &probing, fault_held, extra);
        });
    });
}

/// Releases the watchdog when the property ends, failing cases included.
struct Finished<'a>(&'a AtomicBool);

impl Drop for Finished<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

fn drive<B: Broker>(
    g: &mut Gen,
    ctl: &RunControl,
    blocking: &B,
    probing: &B,
    fault_held: bool,
    extra: Extra<B>,
) {
    let workers = blocking.workers();
    let resources = blocking.resources();
    // Grants each worker holds, live or already reclaimed (stale).
    let mut holders: Vec<(usize, BrokerGrant)> = Vec::new();
    let mut faulted = vec![false; resources];
    for step in 0..OPS {
        match g.usize_in(0, 10) {
            0..=3 => {
                let idle: Vec<usize> = (0..workers)
                    .filter(|w| holders.iter().all(|(h, _)| h != w))
                    .collect();
                if idle.is_empty() || blocking.available_resources() == 0 {
                    continue;
                }
                let who = idle[g.usize_in(0, idle.len())];
                let a = blocking.acquire(who, ctl);
                let b = probing.try_acquire(who);
                assert_eq!(a, b, "step {step}: grant to worker {who}");
                let grant = a.expect("a resource was available");
                blocking.end_transmission(who, grant);
                probing.end_transmission(who, grant);
                holders.push((who, grant));
            }
            4..=6 => {
                if holders.is_empty() {
                    continue;
                }
                let (who, grant) = holders.swap_remove(g.usize_in(0, holders.len()));
                let (mut audit_a, mut audit_b) = (Vec::new(), Vec::new());
                let a = blocking.release_audited(who, grant, &mut |r, w| audit_a.push((r, w)));
                let b = probing.release_audited(who, grant, &mut |r, w| audit_b.push((r, w)));
                assert_eq!(a, b, "step {step}: release by worker {who}");
                assert_eq!(audit_a, audit_b, "step {step}: release audit");
            }
            7 | 8 => {
                let resource = g.usize_in(0, resources);
                let held = holders.iter().any(|(_, h)| h.resource == resource);
                if !fault_held && !faulted[resource] && held {
                    continue;
                }
                faulted[resource] = !faulted[resource];
                blocking.set_resource_faulted(resource, faulted[resource]);
                probing.set_resource_faulted(resource, faulted[resource]);
            }
            _ => {
                let (mut audit_a, mut audit_b) = (Vec::new(), Vec::new());
                let a = blocking.reclaim_all(&mut |r, w| audit_a.push((r, w)));
                let b = probing.reclaim_all(&mut |r, w| audit_b.push((r, w)));
                assert_eq!(a, b, "step {step}: reclaimed count");
                assert_eq!(audit_a, audit_b, "step {step}: reclaim audit");
            }
        }
        assert_eq!(
            blocking.available_resources(),
            probing.available_resources(),
            "step {step}: available resources"
        );
        assert_eq!(extra(blocking), extra(probing), "step {step}: token");
    }
}

#[test]
fn sbus_probe_is_one_round_of_acquire() {
    equivalent(1, true, SbusBroker::new, no_extra);
}

#[test]
fn xbar_fixed_probe_is_one_round_of_acquire() {
    equivalent(
        1,
        true,
        |w, r| XbarBroker::new(w, r, XbarPolicy::FixedPriority),
        xbar_token,
    );
}

#[test]
fn xbar_token_probe_is_one_round_of_acquire() {
    equivalent(
        1,
        true,
        |w, r| XbarBroker::new(w, r, XbarPolicy::TokenRotation),
        xbar_token,
    );
}

#[test]
fn omega_probe_is_one_round_of_acquire() {
    equivalent(1, true, OmegaBroker::new, no_extra);
}

#[test]
fn sharded_probe_is_one_round_of_acquire() {
    equivalent(
        2,
        false,
        |w, r| ShardedBroker::new(w, r, 2, SbusBroker::new),
        no_extra,
    );
    equivalent(
        2,
        false,
        |w, r| {
            ShardedBroker::new(w, r, 2, |w, r| {
                XbarBroker::new(w, r, XbarPolicy::TokenRotation)
            })
        },
        no_extra,
    );
    equivalent(
        2,
        false,
        |w, r| ShardedBroker::new(w, r, 2, OmegaBroker::new),
        no_extra,
    );
}
