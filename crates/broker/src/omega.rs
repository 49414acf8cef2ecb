//! The circuit-switched Omega network at runtime: stage-by-stage link
//! claiming along the destination-tag route, with claim-or-rollback
//! conflict resolution.
//!
//! Section V's Omega network is blocking: a circuit occupies one output
//! link per stage, and two circuits conflict exactly when they share a
//! link. The runtime makes every link a claim word and builds a circuit
//! the way the hardware's wave does — stage by stage in route order:
//!
//! 1. Claim a free resource (the destination port) by CAS on its slot in
//!    the broker's lease pool; the destination-tag route from the worker's
//!    source port is then fully determined, so the grant needs no extra
//!    bookkeeping.
//! 2. Claim the route's links in stage order. A link that is already taken
//!    means a blocking conflict with a live circuit: **roll back** every
//!    link claimed so far *and* give the resource back (a pool release with
//!    an empty audit), then try the next free resource.
//!
//! One sweep of these steps over the destination ports is one attempt:
//! [`Broker::try_acquire`] makes one from the worker's home origin, and
//! [`Broker::acquire`] repeats it under the crate's shared backoff,
//! rotating the origin per round. A worker therefore never waits while
//! holding a partial path — each attempt either completes in a bounded
//! number of CAS operations or releases everything before sleeping.
//! Circular wait is impossible and the protocol cannot deadlock; the
//! blocked worker's retry succeeds once the conflicting circuit's
//! transmission ends (paths are freed by [`Broker::end_transmission`],
//! matching the model where the circuit is held only for the transmission
//! stage).
//!
//! ## Crash tolerance (route rollback by the supervisor)
//!
//! A holder that dies during its transmission leaves its whole circuit —
//! one link per stage — claimed, and any circuit that shares a link with it
//! blocks forever. Because routes are a pure function of `(worker,
//! resource)`, the supervisor needs no record of the dead claimant's
//! progress: when a resource lease expires it replays the route and rolls
//! back **whatever prefix of it the dead worker actually held** (inside the
//! pool's reclaim audit hook), link by link in reverse stage order, with a
//! `dead → VACANT` CAS per link. A link the worker never claimed (it died
//! mid-claim, or had already finished its rollback or its transmission)
//! fails the CAS and is skipped — so abandonment at *any* stage index,
//! including stage zero and a completed circuit, reduces to the same
//! tolerant sweep. The sweep runs while the resource's lease word is in its
//! unclaimable `RECLAIMING` phase, so no new circuit to the same
//! destination can be mid-construction while its links are being swept;
//! circuits to *other* destinations never hold `dead`-valued links (a
//! worker holds at most one grant), so the CAS can never free a live
//! circuit's link. Rollback acquires nothing and retries nothing — it is a
//! fixed reverse walk of at most `stages` CASes — so it cannot deadlock
//! with claimants, which only ever *advance* in stage order and never wait
//! while holding links.
//!
//! ## No fairness guarantee
//!
//! Unlike the SBUS ticket queue and the XBAR rotating token, claim-or-retry
//! carries **no queue-order state**: who wins a contended resource is
//! whichever retry happens to land first. Under sustained saturation a
//! worker that just released can re-win the race against sleeping waiters
//! indefinitely, so starvation is possible — the runtime analogue of a
//! blocking MIN resolving conflicts by drop-and-retry, which is
//! probabilistically fair only while contention is transient. Runs below
//! saturation drain cleanly (see `tests/stress.rs`); fairness under
//! saturation is exactly what the paper's token-style mechanisms exist to
//! provide, and this crate implements that fix on the crossbar
//! ([`crate::XbarPolicy::TokenRotation`]), not here.

use crate::lease::LeasePool;
use crate::{retry, Attempt, Broker, BrokerGrant, ReleaseOutcome, RunControl, WorkerId, VACANT};
use rsin_topology::{Multistage, OmegaTopology};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Runtime Omega-network broker: `workers` source ports sharing
/// `resources` destination ports through a `size × size` Omega fabric
/// (`size` = the smallest power of two covering both).
///
/// # Examples
///
/// ```
/// use rsin_broker::{Broker, OmegaBroker, RunControl};
///
/// let broker = OmegaBroker::new(4, 2);
/// let ctl = RunControl::new();
/// let grant = broker.acquire(3, &ctl).expect("uncontended");
/// broker.end_transmission(3, grant); // frees the circuit
/// broker.release(3, grant); // frees the resource
/// ```
#[derive(Debug)]
pub struct OmegaBroker {
    workers: usize,
    topo: OmegaTopology,
    /// Per-resource lease words.
    pool: LeasePool,
    /// Per-link claim words, `links[stage * size + wire]`.
    links: Vec<AtomicU64>,
}

impl OmegaBroker {
    /// Creates a broker over the smallest Omega fabric that fits, with
    /// non-expiring leases (the pre-lease protocol on the fault-free
    /// path).
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `resources` is zero.
    #[must_use]
    pub fn new(workers: usize, resources: usize) -> Self {
        Self::build(workers, resources, None)
    }

    /// Creates a broker whose grants expire `lease` after issue, making
    /// them (and their circuits) reclaimable through
    /// [`Broker::reclaim_expired`]. Choose the lease much longer than any
    /// honest hold time: a slower-than-lease holder is evicted as
    /// presumed dead.
    #[must_use]
    pub fn with_lease(workers: usize, resources: usize, lease: Duration) -> Self {
        Self::build(workers, resources, Some(lease))
    }

    fn build(workers: usize, resources: usize, lease: Option<Duration>) -> Self {
        assert!(workers > 0, "need at least one worker");
        assert!(resources > 0, "need at least one resource");
        let size = workers.max(resources).next_power_of_two().max(2);
        let topo = OmegaTopology::new(size).expect("size is a power of two >= 2");
        let n_links = size * topo.stages() as usize;
        OmegaBroker {
            workers,
            topo,
            pool: LeasePool::new(resources, lease),
            links: (0..n_links).map(|_| AtomicU64::new(VACANT)).collect(),
        }
    }

    /// Port count of the underlying fabric (a power of two).
    #[must_use]
    pub fn ports(&self) -> usize {
        self.topo.size()
    }

    fn link(&self, stage: u32, wire: usize) -> &AtomicU64 {
        &self.links[stage as usize * self.topo.size() + wire]
    }

    /// Claims the whole route `who → resource` in stage order; on a
    /// conflict rolls back every link claimed so far and reports failure.
    fn try_claim_path(&self, who: WorkerId, resource: usize) -> bool {
        let route = self.topo.route(who, resource);
        for (i, l) in route.links.iter().enumerate() {
            let claimed = self
                .link(l.stage, l.wire)
                .compare_exchange(VACANT, who as u64, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok();
            if !claimed {
                for held in route.links[..i].iter().rev() {
                    self.link(held.stage, held.wire)
                        .store(VACANT, Ordering::Release);
                }
                return false;
            }
        }
        true
    }

    /// Frees whatever prefix of the circuit `who → resource` is held by
    /// `who`, in reverse stage order. Tolerant by design: each link is a
    /// `who → VACANT` CAS that simply skips links `who` does not hold, so
    /// the same sweep serves a normal end-of-transmission, a reclaim of a
    /// route abandoned at any stage index, and a stale double-free.
    fn free_path(&self, who: WorkerId, resource: usize) {
        let route = self.topo.route(who, resource);
        for l in route.links.iter().rev() {
            let _ = self.link(l.stage, l.wire).compare_exchange(
                who as u64,
                VACANT,
                Ordering::AcqRel,
                Ordering::Relaxed,
            );
        }
    }

    /// One claim-or-rollback sweep over the destination ports, from
    /// origin `(who + round) % resources`: the origin rotates per worker
    /// and per round so concurrent claimers fan out over the ports.
    /// `progressed` reports that a resource was claimed and given back.
    fn attempt(&self, who: WorkerId, round: usize) -> Attempt {
        debug_assert!(who < self.workers, "worker id out of range");
        let r = self.pool.len();
        let start = (who + round) % r;
        let mut progressed = false;
        for step in 0..r {
            let resource = (start + step) % r;
            if !self.pool.is_vacant(resource) {
                continue;
            }
            let Some(generation) = self.pool.try_claim(resource, who) else {
                continue;
            };
            let grant = BrokerGrant {
                resource,
                generation,
            };
            if self.try_claim_path(who, resource) {
                return Attempt::Granted(grant);
            }
            // Blocked in the fabric: give the resource back before
            // waiting so we never hold anything while blocked. There is no
            // audit to run because the grant never happened. A stale
            // give-back means the supervisor reclaimed us — only possible
            // if the lease is shorter than one attempt — and swept our
            // (empty) route; it is tolerated.
            self.pool.release(who, grant, &mut |_, _| {}, |_, _| {});
            progressed = true;
        }
        Attempt::Retry { progressed }
    }

    /// Reclaims every resource whose lease is expired at `now_us`,
    /// sweeping the dead holder's route in the audit hook, while the slot
    /// is unclaimable.
    fn reclaim_at(&self, now_us: u64, audit: &mut dyn FnMut(usize, WorkerId)) -> usize {
        let mut sweep = |resource, dead| {
            self.free_path(dead, resource);
            audit(resource, dead);
        };
        self.pool.reclaim(now_us, &mut sweep, |_, _| {})
    }
}

impl Broker for OmegaBroker {
    fn workers(&self) -> usize {
        self.workers
    }

    fn resources(&self) -> usize {
        self.pool.len()
    }

    fn acquire(&self, who: WorkerId, ctl: &RunControl) -> Option<BrokerGrant> {
        retry(ctl, |round| self.attempt(who, round))
    }

    fn try_acquire(&self, who: WorkerId) -> Option<BrokerGrant> {
        // Round 0: the sweep from this worker's home origin.
        self.attempt(who, 0).grant()
    }

    fn end_transmission(&self, who: WorkerId, grant: BrokerGrant) {
        // Tolerant sweep: if the grant was reclaimed meanwhile, the
        // supervisor already freed these links and every CAS just fails.
        self.free_path(who, grant.resource);
    }

    fn release_audited(
        &self,
        who: WorkerId,
        grant: BrokerGrant,
        audit: &mut dyn FnMut(usize, WorkerId),
    ) -> ReleaseOutcome {
        self.pool.release(who, grant, audit, |_, _| {})
    }

    fn reclaim_expired(&self, audit: &mut dyn FnMut(usize, WorkerId)) -> usize {
        self.pool
            .expiry_now()
            .map_or(0, |now_us| self.reclaim_at(now_us, audit))
    }

    fn reclaim_all(&self, audit: &mut dyn FnMut(usize, WorkerId)) -> usize {
        self.reclaim_at(u64::MAX, audit)
    }

    fn set_resource_faulted(&self, resource: usize, down: bool) {
        self.pool.set_faulted(resource, down);
    }

    fn available_resources(&self) -> usize {
        self.pool.available()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lease::NO_OWNER;

    fn held_links(b: &OmegaBroker) -> usize {
        b.links
            .iter()
            .filter(|l| l.load(Ordering::Relaxed) != VACANT)
            .count()
    }

    #[test]
    fn grant_holds_the_circuit_until_end_of_transmission() {
        let b = OmegaBroker::new(4, 4);
        let ctl = RunControl::new();
        let g = b.acquire(3, &ctl).expect("free fabric");
        assert_eq!(held_links(&b), b.topo.stages() as usize, "one link/stage");
        b.end_transmission(3, g);
        assert_eq!(held_links(&b), 0, "circuit freed, resource kept");
        assert_ne!(b.pool.owner(g.resource), NO_OWNER, "resource still held");
        b.release(3, g);
        assert_eq!(b.pool.owner(g.resource), NO_OWNER);
    }

    #[test]
    fn conflicting_claim_rolls_back_completely() {
        // Find a blocking pair in the 8-port fabric: distinct sources and
        // distinct destinations whose routes share a link.
        let b = OmegaBroker::new(8, 8);
        let mut pair = None;
        'outer: for s1 in 0..8 {
            for s2 in 0..8 {
                for d1 in 0..8 {
                    for d2 in 0..8 {
                        if s1 == s2 || d1 == d2 {
                            continue;
                        }
                        let r1 = b.topo.route(s1, d1);
                        let r2 = b.topo.route(s2, d2);
                        if r1.conflicts_with(&r2) {
                            pair = Some((s1, d1, s2, d2));
                            break 'outer;
                        }
                    }
                }
            }
        }
        let (s1, d1, s2, d2) = pair.expect("an 8-port Omega network is blocking");
        assert!(b.try_claim_path(s1, d1), "empty fabric");
        let before = held_links(&b);
        assert!(!b.try_claim_path(s2, d2), "routes conflict");
        assert_eq!(held_links(&b), before, "failed claim left no residue");
        b.free_path(s1, d1);
        assert!(b.try_claim_path(s2, d2), "claimable once the blocker frees");
        b.free_path(s2, d2);
        assert_eq!(held_links(&b), 0);
    }

    #[test]
    fn reclaim_rolls_back_routes_abandoned_at_every_stage_index() {
        let b = OmegaBroker::with_lease(8, 8, Duration::from_micros(1));
        let stages = b.topo.stages() as usize;
        let (who, res) = (5usize, 3usize);
        // Abandonment at stage k: the worker claimed the resource and the
        // first k links of its route, then died. k = 0 is death before any
        // link; k = stages is death mid-transmission with a full circuit.
        for k in 0..=stages {
            b.pool.try_claim(res, who).expect("resource free");
            let route = b.topo.route(who, res);
            for l in &route.links[..k] {
                let claimed = b
                    .link(l.stage, l.wire)
                    .compare_exchange(VACANT, who as u64, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok();
                assert!(claimed, "stage {k}: fabric should be empty");
            }
            std::thread::sleep(Duration::from_millis(2));
            let mut evicted = Vec::new();
            let n = b.reclaim_expired(&mut |r, w| evicted.push((r, w)));
            assert_eq!(n, 1, "stage {k}: one expired lease");
            assert_eq!(evicted, vec![(res, who)], "stage {k}");
            assert_eq!(held_links(&b), 0, "stage {k}: residue left in fabric");
            // The destination and the swept links are claimable again.
            assert!(b.try_claim_path(0, res), "stage {k}: route still wedged");
            b.free_path(0, res);
            assert_eq!(b.pool.owner(res), NO_OWNER);
        }
    }

    #[test]
    fn blocked_acquire_unwinds_on_stop() {
        let b = OmegaBroker::new(2, 1);
        let ctl = RunControl::new();
        let g = b.acquire(0, &ctl).expect("free");
        std::thread::scope(|s| {
            let handle = s.spawn(|| b.acquire(1, &ctl));
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!handle.is_finished(), "must block: the resource is held");
            ctl.stop();
            assert_eq!(handle.join().expect("no panic"), None);
        });
        b.end_transmission(0, g);
        b.release(0, g);
        assert_eq!(held_links(&b), 0);
    }

    #[test]
    fn fabric_covers_workers_and_resources() {
        assert_eq!(OmegaBroker::new(6, 3).ports(), 8);
        assert_eq!(OmegaBroker::new(1, 1).ports(), 2);
        assert_eq!(OmegaBroker::new(4, 4).ports(), 4);
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn foreign_release_is_a_protocol_violation() {
        let b = OmegaBroker::new(2, 1);
        let ctl = RunControl::new();
        let g = b.acquire(0, &ctl).expect("free");
        b.end_transmission(0, g);
        b.release(1, g);
    }

    #[test]
    fn try_acquire_claims_a_circuit_or_leaves_no_residue() {
        let b = OmegaBroker::new(2, 1);
        let g = b.try_acquire(0).expect("fabric empty");
        assert_eq!(held_links(&b), b.topo.stages() as usize);
        assert_eq!(b.try_acquire(1), None, "resource held");
        assert_eq!(
            held_links(&b),
            b.topo.stages() as usize,
            "failed probe left no residue"
        );
        b.end_transmission(0, g);
        b.release(0, g);
        let g1 = b.try_acquire(1).expect("free again");
        b.end_transmission(1, g1);
        b.release(1, g1);
        assert_eq!(held_links(&b), 0);
    }
}
