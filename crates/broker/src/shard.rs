//! Sharded many-core broker: per-shard arbiters over slot ranges, with
//! credit-gated overflow stealing and a hierarchical rotating steal token.
//!
//! A single arbiter — one status word, one request mask, one token — is a
//! serialization point: every acquire and release on every core contends
//! on the same cache lines. [`ShardedBroker`] partitions the resource pool
//! into `shards` contiguous slot ranges, each owned by an independent
//! sub-arbiter of the *same* discipline (its own status word, ticket
//! queue, request mask, token). Workers are pinned to a **home shard**
//! (`who % shards`), so on the common path a requester touches only its
//! home shard's arbitration state — disjoint cache lines per shard.
//!
//! ## Overflow stealing
//!
//! A requester whose home shard is exhausted probes the sibling shards for
//! a free slot. The steal is a two-step, bounded, lock-free protocol:
//!
//! 1. **Take a credit.** Each shard keeps a free-slot credit counter; a
//!    probe CAS-decrements it and walks away immediately if it reads zero.
//!    The credit is a *hint*, never a claim: it keeps probes of exhausted
//!    shards O(1) and off the victim's arbitration words, but correctness
//!    never depends on it (see *Credit discipline* below). It is still
//!    load-bearing for throughput: it limits how many probers enter a
//!    sub-arbiter's bus queue. Without it every prober whose snoop sees a
//!    free slot queues on the SBUS bus ticket; a prototype without the
//!    credit fell from 106k–385k to 15k–22k grants/s in three of six
//!    `perf_report --quick` runs of the `shards_1` SBUS point (8 workers,
//!    4 resources, zero hold, 2 vCPUs).
//! 2. **Claim through the victim's own arbiter.** The actual grant is the
//!    sub-arbiter's [`Broker::try_acquire`] — one bounded arbitration
//!    attempt through the same generation-tagged lease CAS every local
//!    grant uses. A thief therefore can never forge a grant or race a
//!    reclaim into an ABA: if the slot it was hinted at has been granted,
//!    reclaimed, or faulted meanwhile, the generation-tagged claim simply
//!    fails and the credit is refunded.
//!
//! Probes visit the siblings in rotating order starting from a shard-level
//! **steal token** (packed `generation << 32 | position`, advanced by each
//! successful thief to its victim's successor), so sustained overflow
//! spreads over all shards instead of always raiding shard 0.
//!
//! ## Credit discipline (hint semantics)
//!
//! The credit counter tracks "grantable slots in this shard" well enough
//! to gate probes, under one invariant: **transient understatement is
//! bounded and self-correcting, so probes always resume**. Flows:
//!
//! - acquire takes a credit before probing, refunds it if the arbiter
//!   attempt fails; a grant keeps the credit out until release.
//! - a live release ([`ReleaseOutcome::Released`]) refunds one credit; a
//!   stale release refunds nothing (the reclaimer's pass already did).
//! - `reclaim_expired` / `reclaim_all` refund one credit per reclaimed
//!   slot.
//! - faulting a resource consumes a credit best-effort (the hint stops
//!   advertising a slot the discipline will refuse to grant); repairing
//!   refunds it. Faulting a *held* slot transiently understates by one —
//!   repaired at the holder's release, exactly when the slot's fate
//!   (faulted, not grantable) is decided by the sub-arbiter.
//!
//! Parked faults can leave the counter *overstating* (a probe finds no
//! slot, fails, refunds — the hint stays optimistic). Overstatement only
//! costs wasted probes; understatement is the dangerous direction (it
//! would suppress probes of a shard that has capacity) and every flow
//! above refunds at least as many credits as the slots it frees.
//!
//! ## Cross-shard fairness (hierarchical token rotation)
//!
//! Fairness is two-level. *Within* a shard, every contender — local or
//! thief — arbitrates under the shard's own discipline: the SBUS ticket
//! queue serves in FIFO order and the crossbar token bounds each
//! requester's wait by one rotation, exactly as in the single-arbiter
//! broker. *Across* shards, the steal token rotates the probe origin so
//! no single shard absorbs all overflow, and a thief only enters a
//! sibling's arbitration after taking a credit — so thieves can never
//! oversubscribe a victim beyond its free capacity and starve its locals:
//! every credit a thief takes corresponds to a slot the locals were not
//! holding.
//!
//! Crucially, a blocking [`Broker::acquire`] does **not** bare-poll. It
//! makes one full probe round (home, then siblings), and if every shard
//! looks exhausted it takes a FIFO **camp ticket** on its home shard.
//! While campers queue on a shard, the shard's fast path is *gated off*:
//! every probe — local or thief — fails immediately, so the next slot the
//! shard frees can only go to the camper whose ticket is being served.
//! Without the gate the credits would bypass fairness entirely: on a busy
//! core a releasing neighbor re-probes in nanoseconds, so a worker backing
//! off on a 200 µs cap loses every race and starves outright (the
//! sub-disciplines cannot help — their own blocking paths snoop for free
//! capacity *before* taking a ticket, so a camper in an exhausted shard
//! holds no FIFO position there either). The serving camper keeps one
//! steal round per wake open — gated by the siblings' own camp queues —
//! so overflow capacity still reaches it. A requester's wait is therefore
//! bounded by the camp queue ahead of it, and each predecessor departs in
//! bounded time (granted as soon as the shard churns — which leases and
//! reclamation enforce even under client crashes — or drained on stop).
//!
//! ## Memory ordering
//!
//! Credits use `AcqRel` CAS / `Release` refunds so a probe that sees a
//! credit also sees the release that produced it (the refund
//! happens-after the sub-arbiter's own `Release` vacate, which the
//! generation-tagged claim acquires). The steal token is advisory probe
//! ordering only — `AcqRel` on the pass keeps positions monotonic, and a
//! stale read merely starts a probe round one shard early. All grant-
//! carrying synchronization stays inside the sub-arbiters' lease words;
//! the shard layer adds no new happens-before obligations to the grant
//! path itself.

use crate::{Broker, BrokerGrant, ReleaseOutcome, RunControl, Waiter, WorkerId};
use std::sync::atomic::{AtomicU64, Ordering};

/// One shard: a full-discipline sub-arbiter over a contiguous slot range,
/// plus its free-slot credit hint and the camp queue that makes waiting
/// fair (see the module docs' fairness section).
#[derive(Debug)]
struct Shard<B> {
    arbiter: B,
    credits: AtomicU64,
    /// Next camp ticket to hand out; `camp_next > camp_serving` means
    /// campers are waiting and the shard's fast path is gated off.
    camp_next: AtomicU64,
    /// The camp ticket currently being served.
    camp_serving: AtomicU64,
}

/// A broker sharded into per-core arbiters with overflow stealing. The
/// protocol is documented on the private `shard` module.
///
/// The sub-arbiters are built by a factory over the **full worker set**
/// (worker ids are global, so any worker may arbitrate on any shard when
/// stealing) and a per-shard slot count; shard slot ranges are contiguous
/// and their sizes differ by at most one. Grants carry *global* resource
/// indices — the shard layer translates at every boundary, so the
/// exclusivity-audit [`Ledger`](crate::loadgen::Ledger) observes one flat
/// index space and stolen grants are audited exactly like local ones.
///
/// # Examples
///
/// ```
/// use rsin_broker::{Broker, RunControl, SbusBroker, ShardedBroker};
///
/// let broker = ShardedBroker::new(4, 4, 2, SbusBroker::new);
/// let ctl = RunControl::new();
/// let grant = broker.acquire(1, &ctl).expect("uncontended");
/// broker.end_transmission(1, grant);
/// broker.release(1, grant);
/// assert_eq!(broker.stolen_grants(), 0, "home shard had room");
/// ```
#[derive(Debug)]
pub struct ShardedBroker<B> {
    workers: usize,
    resources: usize,
    shards: Vec<Shard<B>>,
    /// `bases[s]` = first global slot index of shard `s`; `bases[shards]`
    /// = total, so a shard's range is `bases[s]..bases[s + 1]`.
    bases: Vec<usize>,
    /// Rotating origin of the steal probe order, packed
    /// `generation << 32 | position` like the crossbar token.
    steal_token: AtomicU64,
    local_grants: AtomicU64,
    stolen_grants: AtomicU64,
    steal_probes: AtomicU64,
}

impl<B: Broker> ShardedBroker<B> {
    /// Partitions `resources` slots into `shards` contiguous ranges (sizes
    /// differing by at most one) and builds one sub-arbiter per range via
    /// `make(workers, shard_slots)`.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `shards` is zero, if `resources < shards`
    /// (every shard needs at least one slot), or if the factory returns an
    /// arbiter with the wrong worker or slot count.
    pub fn new(
        workers: usize,
        resources: usize,
        shards: usize,
        mut make: impl FnMut(usize, usize) -> B,
    ) -> Self {
        assert!(workers > 0, "need at least one worker");
        assert!(shards > 0, "need at least one shard");
        assert!(
            resources >= shards,
            "every shard needs at least one resource ({resources} < {shards})"
        );
        let mut bases = Vec::with_capacity(shards + 1);
        let mut built = Vec::with_capacity(shards);
        let mut base = 0usize;
        for s in 0..shards {
            bases.push(base);
            let size = resources / shards + usize::from(s < resources % shards);
            let arbiter = make(workers, size);
            assert_eq!(
                arbiter.workers(),
                workers,
                "factory must build over the full worker set"
            );
            assert_eq!(
                arbiter.resources(),
                size,
                "factory must honor the shard's slot count"
            );
            built.push(Shard {
                arbiter,
                credits: AtomicU64::new(size as u64),
                camp_next: AtomicU64::new(0),
                camp_serving: AtomicU64::new(0),
            });
            base += size;
        }
        bases.push(base);
        debug_assert_eq!(base, resources);
        ShardedBroker {
            workers,
            resources,
            shards: built,
            bases,
            steal_token: AtomicU64::new(0),
            local_grants: AtomicU64::new(0),
            stolen_grants: AtomicU64::new(0),
            steal_probes: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard worker `who` is pinned to on the fast path.
    #[must_use]
    pub fn home_shard(&self, who: WorkerId) -> usize {
        who % self.shards.len()
    }

    /// The shard owning global slot `resource`.
    #[must_use]
    pub fn shard_of_resource(&self, resource: usize) -> usize {
        debug_assert!(resource < self.resources, "resource out of range");
        self.bases.partition_point(|&b| b <= resource) - 1
    }

    /// Grants served from the requester's home shard.
    #[must_use]
    pub fn local_grants(&self) -> u64 {
        self.local_grants.load(Ordering::Relaxed)
    }

    /// Grants served by stealing from a sibling shard.
    #[must_use]
    pub fn stolen_grants(&self) -> u64 {
        self.stolen_grants.load(Ordering::Relaxed)
    }

    /// Sibling-shard probe attempts (successful or not).
    #[must_use]
    pub fn steal_probes(&self) -> u64 {
        self.steal_probes.load(Ordering::Relaxed)
    }

    /// Current steal-token position (the probe-order origin).
    #[must_use]
    pub fn steal_token_position(&self) -> usize {
        (self.steal_token.load(Ordering::Acquire) as u32) as usize % self.shards.len()
    }

    /// Number of times the steal token has been passed.
    #[must_use]
    pub fn steal_token_generation(&self) -> u32 {
        (self.steal_token.load(Ordering::Acquire) >> 32) as u32
    }

    /// Current credit reading of `shard` (a hint; see the module docs).
    #[must_use]
    pub fn shard_credits(&self, shard: usize) -> u64 {
        self.shards[shard].credits.load(Ordering::Acquire)
    }

    /// CAS-decrements `shard`'s credit counter; `false` means the shard
    /// advertises no free slot and the probe should walk away.
    fn take_credit(&self, shard: usize) -> bool {
        let credits = &self.shards[shard].credits;
        let mut c = credits.load(Ordering::Acquire);
        while c > 0 {
            match credits.compare_exchange_weak(c, c - 1, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return true,
                Err(now) => c = now,
            }
        }
        false
    }

    fn refund_credit(&self, shard: usize) {
        self.shards[shard].credits.fetch_add(1, Ordering::Release);
    }

    /// Advances the steal token to the victim's successor.
    fn pass_steal_token(&self, victim: usize) {
        let n = self.shards.len() as u64;
        let next = (victim as u64 + 1) % n;
        let _ = self
            .steal_token
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |t| {
                let generation = (t >> 32).wrapping_add(1);
                Some((generation << 32) | next)
            });
    }

    /// Whether `shard` has campers queued for its next free slot. While it
    /// does, the shard's fast path is gated off so freed capacity reaches
    /// the oldest camper instead of whichever prober is hottest.
    fn campers_waiting(&self, shard: usize) -> bool {
        let s = &self.shards[shard];
        s.camp_next.load(Ordering::Acquire) > s.camp_serving.load(Ordering::Acquire)
    }

    /// Credit-gated probe of one shard; a grant comes back globalized.
    /// Fails immediately while campers queue on the shard — only the
    /// serving camper may probe past the gate (via
    /// [`Self::try_shard_ungated`]).
    fn try_shard(&self, shard: usize, who: WorkerId) -> Option<BrokerGrant> {
        if self.campers_waiting(shard) {
            return None;
        }
        self.try_shard_ungated(shard, who)
    }

    /// The probe itself, without the camper gate.
    fn try_shard_ungated(&self, shard: usize, who: WorkerId) -> Option<BrokerGrant> {
        if !self.take_credit(shard) {
            return None;
        }
        match self.shards[shard].arbiter.try_acquire(who) {
            Some(g) => Some(BrokerGrant {
                resource: self.bases[shard] + g.resource,
                generation: g.generation,
            }),
            None => {
                self.refund_credit(shard);
                None
            }
        }
    }

    /// One full grant round: home shard first, then the siblings in
    /// rotating order from the steal token.
    fn try_grant(&self, who: WorkerId) -> Option<BrokerGrant> {
        let home = self.home_shard(who);
        if let Some(g) = self.try_shard(home, who) {
            self.local_grants.fetch_add(1, Ordering::Relaxed);
            return Some(g);
        }
        self.try_steal_round(who, home)
    }

    /// Probes every sibling of `home` once, in rotating order from the
    /// steal token, passing the token on a successful steal.
    fn try_steal_round(&self, who: WorkerId, home: usize) -> Option<BrokerGrant> {
        let n = self.shards.len();
        let origin = self.steal_token_position();
        for k in 0..n {
            let victim = (origin + k) % n;
            if victim == home {
                continue;
            }
            self.steal_probes.fetch_add(1, Ordering::Relaxed);
            if let Some(g) = self.try_shard(victim, who) {
                self.stolen_grants.fetch_add(1, Ordering::Relaxed);
                self.pass_steal_token(victim);
                return Some(g);
            }
        }
        None
    }

    /// Splits a global grant into its owning shard and the shard-local
    /// grant the sub-arbiter understands.
    fn localize(&self, grant: BrokerGrant) -> (usize, BrokerGrant) {
        let shard = self.shard_of_resource(grant.resource);
        (
            shard,
            BrokerGrant {
                resource: grant.resource - self.bases[shard],
                generation: grant.generation,
            },
        )
    }
}

impl<B: Broker> Broker for ShardedBroker<B> {
    fn workers(&self) -> usize {
        self.workers
    }

    fn resources(&self) -> usize {
        self.resources
    }

    fn acquire(&self, who: WorkerId, ctl: &RunControl) -> Option<BrokerGrant> {
        debug_assert!(who < self.workers, "worker id out of range");
        if ctl.is_stopped() {
            return None;
        }
        // Fast path: one full probe round — home shard, then the siblings
        // in steal-token order.
        if let Some(grant) = self.try_grant(who) {
            return Some(grant);
        }
        // Every shard looked exhausted: camp on the home shard. Taking the
        // ticket closes the shard's fast-path gate, so the next slot it
        // frees belongs to the oldest camper — a bare polling loop would
        // lose every race to a releasing neighbor that re-probes in
        // nanoseconds while we back off in microseconds.
        let home = self.home_shard(who);
        let shard = &self.shards[home];
        let ticket = shard.camp_next.fetch_add(1, Ordering::AcqRel);
        let mut far = Waiter::new();
        loop {
            let serving = shard.camp_serving.load(Ordering::Acquire);
            if serving == ticket {
                break;
            }
            // Predecessors always advance (granted, or drained on stop),
            // so this wait is bounded by the queue ahead. Campers near the
            // head stay off the sleep tier: the handoff chain must not
            // stall for a 200 µs timer while a freed slot idles. Distant
            // campers sleep freely — their bounded wake finds them near
            // the head by the time the queue reaches them.
            if ticket - serving <= 2 {
                std::thread::yield_now();
            } else {
                far.wait();
            }
        }
        let mut rounds = 0u32;
        loop {
            if ctl.is_stopped() {
                shard.camp_serving.fetch_add(1, Ordering::AcqRel);
                return None;
            }
            if let Some(g) = self.try_shard_ungated(home, who) {
                shard.camp_serving.fetch_add(1, Ordering::AcqRel);
                self.local_grants.fetch_add(1, Ordering::Relaxed);
                return Some(g);
            }
            // A sibling may free capacity before home does; the steal
            // round stays gated by the siblings' own camp queues.
            if let Some(g) = self.try_steal_round(who, home) {
                shard.camp_serving.fetch_add(1, Ordering::AcqRel);
                return Some(g);
            }
            // The serving camper never sleeps: it is the handoff target
            // for the next freed slot, so it polls at scheduler latency —
            // one yield-looping thread per camped shard, and only while
            // the shard is camped, is the bounded cost.
            rounds = rounds.saturating_add(1);
            if rounds <= 16 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    fn try_acquire(&self, who: WorkerId) -> Option<BrokerGrant> {
        debug_assert!(who < self.workers, "worker id out of range");
        self.try_grant(who)
    }

    fn end_transmission(&self, who: WorkerId, grant: BrokerGrant) {
        let (shard, local) = self.localize(grant);
        self.shards[shard].arbiter.end_transmission(who, local);
    }

    fn release_audited(
        &self,
        who: WorkerId,
        grant: BrokerGrant,
        audit: &mut dyn FnMut(usize, WorkerId),
    ) -> ReleaseOutcome {
        let (shard, local) = self.localize(grant);
        let base = self.bases[shard];
        let outcome = self.shards[shard]
            .arbiter
            .release_audited(who, local, &mut |r, w| audit(base + r, w));
        if outcome == ReleaseOutcome::Released {
            self.refund_credit(shard);
        }
        outcome
    }

    fn reclaim_expired(&self, audit: &mut dyn FnMut(usize, WorkerId)) -> usize {
        let mut total = 0;
        for (s, shard) in self.shards.iter().enumerate() {
            let base = self.bases[s];
            let n = shard
                .arbiter
                .reclaim_expired(&mut |r, w| audit(base + r, w));
            if n > 0 {
                shard.credits.fetch_add(n as u64, Ordering::Release);
            }
            total += n;
        }
        total
    }

    fn reclaim_all(&self, audit: &mut dyn FnMut(usize, WorkerId)) -> usize {
        let mut total = 0;
        for (s, shard) in self.shards.iter().enumerate() {
            let base = self.bases[s];
            let n = shard.arbiter.reclaim_all(&mut |r, w| audit(base + r, w));
            if n > 0 {
                shard.credits.fetch_add(n as u64, Ordering::Release);
            }
            total += n;
        }
        total
    }

    fn set_resource_faulted(&self, resource: usize, down: bool) {
        let shard = self.shard_of_resource(resource);
        let local = resource - self.bases[shard];
        if down {
            // Consume the slot's credit best-effort so the hint stops
            // advertising it; on a held slot the credit is already out and
            // this transiently understates by one until the release (see
            // the module docs' credit discipline).
            let _ = self.take_credit(shard);
            self.shards[shard].arbiter.set_resource_faulted(local, true);
        } else {
            self.shards[shard]
                .arbiter
                .set_resource_faulted(local, false);
            self.refund_credit(shard);
        }
    }

    fn available_resources(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.arbiter.available_resources())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OmegaBroker, SbusBroker, XbarBroker, XbarPolicy};
    use std::time::Duration;

    #[test]
    fn partitions_slots_contiguously_with_near_equal_sizes() {
        let b = ShardedBroker::new(4, 7, 3, |w, r| {
            XbarBroker::new(w, r, XbarPolicy::TokenRotation)
        });
        assert_eq!(b.shard_count(), 3);
        assert_eq!(b.resources(), 7);
        assert_eq!(b.bases, vec![0, 3, 5, 7], "3 + 2 + 2 covering 7");
        for r in 0..7 {
            let s = b.shard_of_resource(r);
            assert!(b.bases[s] <= r && r < b.bases[s + 1]);
        }
        assert_eq!(b.shard_credits(0), 3);
        assert_eq!(b.shard_credits(2), 2);
        assert_eq!(b.available_resources(), 7);
    }

    #[test]
    fn home_grants_stay_on_the_home_shard() {
        let b = ShardedBroker::new(4, 4, 2, |w, r| {
            XbarBroker::new(w, r, XbarPolicy::TokenRotation)
        });
        let ctl = RunControl::new();
        let grants: Vec<_> = (0..4)
            .map(|w| b.acquire(w, &ctl).expect("capacity for all"))
            .collect();
        let mut slots: Vec<_> = grants.iter().map(|g| g.resource).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), 4, "distinct global slots");
        for (w, g) in grants.iter().enumerate() {
            assert_eq!(
                b.shard_of_resource(g.resource),
                b.home_shard(w),
                "no steal needed with balanced load"
            );
        }
        assert_eq!(b.local_grants(), 4);
        assert_eq!(b.stolen_grants(), 0);
        for (w, g) in grants.into_iter().enumerate() {
            b.release(w, g);
        }
        assert_eq!(b.shard_credits(0), 2);
        assert_eq!(b.shard_credits(1), 2);
        assert_eq!(b.available_resources(), 4);
    }

    #[test]
    fn exhausted_home_shard_steals_from_a_sibling() {
        // Workers 0 and 2 both map to home shard 0, which holds one slot.
        let b = ShardedBroker::new(4, 2, 2, SbusBroker::new);
        let ctl = RunControl::new();
        let g0 = b.acquire(0, &ctl).expect("home slot free");
        b.end_transmission(0, g0);
        assert_eq!(b.shard_of_resource(g0.resource), 0);
        let g2 = b.acquire(2, &ctl).expect("steals the sibling's slot");
        b.end_transmission(2, g2);
        assert_eq!(b.shard_of_resource(g2.resource), 1, "served by shard 1");
        assert_eq!(b.stolen_grants(), 1);
        assert!(b.steal_probes() >= 1);
        assert_eq!(
            b.steal_token_position(),
            0,
            "token passed to the victim's successor (wrapping)"
        );
        assert_eq!(b.steal_token_generation(), 1);
        b.release(0, g0);
        b.release(2, g2);
        assert_eq!(b.available_resources(), 2);
        assert_eq!(b.shard_credits(0) + b.shard_credits(1), 2);
    }

    #[test]
    fn saturation_blocks_and_stop_unblocks_without_leaking_credits() {
        let b = ShardedBroker::new(4, 2, 2, |w, r| {
            XbarBroker::new(w, r, XbarPolicy::TokenRotation)
        });
        let ctl = RunControl::new();
        let g0 = b.acquire(0, &ctl).expect("free");
        let g1 = b.acquire(1, &ctl).expect("free");
        std::thread::scope(|s| {
            let handle = s.spawn(|| b.acquire(2, &ctl));
            std::thread::sleep(Duration::from_millis(20));
            assert!(!handle.is_finished(), "must block at saturation");
            ctl.stop();
            assert_eq!(handle.join().expect("no panic"), None);
        });
        assert_eq!(b.shard_credits(0) + b.shard_credits(1), 0, "both out");
        b.release(0, g0);
        b.release(1, g1);
        assert_eq!(b.shard_credits(0) + b.shard_credits(1), 2, "both back");
    }

    #[test]
    fn release_and_audit_report_global_indices() {
        let b = ShardedBroker::new(4, 4, 2, OmegaBroker::new);
        let ctl = RunControl::new();
        // Worker 1's home is shard 1 (slots 2..4).
        let g = b.acquire(1, &ctl).expect("free");
        assert!(g.resource >= 2, "grant carries the global index");
        b.end_transmission(1, g);
        let mut audited = Vec::new();
        let outcome = b.release_audited(1, g, &mut |r, w| audited.push((r, w)));
        assert_eq!(outcome, ReleaseOutcome::Released);
        assert_eq!(audited, vec![(g.resource, 1)], "audit sees global index");
    }

    #[test]
    fn reclaim_translates_indices_and_refunds_credits() {
        let b = ShardedBroker::new(4, 4, 2, |w, r| {
            SbusBroker::with_lease(w, r, Duration::from_micros(1))
        });
        let ctl = RunControl::new();
        let g = b.acquire(3, &ctl).expect("free");
        b.end_transmission(3, g);
        assert_eq!(b.shard_of_resource(g.resource), 1);
        std::thread::sleep(Duration::from_millis(2));
        let mut evicted = Vec::new();
        let n = b.reclaim_expired(&mut |r, w| evicted.push((r, w)));
        assert_eq!(n, 1);
        assert_eq!(evicted, vec![(g.resource, 3)], "global index, dead holder");
        assert_eq!(b.shard_credits(1), 2, "credit refunded by the reclaim");
        assert_eq!(
            b.release_audited(3, g, &mut |_, _| {}),
            ReleaseOutcome::Stale,
            "late release refused, no double refund"
        );
        assert_eq!(b.shard_credits(1), 2);
        assert_eq!(b.available_resources(), 4);
    }

    #[test]
    fn faults_route_to_the_owning_shard_and_gate_the_hint() {
        let b = ShardedBroker::new(2, 4, 2, SbusBroker::new);
        b.set_resource_faulted(3, true);
        assert_eq!(b.available_resources(), 3);
        assert_eq!(b.shard_credits(1), 1, "fault consumed shard 1's credit");
        assert_eq!(b.shard_credits(0), 2, "shard 0 untouched");
        b.set_resource_faulted(3, false);
        assert_eq!(b.available_resources(), 4);
        assert_eq!(b.shard_credits(1), 2);
    }

    #[test]
    fn single_shard_degenerates_to_the_plain_discipline() {
        let b = ShardedBroker::new(2, 2, 1, |w, r| {
            XbarBroker::new(w, r, XbarPolicy::FixedPriority)
        });
        let ctl = RunControl::new();
        let g0 = b.acquire(0, &ctl).expect("free");
        let g1 = b.acquire(1, &ctl).expect("free");
        assert_ne!(g0.resource, g1.resource);
        assert_eq!(b.stolen_grants(), 0, "nobody to steal from");
        b.release(0, g0);
        b.release(1, g1);
        assert_eq!(b.available_resources(), 2);
    }

    #[test]
    #[should_panic(expected = "every shard needs at least one resource")]
    fn more_shards_than_resources_is_refused() {
        let _ = ShardedBroker::new(2, 1, 2, SbusBroker::new);
    }
}
