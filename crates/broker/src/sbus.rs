//! The shared-bus discipline at runtime: a broadcast free-count status
//! word plus a ticket arbiter.
//!
//! Section III's single bus serializes transmissions; which waiting
//! processor transmits next is the arbiter's choice. The hardware's daisy
//! chain favors low indices, and the paper points at POLYP's circulating
//! token as the fair fix — the runtime equivalent of a circulating grant is
//! a **ticket queue**: every acquire takes the next ticket, the bus serves
//! tickets in order, and the mean delay is unchanged (service is
//! exponential and the bus is work-conserving, so the mean is
//! discipline-insensitive — exactly why the [`SharedBusChain`] oracle does
//! not need to know which arbiter the runtime uses).
//!
//! [`SharedBusChain`]: ../rsin_queueing/struct.SharedBusChain.html
//!
//! ## Protocol
//!
//! - `free` is the broadcast status word every processor snoops: the number
//!   of currently free resources. A releaser vacates its resource slot
//!   *before* incrementing `free` (`Release` RMW); an acquirer decrements
//!   `free` (`Acquire` RMW) *before* scanning for a slot. The counter
//!   therefore never exceeds the number of vacant slots, so a successful
//!   decrement is a reservation: the slot scan below it cannot fail
//!   permanently.
//! - `serving`/`next_ticket` implement the bus queue, and the `bus`
//!   [`LeaseWord`] records who is actually transmitting: the ticket holder
//!   claims the bus lease when its turn comes, keeps it through the
//!   transmission phase, and [`SbusBroker::end_transmission`] vacates the
//!   lease and passes the turn on.
//!
//! Ordering matters. Section III's bus carries transmissions, nothing
//! else, and a processor is granted only when the bus AND a resource are
//! free at the same instant. The runtime reproduces that with a
//! snoop → ticket → confirm sequence: no bus request while the status word
//! reads zero; the reservation is confirmed only at bus-grant time; and a
//! lost race passes the bus straight on and retries with backoff. The two
//! tempting simplifications are both measurably wrong against the
//! chain/DES predictions — waiting for a resource *while holding* the bus
//! blocks every other transmission behind a busy pool, and reserving
//! *before* queueing for the bus parks resources idle for the whole bus
//! wait (which destabilizes the system well before the model says it
//! should saturate). The cross-validation suite is what polices this
//! equivalence.
//!
//! One snoop → ticket → confirm pass is one attempt, and both grant paths
//! are built on it: [`Broker::try_acquire`] makes one attempt, and
//! [`Broker::acquire`] repeats it under the crate's shared backoff. The
//! attempt's own waits — for its bus turn, for the bus lease, for a slot
//! its reservation guarantees — are bounded protocol turns and stay inside
//! it. An acquire aborted by [`RunControl`] still advances `serving` once
//! its turn comes, so a stopping run unwinds the whole ticket queue instead
//! of wedging it.
//!
//! ## Crash tolerance (status-word repair)
//!
//! A crashed holder can wedge this discipline in three places, and the
//! supervisor ([`Broker::reclaim_expired`]) repairs all three:
//!
//! 1. **A leaked resource slot**: the slot's lease expires, the supervisor
//!    reclaims it through the broker's lease pool, and — the status-word
//!    repair, which is this discipline's vacate hook — returns its credit
//!    to `free` (unless a parked fault consumed the slot). The generation CAS
//!    makes the repair safe against the holder's own late release.
//! 2. **A dead transmitter**: the bus lease expires; the supervisor
//!    vacates it and advances `serving` past the dead holder's ticket.
//!    The advance is a CAS keyed on that specific ticket, and the vacate
//!    is keyed on the bus generation, so a slow-but-alive transmitter
//!    whose `end_transmission` races the repair passes the turn exactly
//!    once — whichever CAS wins; the loser observes `Stale` and stands
//!    down.
//! 3. **A dead *queued* ticket** (a worker that died after taking a ticket
//!    but before its turn): nobody will advance `serving` past it. The
//!    supervisor watches the `(serving, next_ticket)` pair; if tickets are
//!    queued, the bus is vacant, and nothing has moved for a full lease,
//!    it skips the presumed-dead ticket. A live-but-descheduled worker
//!    whose turn is skipped simply observes `serving` beyond its ticket
//!    and re-queues — the skip can cost it a retry, never a wedge or a
//!    double grant.

use crate::lease::{self, LeasePool, LeaseWord, UnclaimStart, Vacated, NO_OWNER};
use crate::{retry, Attempt, Broker, BrokerGrant, ReleaseOutcome, RunControl, Waiter, WorkerId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sentinel in the per-worker ticket table: no ticket outstanding.
const TICKET_NONE: u64 = u64::MAX;

/// Runtime shared-bus broker: one bus, `workers` processors, `resources`
/// identical resources.
///
/// # Examples
///
/// ```
/// use rsin_broker::{Broker, RunControl, SbusBroker};
///
/// let broker = SbusBroker::new(2, 1);
/// let ctl = RunControl::new();
/// let grant = broker.acquire(0, &ctl).expect("uncontended");
/// broker.end_transmission(0, grant);
/// broker.release(0, grant);
/// ```
#[derive(Debug)]
pub struct SbusBroker {
    workers: usize,
    /// Broadcast free-resource count (the status word of Section III).
    free: AtomicU64,
    /// Next ticket to hand out.
    next_ticket: AtomicU64,
    /// Ticket currently owning the bus turn.
    serving: AtomicU64,
    /// Who is actually transmitting (leased, reclaimable).
    bus: LeaseWord,
    /// `tickets[w]`: the ticket worker `w` currently holds, or
    /// [`TICKET_NONE`]. Lets the supervisor advance `serving` past a dead
    /// holder's ticket with a ticket-keyed CAS.
    tickets: Vec<AtomicU64>,
    /// `bus_generation[w]`: the bus-lease generation of worker `w`'s
    /// current transmission (written and read only by `w` itself).
    bus_generation: Vec<AtomicU64>,
    /// Per-resource lease words; the bus lease runs on the same clock.
    pool: LeasePool,
    /// Stalled-queue watchdog state: last `(serving, next_ticket)` pair
    /// the supervisor observed, and when it first observed it.
    seen_serving: AtomicU64,
    seen_next: AtomicU64,
    seen_at_us: AtomicU64,
}

impl SbusBroker {
    /// Creates a broker with all resources free and non-expiring leases
    /// (the pre-lease protocol on the fault-free path).
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `resources` is zero.
    #[must_use]
    pub fn new(workers: usize, resources: usize) -> Self {
        Self::build(workers, resources, None)
    }

    /// Creates a broker whose grants (and bus turns) expire `lease` after
    /// issue, making them reclaimable through [`Broker::reclaim_expired`].
    /// Choose the lease much longer than any honest hold or transmission
    /// time: a slower-than-lease holder is evicted as presumed dead.
    #[must_use]
    pub fn with_lease(workers: usize, resources: usize, lease: Duration) -> Self {
        Self::build(workers, resources, Some(lease))
    }

    fn build(workers: usize, resources: usize, lease: Option<Duration>) -> Self {
        assert!(workers > 0, "need at least one worker");
        assert!(resources > 0, "need at least one resource");
        SbusBroker {
            workers,
            free: AtomicU64::new(resources as u64),
            next_ticket: AtomicU64::new(0),
            serving: AtomicU64::new(0),
            bus: LeaseWord::new(),
            tickets: (0..workers).map(|_| AtomicU64::new(TICKET_NONE)).collect(),
            bus_generation: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            pool: LeasePool::new(resources, lease),
            seen_serving: AtomicU64::new(0),
            seen_next: AtomicU64::new(0),
            seen_at_us: AtomicU64::new(0),
        }
    }

    /// Current value of the broadcast status word.
    #[must_use]
    pub fn free_count(&self) -> u64 {
        self.free.load(Ordering::Acquire)
    }

    /// Tries to reserve one resource by decrementing the status word.
    fn try_reserve(&self) -> bool {
        let mut f = self.free.load(Ordering::Acquire);
        while f > 0 {
            match self
                .free
                .compare_exchange_weak(f, f - 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return true,
                Err(now) => f = now,
            }
        }
        false
    }

    /// One claim sweep over the vacancy set starting from `origin`
    /// (wrapping). Pools up to 64 slots pack their vacancy bits into one
    /// word and pick claim targets with the parallel-prefix rotating grant
    /// ([`rsin_bitslice::rotating_grant`]); wider pools run the equivalent
    /// rotated index sweep. Returns `None` when every vacancy seen was
    /// claimed by a faster reserver — the caller backs off and rescans.
    fn claim_slot_from(&self, who: WorkerId, origin: usize) -> Option<BrokerGrant> {
        let claim = |resource| {
            let generation = self.pool.try_claim(resource, who)?;
            Some(BrokerGrant {
                resource,
                generation,
            })
        };
        if let Some(mut vacant) = self.pool.vacancy_mask() {
            while vacant != 0 {
                let i = rsin_bitslice::rotating_grant(&[vacant], origin)?;
                if let Some(grant) = claim(i) {
                    return Some(grant);
                }
                // Lost that CAS — the slot is taken; grant from the rest.
                vacant &= !(1u64 << i);
            }
            None
        } else {
            let n = self.pool.len();
            (0..n)
                .map(|k| (origin + k) % n)
                .filter(|&i| self.pool.is_vacant(i))
                .find_map(claim)
        }
    }

    /// The vacate hook of every slot release and reclaim: the status-word
    /// repair. The vacated slot's credit returns to `free` unless a parked
    /// fault consumed the slot.
    fn return_credit(&self, vacated: Vacated) {
        if !vacated.to_faulted {
            self.free.fetch_add(1, Ordering::Release);
        }
    }

    /// Vacates the caller's bus lease and passes the turn on. Tolerates
    /// having already been evicted by the supervisor (`Stale`): the turn
    /// was passed by the reclaimer, so the caller only forgets its ticket.
    fn pass_bus(&self, who: WorkerId) {
        let ticket = self.tickets[who].load(Ordering::Acquire);
        let generation = self.bus_generation[who].load(Ordering::Acquire) as u32;
        match self.bus.begin_unclaim(who, generation) {
            UnclaimStart::Begun => {
                self.bus.finish_unclaim();
                if ticket != TICKET_NONE {
                    let _ = self.serving.compare_exchange(
                        ticket,
                        ticket + 1,
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                    );
                }
            }
            UnclaimStart::Stale => {}
            UnclaimStart::Foreign => unreachable!("bus generations are per-holder"),
        }
        if ticket != TICKET_NONE {
            let _ = self.tickets[who].compare_exchange(
                ticket,
                TICKET_NONE,
                Ordering::AcqRel,
                Ordering::Relaxed,
            );
        }
    }

    /// One supervisor pass at `now_us`: reclaim expired slot leases
    /// (repairing the status word), repair a dead transmitter's bus, and
    /// skip dead queued tickets.
    fn reclaim_at(
        &self,
        now_us: u64,
        skip_queued: bool,
        audit: &mut dyn FnMut(usize, WorkerId),
    ) -> usize {
        let reclaimed = self
            .pool
            .reclaim(now_us, audit, |_, vacated| self.return_credit(vacated));
        if let Some(dead) = self.bus.begin_reclaim(now_us) {
            self.bus.finish_unclaim();
            let ticket = self.tickets[dead].load(Ordering::Acquire);
            if ticket != TICKET_NONE {
                let _ = self.serving.compare_exchange(
                    ticket,
                    ticket + 1,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
                let _ = self.tickets[dead].compare_exchange(
                    ticket,
                    TICKET_NONE,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
            }
        }
        if skip_queued {
            self.skip_dead_tickets(now_us);
        }
        reclaimed
    }

    /// Detects a wedged ticket queue — tickets waiting, bus vacant,
    /// nothing moving for a full lease — and skips the presumed-dead
    /// ticket at the head.
    fn skip_dead_tickets(&self, now_us: u64) {
        let serving = self.serving.load(Ordering::Acquire);
        let next = self.next_ticket.load(Ordering::Relaxed);
        if serving != self.seen_serving.load(Ordering::Relaxed)
            || next != self.seen_next.load(Ordering::Relaxed)
        {
            self.seen_serving.store(serving, Ordering::Relaxed);
            self.seen_next.store(next, Ordering::Relaxed);
            self.seen_at_us.store(now_us, Ordering::Relaxed);
            return;
        }
        let stalled_for = now_us.saturating_sub(self.seen_at_us.load(Ordering::Relaxed));
        if serving < next
            && lease::owner_of(self.bus.load()) == NO_OWNER
            && stalled_for >= self.pool.clock().lease_us()
            && self
                .serving
                .compare_exchange(serving, serving + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            self.seen_serving.store(serving + 1, Ordering::Relaxed);
            self.seen_at_us.store(now_us, Ordering::Relaxed);
        }
    }

    /// One bus turn for `who`: snoop the status word, queue for the bus,
    /// and confirm a resource at bus-grant time. `ctl` is the blocking
    /// caller's control (`None` for a probe, which cannot be stopped).
    fn attempt(&self, who: WorkerId, ctl: Option<&RunControl>) -> Attempt {
        debug_assert!(who < self.workers, "worker id out of range");
        const LOST: Attempt = Attempt::Retry { progressed: false };
        // Phase 1: snoop the broadcast status word; don't even request the
        // bus while it reads zero (the paper's retry-on-status-change). An
        // exhausted pool is answered from the status word alone, without
        // queueing for the bus — the cheap-probe property the sharded
        // overflow path depends on.
        if self.free.load(Ordering::Acquire) == 0 {
            return LOST;
        }
        // Phase 2: queue for the bus. Once the ticket is taken the turn
        // must be waited out even on stop — tickets ahead of us are either
        // transmissions (which end) or probes/aborters (which pass), so the
        // wait is bounded and skipping our own pass would wedge everyone
        // behind us. The only other exit is the supervisor skipping us as
        // presumed dead, in which case the attempt is lost.
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        self.tickets[who].store(ticket, Ordering::Release);
        let mut bus_wait = Waiter::new();
        let reached_turn = loop {
            let s = self.serving.load(Ordering::Acquire);
            if s == ticket {
                break true;
            }
            if s > ticket {
                break false;
            }
            bus_wait.wait();
        };
        if !reached_turn {
            self.tickets[who].store(TICKET_NONE, Ordering::Release);
            return LOST;
        }
        if ctl.is_some_and(RunControl::is_stopped) {
            let _ = self.serving.compare_exchange(
                ticket,
                ticket + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            );
            self.tickets[who].store(TICKET_NONE, Ordering::Release);
            return Attempt::Stopped;
        }
        // Our turn: claim the bus lease. The previous transmitter may
        // still be mid-vacate (its lease word in the RECLAIMING phase) —
        // retry with capped backoff; stand down if the supervisor skips us
        // meanwhile.
        let mut claim_wait = Waiter::new();
        let bus_generation = loop {
            if let Some(g) = self
                .bus
                .try_claim(who, self.pool.clock().deadline_from_now())
            {
                break Some(g);
            }
            if self.serving.load(Ordering::Acquire) != ticket {
                break None;
            }
            claim_wait.wait();
        };
        let Some(bus_generation) = bus_generation else {
            self.tickets[who].store(TICKET_NONE, Ordering::Release);
            return LOST;
        };
        self.bus_generation[who].store(u64::from(bus_generation), Ordering::Release);
        // Phase 3: with the bus held, confirm the resource the status word
        // advertised. Reserving at bus-grant time is what keeps the runtime
        // equivalent to the model, where a processor is granted only when
        // bus AND resource are free at the same instant; losing the race
        // just passes the bus on, so the bus itself never blocks on busy
        // resources.
        if !self.try_reserve() {
            self.pass_bus(who);
            return LOST;
        }
        // The reservation guarantees a vacant slot exists; contend for one.
        // Each worker sweeps from its own home origin, spread evenly across
        // the pool, so concurrent reservers fan out over distinct slots
        // instead of piling onto slot 0 and fighting the same CAS. A failed
        // sweep only ever means other reservers claimed every vacancy it
        // saw — rescan. On a grant the bus stays held through the
        // transmission phase; the caller owes `end_transmission`.
        let origin = who * self.pool.len() / self.workers;
        let mut scan = Waiter::new();
        loop {
            if let Some(grant) = self.claim_slot_from(who, origin) {
                return Attempt::Granted(grant);
            }
            scan.wait();
        }
    }
}

impl Broker for SbusBroker {
    fn workers(&self) -> usize {
        self.workers
    }

    fn resources(&self) -> usize {
        self.pool.len()
    }

    fn acquire(&self, who: WorkerId, ctl: &RunControl) -> Option<BrokerGrant> {
        retry(ctl, |_| self.attempt(who, Some(ctl)))
    }

    fn try_acquire(&self, who: WorkerId) -> Option<BrokerGrant> {
        self.attempt(who, None).grant()
    }

    fn end_transmission(&self, who: WorkerId, _grant: BrokerGrant) {
        // Transmission done: vacate the bus lease and pass the turn on.
        self.pass_bus(who);
    }

    fn release_audited(
        &self,
        who: WorkerId,
        grant: BrokerGrant,
        audit: &mut dyn FnMut(usize, WorkerId),
    ) -> ReleaseOutcome {
        self.pool
            .release(who, grant, audit, |_, vacated| self.return_credit(vacated))
    }

    fn reclaim_expired(&self, audit: &mut dyn FnMut(usize, WorkerId)) -> usize {
        self.pool
            .expiry_now()
            .map_or(0, |now_us| self.reclaim_at(now_us, true, audit))
    }

    fn reclaim_all(&self, audit: &mut dyn FnMut(usize, WorkerId)) -> usize {
        // `u64::MAX` beats every deadline — shutdown only, workers joined.
        self.reclaim_at(u64::MAX, false, audit)
    }

    fn set_resource_faulted(&self, resource: usize, down: bool) {
        if !down {
            if self.pool.repair(resource) == lease::RepairOutcome::Repaired {
                // The repaired slot is grantable again: its credit returns
                // to the status word.
                self.free.fetch_add(1, Ordering::Release);
            }
            return;
        }
        // Faulting must keep the reservation invariant `free <= vacant
        // slots` at all times, so a vacant slot's credit is *reserved
        // first* and only then converted into the fault. If the slot gets
        // claimed between the two steps, the fault parks on the holder
        // (whose own reservation pays for the slot) and our excess
        // reservation is refunded.
        let mut waiter = Waiter::new();
        loop {
            match self.pool.owner(resource) {
                lease::FAULTED => return,
                NO_OWNER => {
                    if self.try_reserve() {
                        match self.pool.fault(resource) {
                            lease::FaultOutcome::WasVacant => return,
                            lease::FaultOutcome::Parked | lease::FaultOutcome::AlreadyFaulted => {
                                self.free.fetch_add(1, Ordering::Release);
                                return;
                            }
                        }
                    }
                    // free == 0 with a vacant slot is a transient: an
                    // in-flight reserver is about to claim some slot.
                    // Retry with backoff.
                    waiter.wait();
                }
                _ => {
                    // Held or mid-reclaim: park the fault on the word; it
                    // applies (and consumes the holder's credit) when the
                    // slot vacates.
                    if self.pool.fault(resource) != lease::FaultOutcome::WasVacant {
                        return;
                    }
                    // The slot vacated between the load and the fault —
                    // it went vacant→FAULTED without a reserved credit;
                    // undo and retry through the vacant path.
                    self.pool.repair(resource);
                    waiter.wait();
                }
            }
        }
    }

    fn available_resources(&self) -> usize {
        self.pool.available()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_every_resource_then_blocks_until_stopped() {
        let b = SbusBroker::new(4, 2);
        let ctl = RunControl::new();
        let g0 = b.acquire(0, &ctl).expect("free");
        b.end_transmission(0, g0);
        let g1 = b.acquire(1, &ctl).expect("free");
        b.end_transmission(1, g1);
        assert_ne!(g0.resource, g1.resource, "distinct resources");
        assert_eq!(b.free_count(), 0);
        // A third acquire blocks on the empty status word; stopping the
        // control unblocks it as None.
        std::thread::scope(|s| {
            let handle = s.spawn(|| b.acquire(2, &ctl));
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!handle.is_finished(), "must block while free == 0");
            ctl.stop();
            assert_eq!(handle.join().expect("no panic"), None);
        });
        b.release(0, g0);
        b.release(1, g1);
        assert_eq!(b.free_count(), 2);
        assert_eq!(b.available_resources(), 2);
    }

    #[test]
    fn bus_is_held_through_transmission() {
        let b = SbusBroker::new(2, 2);
        let ctl = RunControl::new();
        let g = b.acquire(0, &ctl).expect("free");
        // Worker 1's ticket is behind worker 0's un-passed bus even though
        // a resource is free; end_transmission passes the bus on.
        std::thread::scope(|s| {
            let handle = s.spawn(|| b.acquire(1, &ctl));
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!handle.is_finished(), "must block while the bus is held");
            b.end_transmission(0, g);
            let g1 = handle.join().expect("no panic").expect("granted");
            b.end_transmission(1, g1);
            b.release(1, g1);
        });
        b.release(0, g);
    }

    #[test]
    fn stopped_control_rejects_before_taking_a_ticket() {
        let b = SbusBroker::new(2, 1);
        let ctl = RunControl::new();
        ctl.stop();
        assert_eq!(b.acquire(0, &ctl), None);
        assert_eq!(b.next_ticket.load(Ordering::Relaxed), 0, "no ticket hole");
        assert_eq!(b.free_count(), 1, "no reservation leaked");
    }

    #[test]
    fn reclaim_repairs_slot_bus_and_status_word() {
        let b = SbusBroker::with_lease(3, 2, Duration::from_micros(1));
        let ctl = RunControl::new();
        // Worker 0 "dies" mid-transmission: holds a slot AND the bus.
        let g = b.acquire(0, &ctl).expect("free");
        std::thread::sleep(Duration::from_millis(2));
        let mut evicted = Vec::new();
        let n = b.reclaim_expired(&mut |res, who| evicted.push((res, who)));
        assert_eq!(n, 1);
        assert_eq!(evicted, vec![(g.resource, 0)]);
        assert_eq!(b.free_count(), 2, "status word repaired");
        assert_eq!(b.available_resources(), 2);
        // The queue is not wedged: another worker acquires normally.
        let g1 = b.acquire(1, &ctl).expect("bus repaired");
        b.end_transmission(1, g1);
        // The dead worker's late protocol calls are harmlessly stale.
        b.end_transmission(0, g);
        assert_eq!(
            b.release_audited(0, g, &mut |_, _| {}),
            ReleaseOutcome::Stale
        );
        b.release(1, g1);
        assert_eq!(b.free_count(), 2);
    }

    #[test]
    fn dead_queued_ticket_is_skipped_after_a_full_lease() {
        let b = SbusBroker::with_lease(2, 1, Duration::from_micros(500));
        // Simulate a worker that died right after taking a ticket: the
        // queue head never claims the bus.
        let dead_ticket = b.next_ticket.fetch_add(1, Ordering::Relaxed);
        b.tickets[0].store(dead_ticket, Ordering::Release);
        // First supervisor pass arms the watchdog; a pass after a full
        // lease of no movement skips the dead ticket.
        b.reclaim_expired(&mut |_, _| {});
        assert_eq!(b.serving.load(Ordering::Relaxed), 0, "armed, not skipped");
        std::thread::sleep(Duration::from_millis(2));
        b.reclaim_expired(&mut |_, _| {});
        assert_eq!(b.serving.load(Ordering::Relaxed), 1, "dead ticket skipped");
        // The queue works again end to end.
        let ctl = RunControl::new();
        let g = b.acquire(1, &ctl).expect("queue unwedged");
        b.end_transmission(1, g);
        b.release(1, g);
    }

    #[test]
    fn faulting_a_vacant_slot_consumes_its_credit() {
        let b = SbusBroker::new(2, 2);
        b.set_resource_faulted(0, true);
        assert_eq!(b.free_count(), 1, "fault consumed one credit");
        assert_eq!(b.available_resources(), 1);
        b.set_resource_faulted(0, false);
        assert_eq!(b.free_count(), 2, "repair returned it");
    }

    #[test]
    fn fault_parked_on_a_held_slot_applies_at_release() {
        let b = SbusBroker::new(2, 1);
        let ctl = RunControl::new();
        let g = b.acquire(0, &ctl).expect("free");
        b.end_transmission(0, g);
        b.set_resource_faulted(g.resource, true);
        assert_eq!(b.free_count(), 0, "holder's credit already out");
        b.release(0, g);
        assert_eq!(b.free_count(), 0, "credit consumed by the parked fault");
        assert_eq!(b.available_resources(), 0);
        b.set_resource_faulted(g.resource, false);
        assert_eq!(b.free_count(), 1);
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn foreign_release_is_a_protocol_violation() {
        let b = SbusBroker::new(2, 1);
        let ctl = RunControl::new();
        let g = b.acquire(0, &ctl).expect("free");
        b.end_transmission(0, g);
        b.release(1, g);
    }

    #[test]
    fn try_acquire_grants_then_fails_fast_on_exhaustion() {
        let b = SbusBroker::new(2, 1);
        let g = b.try_acquire(0).expect("pool has a slot");
        b.end_transmission(0, g);
        // Exhausted: the probe answers from the status word without
        // queueing for the bus.
        let tickets_before = b.next_ticket.load(Ordering::Relaxed);
        assert_eq!(b.try_acquire(1), None);
        assert_eq!(
            b.next_ticket.load(Ordering::Relaxed),
            tickets_before,
            "no ticket taken for an exhausted-pool probe"
        );
        b.release(0, g);
        let g1 = b.try_acquire(1).expect("freed slot grantable again");
        b.end_transmission(1, g1);
        b.release(1, g1);
        assert_eq!(b.free_count(), 1);
    }
}
