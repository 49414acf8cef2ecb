//! Generation-tagged lease words: the crash-tolerance primitive behind
//! every grant in this crate.
//!
//! A plain claim word (`VACANT` or the holder's id) cannot survive a
//! crashed holder: whoever reclaims the slot races the holder's own
//! late release, and a bare CAS on the owner id is ABA-prone — the slot
//! could have been reclaimed *and re-granted* between the holder's claim
//! and its release. A [`LeaseWord`] closes both holes by packing three
//! fields into one atomic word:
//!
//! ```text
//!   63            32 31      24 23            0
//!   +---------------+----------+---------------+
//!   |  generation   |  flags   |     owner     |
//!   +---------------+----------+---------------+
//! ```
//!
//! - **generation** increments on *every* ownership transition, so any
//!   CAS keyed on the full word is immune to ABA: a grant is a
//!   `(resource, generation)` pair, and a release or reclaim with a stale
//!   generation fails instead of corrupting a newer grant.
//! - **owner** is either a real [`WorkerId`] or one of three sentinels:
//!   [`NO_OWNER`] (claimable), [`FAULTED`] (taken out of service by a
//!   fault schedule), or [`RECLAIMING`] (mid-reclaim — unclaimable, so
//!   the reclaimer can update external bookkeeping such as the audit
//!   [`Ledger`](crate::loadgen::Ledger) before the slot becomes
//!   grantable again; without this intermediate state a new claimant
//!   could re-grant the slot *before* the reclaimer records the old
//!   grant's end, and the audit would count a phantom double grant).
//! - **flags** currently hold one bit, `PENDING_FAULT`: a fault event
//!   that strikes a *held* slot cannot take it away from the holder
//!   mid-service, so the fault is parked in the word itself and applied
//!   by whichever release/reclaim vacates the slot. Keeping the bit in
//!   the same word as the owner makes "vacate to FAULTED instead of
//!   NO_OWNER" a single atomic decision — there is no window in which a
//!   repair and a release can disagree about the slot's fate.
//!
//! Each word is paired with a **deadline** (microseconds on the owning
//! broker's [`LeaseClock`]): the claimant stores `now + lease` around its
//! claim CAS, and a supervisor reclaims any slot whose deadline has
//! passed. Two claimants may race their deadline stores, but both compute
//! `now + lease` from the same clock within scheduler jitter of each
//! other, and only the CAS winner's grant exists — the deadline is
//! approximate by design and the generation CAS is what carries the
//! safety argument. A broker built without leases stores [`NEVER`] and is
//! never reclaimed, preserving the pre-lease semantics (and cost) of the
//! protocols on the fault-free path.
//!
//! ## One pool per broker
//!
//! The three distributed disciplines keep their resource words in one
//! crate-private `LeasePool`: the words plus the broker's clock, with
//! claim, the audited two-phase release, reclaim, fault and repair, the
//! vacancy mask and the availability count written once. A discipline
//! passes in only what its own protocol does when a slot vacates — the
//! crossbar passes its token, the shared bus returns the slot's credit to
//! its status word — and Omega sweeps a dead holder's route inside the
//! reclaim audit hook, while the slot is still `RECLAIMING`.
//!
//! ## Memory ordering
//!
//! Ownership transitions are `AcqRel` CASes on the word, exactly like the
//! plain claim words they replace: a claimant's `Acquire` pairs with the
//! vacating `Release`, so whatever the previous holder wrote while
//! holding the resource is visible to the next. Deadline stores are
//! `Release`/`Acquire` around the word CAS; they influence only *when*
//! a reclaim is attempted, never whether it is safe — safety is the
//! generation CAS alone. The two transitions that make a slot claimable
//! — the vacate of [`LeaseWord::finish_unclaim`] and the repair of
//! [`LeaseWord::clear_faulted`] — are `SeqCst`, so a `SeqCst` load a
//! vacate hook makes afterwards cannot be ordered before them: the
//! crossbar's wake reads its parked mask that way (Dekker's handshake
//! against a waiter's fence, see the `xbar` module). On x86-64 and
//! AArch64 an `AcqRel` read-modify-write already compiles to the same
//! instruction, so this costs nothing.

use crate::{BrokerGrant, ReleaseOutcome, WorkerId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Owner sentinel: the slot is vacant and claimable.
pub const NO_OWNER: u32 = 0x00FF_FFFF;
/// Owner sentinel: the slot is out of service (a fault schedule holds it).
pub const FAULTED: u32 = 0x00FF_FFFE;
/// Owner sentinel: a reclaim or audited release is in progress; the slot
/// is not claimable until it completes.
pub const RECLAIMING: u32 = 0x00FF_FFFD;
/// Real worker ids must stay below every sentinel.
pub const MAX_OWNER: u32 = 0x00FF_F000;

/// Deadline sentinel: the lease never expires (leases disabled).
pub const NEVER: u64 = u64::MAX;

const OWNER_MASK: u64 = 0x00FF_FFFF;
const PENDING_FAULT: u64 = 1 << 24;

#[inline]
fn pack(generation: u32, flags: u64, owner: u32) -> u64 {
    (u64::from(generation) << 32) | flags | u64::from(owner)
}

/// Generation field of a packed lease word.
#[inline]
#[must_use]
pub fn generation_of(word: u64) -> u32 {
    (word >> 32) as u32
}

/// Owner field of a packed lease word.
#[inline]
#[must_use]
pub fn owner_of(word: u64) -> u32 {
    (word & OWNER_MASK) as u32
}

/// Whether the packed word carries a parked fault.
#[inline]
#[must_use]
pub fn fault_pending(word: u64) -> bool {
    word & PENDING_FAULT != 0
}

/// Whether the owner field is a real worker (not a sentinel).
#[inline]
#[must_use]
pub fn is_held(word: u64) -> bool {
    owner_of(word) < MAX_OWNER
}

/// Monotonic clock of one broker: lease deadlines are microseconds on
/// this clock, so they fit an atomic word without `Instant` gymnastics.
#[derive(Debug)]
pub struct LeaseClock {
    epoch: Instant,
    lease_us: u64,
}

impl LeaseClock {
    /// A clock whose leases last `lease`; `None` disables expiry.
    #[must_use]
    pub fn new(lease: Option<Duration>) -> Self {
        LeaseClock {
            epoch: Instant::now(),
            lease_us: lease.map_or(NEVER, |d| {
                u64::try_from(d.as_micros()).unwrap_or(NEVER).max(1)
            }),
        }
    }

    /// Microseconds elapsed since the broker was built.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(NEVER)
    }

    /// The deadline a claim made right now should carry.
    #[must_use]
    pub fn deadline_from_now(&self) -> u64 {
        if self.lease_us == NEVER {
            NEVER
        } else {
            self.now_us().saturating_add(self.lease_us)
        }
    }

    /// Whether leases can expire at all.
    #[must_use]
    pub fn leases_expire(&self) -> bool {
        self.lease_us != NEVER
    }

    /// The lease duration in microseconds ([`NEVER`] when disabled).
    #[must_use]
    pub fn lease_us(&self) -> u64 {
        self.lease_us
    }
}

/// Outcome of [`LeaseWord::begin_unclaim`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnclaimStart {
    /// The caller owns the `RECLAIMING` phase and must call
    /// [`LeaseWord::finish_unclaim`].
    Begun,
    /// The grant's generation is stale — the slot was already reclaimed
    /// (and possibly re-granted). Nothing to do.
    Stale,
    /// Same generation, different owner: a forged or cross-worker release.
    /// Callers treat this as a protocol violation.
    Foreign,
}

/// Outcome of a completed release/reclaim, surfaced through
/// [`crate::ReleaseOutcome`] by the brokers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Vacated {
    /// The slot went to `FAULTED` (a parked fault applied) instead of
    /// `NO_OWNER`; SBUS must *not* return the slot's credit to the
    /// broadcast free count in that case.
    pub to_faulted: bool,
}

/// What [`LeaseWord::set_faulted`] found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The slot was vacant and is now `FAULTED`.
    WasVacant,
    /// The slot is held (or mid-reclaim); the fault was parked in the
    /// `PENDING_FAULT` bit and will apply when the slot vacates.
    Parked,
    /// The slot was already `FAULTED`.
    AlreadyFaulted,
}

/// What [`LeaseWord::clear_faulted`] found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairOutcome {
    /// The slot was `FAULTED` and is vacant again (SBUS must return its
    /// credit to the free count).
    Repaired,
    /// A parked fault was cancelled before it applied.
    Unparked,
    /// The slot was healthy; nothing changed.
    Nothing,
}

/// One generation-tagged claim word plus its lease deadline.
#[derive(Debug)]
pub struct LeaseWord {
    word: AtomicU64,
    deadline_us: AtomicU64,
}

impl Default for LeaseWord {
    fn default() -> Self {
        LeaseWord {
            word: AtomicU64::new(pack(0, 0, NO_OWNER)),
            deadline_us: AtomicU64::new(NEVER),
        }
    }
}

impl LeaseWord {
    /// A vacant, never-expiring word.
    #[must_use]
    pub fn new() -> Self {
        LeaseWord::default()
    }

    /// Raw packed word (decode with [`generation_of`] / [`owner_of`]).
    #[must_use]
    pub fn load(&self) -> u64 {
        self.word.load(Ordering::Acquire)
    }

    /// Tries to claim a vacant slot for `who`, stamping `deadline_us`.
    /// Returns the generation the resulting grant must carry.
    pub fn try_claim(&self, who: WorkerId, deadline_us: u64) -> Option<u32> {
        debug_assert!(
            (who as u32) < MAX_OWNER,
            "worker id collides with sentinels"
        );
        let cur = self.word.load(Ordering::Acquire);
        if owner_of(cur) != NO_OWNER {
            return None;
        }
        // Stamp the deadline before publishing ownership so the reclaimer
        // can never observe the new owner with the previous grant's
        // (long-expired) deadline. A losing claimant's store merely
        // rewrites an equivalent `now + lease`.
        self.deadline_us.store(deadline_us, Ordering::Release);
        let gen = generation_of(cur).wrapping_add(1);
        let next = pack(gen, 0, who as u32);
        if self
            .word
            .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.deadline_us.store(deadline_us, Ordering::Release);
            Some(gen)
        } else {
            None
        }
    }

    /// First phase of a release: move `(generation, who)` to
    /// `RECLAIMING` so external bookkeeping can run before the slot is
    /// claimable again.
    pub fn begin_unclaim(&self, who: WorkerId, generation: u32) -> UnclaimStart {
        let mut cur = self.word.load(Ordering::Acquire);
        loop {
            if generation_of(cur) != generation {
                return UnclaimStart::Stale;
            }
            if owner_of(cur) != who as u32 {
                return UnclaimStart::Foreign;
            }
            let next = pack(generation.wrapping_add(1), cur & PENDING_FAULT, RECLAIMING);
            match self
                .word
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return UnclaimStart::Begun,
                Err(now) => cur = now,
            }
        }
    }

    /// First phase of a *reclaim*: if the slot is held and its lease has
    /// expired at `now_us`, move it to `RECLAIMING` and return the evicted
    /// holder. The caller must then call [`LeaseWord::finish_unclaim`].
    pub fn begin_reclaim(&self, now_us: u64) -> Option<WorkerId> {
        let mut cur = self.word.load(Ordering::Acquire);
        loop {
            if !is_held(cur) {
                return None;
            }
            if self.deadline_us.load(Ordering::Acquire) > now_us {
                return None;
            }
            let owner = owner_of(cur);
            let next = pack(
                generation_of(cur).wrapping_add(1),
                cur & PENDING_FAULT,
                RECLAIMING,
            );
            match self
                .word
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Some(owner as WorkerId),
                Err(now) => cur = now,
            }
        }
    }

    /// Second phase: vacate the `RECLAIMING` slot, applying a parked
    /// fault if one arrived at any point before this instant.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not in the `RECLAIMING` state — only the
    /// thread that won `begin_unclaim`/`begin_reclaim` may call this.
    pub fn finish_unclaim(&self) -> Vacated {
        let mut cur = self.word.load(Ordering::Acquire);
        loop {
            assert_eq!(
                owner_of(cur),
                RECLAIMING,
                "finish_unclaim without owning the reclaim phase"
            );
            let to_faulted = fault_pending(cur);
            let owner = if to_faulted { FAULTED } else { NO_OWNER };
            let next = pack(generation_of(cur).wrapping_add(1), 0, owner);
            match self
                .word
                .compare_exchange_weak(cur, next, Ordering::SeqCst, Ordering::Acquire)
            {
                Ok(_) => return Vacated { to_faulted },
                Err(now) => cur = now,
            }
        }
    }

    /// Applies a fault event: vacant slots go straight to `FAULTED`;
    /// held (or mid-reclaim) slots get the fault parked in the word.
    pub fn set_faulted(&self) -> FaultOutcome {
        let mut cur = self.word.load(Ordering::Acquire);
        loop {
            let next = match owner_of(cur) {
                FAULTED => return FaultOutcome::AlreadyFaulted,
                NO_OWNER => pack(generation_of(cur).wrapping_add(1), 0, FAULTED),
                _ => {
                    if fault_pending(cur) {
                        return FaultOutcome::Parked;
                    }
                    cur | PENDING_FAULT
                }
            };
            match self
                .word
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    return if owner_of(cur) == NO_OWNER {
                        FaultOutcome::WasVacant
                    } else {
                        FaultOutcome::Parked
                    }
                }
                Err(now) => cur = now,
            }
        }
    }

    /// Applies a repair event: un-faults the slot or cancels a parked
    /// fault, whichever is in effect.
    pub fn clear_faulted(&self) -> RepairOutcome {
        let mut cur = self.word.load(Ordering::Acquire);
        loop {
            let (next, outcome) = match owner_of(cur) {
                FAULTED => (
                    pack(generation_of(cur).wrapping_add(1), 0, NO_OWNER),
                    RepairOutcome::Repaired,
                ),
                _ if fault_pending(cur) => (cur & !PENDING_FAULT, RepairOutcome::Unparked),
                _ => return RepairOutcome::Nothing,
            };
            match self
                .word
                .compare_exchange_weak(cur, next, Ordering::SeqCst, Ordering::Acquire)
            {
                Ok(_) => return outcome,
                Err(now) => cur = now,
            }
        }
    }
}

/// The per-resource lease words of one broker and the clock their
/// deadlines run on (see the module docs). A discipline's
/// `vacated(holder, outcome)` hook runs after the slot is vacant again, in
/// release and reclaim alike.
#[derive(Debug)]
pub(crate) struct LeasePool {
    slots: Vec<LeaseWord>,
    clock: LeaseClock,
}

impl LeasePool {
    /// `resources` vacant slots whose grants last `lease` (`None`: never
    /// expire).
    pub(crate) fn new(resources: usize, lease: Option<Duration>) -> Self {
        LeasePool {
            slots: (0..resources).map(|_| LeaseWord::new()).collect(),
            clock: LeaseClock::new(lease),
        }
    }

    /// Number of slots.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The clock grant deadlines run on.
    pub(crate) fn clock(&self) -> &LeaseClock {
        &self.clock
    }

    /// Owner field of slot `resource` (a worker or a sentinel).
    pub(crate) fn owner(&self, resource: usize) -> u32 {
        owner_of(self.slots[resource].load())
    }

    /// Whether slot `resource` is claimable right now.
    pub(crate) fn is_vacant(&self, resource: usize) -> bool {
        self.owner(resource) == NO_OWNER
    }

    /// The vacant slots as one bit per slot, for pools of at most 64
    /// slots (`None` for wider pools, which scan slot by slot).
    pub(crate) fn vacancy_mask(&self) -> Option<u64> {
        (self.slots.len() <= 64).then(|| {
            let mut vacant = 0u64;
            for (i, slot) in self.slots.iter().enumerate() {
                vacant |= u64::from(owner_of(slot.load()) == NO_OWNER) << i;
            }
            vacant
        })
    }

    /// Number of claimable slots.
    pub(crate) fn available(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| owner_of(s.load()) == NO_OWNER)
            .count()
    }

    /// Tries to claim slot `resource` for `who` with a lease starting
    /// now; returns the generation the grant carries.
    pub(crate) fn try_claim(&self, resource: usize, who: WorkerId) -> Option<u32> {
        self.slots[resource].try_claim(who, self.clock.deadline_from_now())
    }

    /// The audited two-phase release: `audit(resource, who)` runs while
    /// the slot is `RECLAIMING`, then the slot vacates and `vacated` runs.
    ///
    /// # Panics
    ///
    /// Panics if the grant's generation is live but held by another
    /// worker.
    pub(crate) fn release(
        &self,
        who: WorkerId,
        grant: BrokerGrant,
        audit: &mut dyn FnMut(usize, WorkerId),
        vacated: impl FnOnce(WorkerId, Vacated),
    ) -> ReleaseOutcome {
        let slot = &self.slots[grant.resource];
        match slot.begin_unclaim(who, grant.generation) {
            UnclaimStart::Begun => {
                audit(grant.resource, who);
                vacated(who, slot.finish_unclaim());
                ReleaseOutcome::Released
            }
            UnclaimStart::Stale => ReleaseOutcome::Stale,
            UnclaimStart::Foreign => panic!(
                "release of resource {} by worker {who} who does not hold it",
                grant.resource
            ),
        }
    }

    /// The instant [`crate::Broker::reclaim_expired`] evicts at: now on
    /// the pool's clock, or `None` when leases never expire.
    pub(crate) fn expiry_now(&self) -> Option<u64> {
        self.clock.leases_expire().then(|| self.clock.now_us())
    }

    /// Evicts every holder whose lease deadline is at or before `now_us`
    /// (`u64::MAX` evicts all): per slot, `audit(resource, holder)` runs
    /// while the slot is `RECLAIMING`, then the slot vacates and `vacated`
    /// runs. Returns the number evicted.
    pub(crate) fn reclaim(
        &self,
        now_us: u64,
        audit: &mut dyn FnMut(usize, WorkerId),
        vacated: impl Fn(WorkerId, Vacated),
    ) -> usize {
        let mut reclaimed = 0;
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(dead) = slot.begin_reclaim(now_us) {
                audit(i, dead);
                vacated(dead, slot.finish_unclaim());
                reclaimed += 1;
            }
        }
        reclaimed
    }

    /// Applies a fault to slot `resource` (parked if the slot is held).
    pub(crate) fn fault(&self, resource: usize) -> FaultOutcome {
        self.slots[resource].set_faulted()
    }

    /// Repairs slot `resource`, or cancels its parked fault.
    pub(crate) fn repair(&self, resource: usize) -> RepairOutcome {
        self.slots[resource].clear_faulted()
    }

    /// [`LeasePool::fault`] (`down`) or [`LeasePool::repair`], for
    /// disciplines with no credit to settle.
    pub(crate) fn set_faulted(&self, resource: usize, down: bool) {
        if down {
            self.fault(resource);
        } else {
            self.repair(resource);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_release_round_trip_bumps_generations() {
        let w = LeaseWord::new();
        let g = w.try_claim(3, NEVER).expect("vacant");
        assert_eq!(owner_of(w.load()), 3);
        assert_eq!(w.try_claim(4, NEVER), None, "held slots refuse claims");
        assert_eq!(w.begin_unclaim(3, g), UnclaimStart::Begun);
        assert_eq!(owner_of(w.load()), RECLAIMING);
        assert_eq!(w.try_claim(4, NEVER), None, "RECLAIMING refuses claims");
        assert!(!w.finish_unclaim().to_faulted);
        assert_eq!(owner_of(w.load()), NO_OWNER);
        let g2 = w.try_claim(4, NEVER).expect("vacant again");
        assert!(g2 > g, "generation advances across the cycle");
        assert_eq!(w.begin_unclaim(4, g2), UnclaimStart::Begun);
        w.finish_unclaim();
    }

    #[test]
    fn stale_and_foreign_unclaims_are_distinguished() {
        let w = LeaseWord::new();
        // Deadline 0: the lease is expired from the start.
        let g = w.try_claim(1, 0).expect("vacant");
        assert_eq!(w.begin_unclaim(2, g), UnclaimStart::Foreign);
        // Reclaim (expired lease), then the holder's own release is stale.
        assert_eq!(w.begin_reclaim(1), Some(1));
        w.finish_unclaim();
        assert_eq!(w.begin_unclaim(1, g), UnclaimStart::Stale);
    }

    #[test]
    fn reclaim_refuses_unexpired_and_vacant_slots() {
        let w = LeaseWord::new();
        assert_eq!(w.begin_reclaim(u64::MAX - 1), None, "vacant");
        let _g = w.try_claim(0, 1_000).expect("vacant");
        assert_eq!(w.begin_reclaim(999), None, "not yet expired");
        assert_eq!(w.begin_reclaim(1_000), Some(0), "expired at the deadline");
        w.finish_unclaim();
    }

    #[test]
    fn generation_cas_refuses_reclaim_after_legit_release() {
        // The poll-window race of the issue: the supervisor observed an
        // expired (gen, owner) pair, but the holder releases first. The
        // begin_reclaim retry re-reads the word and must find it vacant.
        let w = LeaseWord::new();
        let g = w.try_claim(5, 10).expect("vacant");
        assert_eq!(w.begin_unclaim(5, g), UnclaimStart::Begun);
        w.finish_unclaim();
        assert_eq!(w.begin_reclaim(u64::MAX - 1), None, "stale reclaim refused");
    }

    #[test]
    fn parked_fault_applies_on_whichever_vacate_runs() {
        let w = LeaseWord::new();
        let g = w.try_claim(2, NEVER).expect("vacant");
        assert_eq!(w.set_faulted(), FaultOutcome::Parked);
        assert_eq!(w.set_faulted(), FaultOutcome::Parked, "idempotent");
        assert_eq!(w.begin_unclaim(2, g), UnclaimStart::Begun);
        assert!(w.finish_unclaim().to_faulted, "fault applies at vacate");
        assert_eq!(owner_of(w.load()), FAULTED);
        assert_eq!(w.try_claim(0, NEVER), None, "FAULTED refuses claims");
        assert_eq!(w.clear_faulted(), RepairOutcome::Repaired);
        assert!(w.try_claim(0, NEVER).is_some());
    }

    #[test]
    fn fault_and_repair_on_vacant_and_healthy_slots() {
        let w = LeaseWord::new();
        assert_eq!(w.clear_faulted(), RepairOutcome::Nothing);
        assert_eq!(w.set_faulted(), FaultOutcome::WasVacant);
        assert_eq!(w.set_faulted(), FaultOutcome::AlreadyFaulted);
        assert_eq!(w.clear_faulted(), RepairOutcome::Repaired);
        let g = w.try_claim(1, NEVER).expect("vacant");
        assert_eq!(w.set_faulted(), FaultOutcome::Parked);
        assert_eq!(w.clear_faulted(), RepairOutcome::Unparked, "cancelled");
        assert_eq!(w.begin_unclaim(1, g), UnclaimStart::Begun);
        assert!(!w.finish_unclaim().to_faulted, "no fault left to apply");
    }

    #[test]
    fn pool_audits_while_reclaiming_and_runs_the_hook_after_vacate() {
        let pool = LeasePool::new(2, None);
        assert_eq!(pool.expiry_now(), None, "leases never expire");
        let generation = pool.try_claim(1, 7).expect("vacant");
        let grant = BrokerGrant {
            resource: 1,
            generation,
        };
        let mut audited = Vec::new();
        let mut audit = |r, w| audited.push((r, w, pool.owner(r)));
        let hook =
            |w, v: Vacated| assert_eq!((w, v.to_faulted, pool.owner(1)), (7, false, NO_OWNER));
        assert_eq!(
            pool.release(7, grant, &mut audit, hook),
            ReleaseOutcome::Released
        );
        assert_eq!(
            pool.release(7, grant, &mut audit, hook),
            ReleaseOutcome::Stale
        );
        pool.try_claim(0, 3).expect("vacant");
        assert_eq!(pool.fault(0), FaultOutcome::Parked);
        let n = pool.reclaim(u64::MAX, &mut audit, |w, v| {
            assert_eq!((w, v.to_faulted, pool.owner(0)), (3, true, FAULTED));
        });
        assert_eq!(n, 1);
        assert_eq!(audited, vec![(1, 7, RECLAIMING), (0, 3, RECLAIMING)]);
        assert_eq!(pool.available(), 1);
        assert_eq!(pool.repair(0), RepairOutcome::Repaired);
        assert_eq!(pool.vacancy_mask(), Some(0b11));
    }

    #[test]
    fn clock_deadlines_respect_the_disabled_mode() {
        let never = LeaseClock::new(None);
        assert!(!never.leases_expire());
        assert_eq!(never.deadline_from_now(), NEVER);
        let short = LeaseClock::new(Some(Duration::from_millis(5)));
        assert!(short.leases_expire());
        let d = short.deadline_from_now();
        assert!((5_000..NEVER).contains(&d), "deadline {d} out of range");
    }
}
