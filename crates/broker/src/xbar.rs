//! The distributed-scheduling crossbar at runtime: per-column claim words
//! arbitrated by the Table-I request-cycle wave in rank form.
//!
//! Section IV's crossbar fuses the scheduler into the fabric: every cell
//! `(row, column)` holds a requests flip-flop, and a grant wave sweeps the
//! array each cycle so that the highest-priority requesting row of each
//! free column wins it. The runtime settles the same wave with atomics:
//!
//! - `requests` is a bitmask of rows currently requesting (the OR of the
//!   row request lines). A worker raises its bit before arbitrating and
//!   lowers it after it wins or aborts — a panic-safe guard lowers it on
//!   unwind, so a dying row cannot jam its request line high.
//! - Column `c` is slot `c` of the broker's lease pool: a
//!   generation-tagged claim with a lease deadline, reclaimable if the
//!   holder crashes.
//! - Arbitration is by **rank**: one attempt reads the request mask,
//!   computes the worker's rank among the requesters under the active
//!   [`XbarPolicy`], and claims the rank-th free column by CAS. When the
//!   mask and the free set are stable — which is exactly the saturated case
//!   where fairness matters — ranks are distinct, so each requester targets
//!   a different column and the wave settles without collisions; under
//!   churn a lost CAS just re-runs the wave. [`Broker::try_acquire`] is one
//!   attempt; [`Broker::acquire`] raises the request line once and repeats
//!   the attempt under the crate's shared backoff.
//!
//! [`XbarPolicy::FixedPriority`] ranks by row index (the paper's baseline
//! wave, low index wins) and **starves** high rows under saturation.
//! [`XbarPolicy::TokenRotation`] ranks by circular distance from a rotating
//! token (the POLYP fix, Section IV-B): the *releaser* hands the token to
//! its successor, so every requester's wait is bounded by one rotation. The
//! fairness regression test in `tests/fairness.rs` asserts both behaviors
//! against the gate-level simulator in `rsin-xbar`.
//!
//! ## Token uniqueness under holder death
//!
//! The token is one atomic word packed `generation << 32 | position`, so
//! *by representation* there is always exactly one token. What needs proof
//! is that it is **live** — that a holder's death cannot stop it from ever
//! passing again — and that it passes exactly once per grant even when a
//! reclaim races the holder's own slow release. Both follow from the lease
//! word: the token is passed only by the pool's vacate hook, which runs
//! for whoever wins the `begin_unclaim` / `begin_reclaim` generation CAS on
//! the column, and for any one grant generation exactly one of {the
//! holder's release, the supervisor's reclaim} can win that CAS. A dead
//! holder's pass is performed by the reclaimer in its stead (regenerating
//! the token at the dead row's successor); a slow-but-alive holder whose
//! lease was reclaimed gets [`ReleaseOutcome::Stale`] and does *not* pass —
//! the reclaimer already did. `tests/chaos.rs` asserts the invariant: a
//! chaos run ends in `reclaim_all`, so every grant has ended exactly once,
//! and the token generation must equal the grant total.
//!
//! ## Waking the next wave
//!
//! A blocked row polls through the crate's shared backoff, whose last tier
//! parks for up to [`Waiter::MAX_SLEEP`](crate::Waiter::MAX_SLEEP). Under
//! [`XbarPolicy::TokenRotation`] the releaser ranks behind the token's new
//! holder, so a column handed to a parked row would idle until that row's
//! next poll. Instead, a row entering the park tier stores its thread
//! handle and raises its bit in a `parked` mask, and every event that
//! frees a column — release, reclaim, repair — unparks the parked rows the
//! next wave grants: the first `free` requesters in rank order from the
//! priority origin ([`rsin_bitslice::wake_targets`]). The handshake is
//! Dekker's: the row raises its bit, issues a `SeqCst` fence, and makes
//! one more attempt before it parks; the releaser vacates with a `SeqCst`
//! CAS and only then reads the mask with a `SeqCst` load (ordered like a
//! fence would order them, without the fence instruction on the
//! uncontended release path). Whichever side comes first in the `SeqCst`
//! order, either the attempt sees the vacant column or the releaser sees
//! the bit, and an unpark that lands before the park is kept as the
//! thread's token. The poll interval stays the liveness bound; the wake
//! only ends it early.
//!
//! Crossbar columns are dedicated buses, so [`Broker::end_transmission`] is
//! a no-op here: the column is the circuit *and* the resource claim, held
//! from grant to release.

use crate::lease::{LeasePool, RepairOutcome};
use crate::{
    retry, Attempt, Broker, BrokerGrant, ReleaseOutcome, RunControl, WorkerId, PARK_ROUND,
};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::Thread;
use std::time::Duration;

/// Arbitration policy of the request-cycle wave.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum XbarPolicy {
    /// Low row index wins (the paper's baseline daisy-chain priority).
    /// Starves high rows at saturation.
    FixedPriority,
    /// A circulating token sets the priority origin; the releaser advances
    /// it. Bounds every requester's wait (POLYP-style fairness).
    TokenRotation,
}

/// Runtime crossbar broker: `workers` rows by `resources` columns.
///
/// # Examples
///
/// ```
/// use rsin_broker::{Broker, RunControl, XbarBroker, XbarPolicy};
///
/// let broker = XbarBroker::new(4, 2, XbarPolicy::TokenRotation);
/// let ctl = RunControl::new();
/// let grant = broker.acquire(1, &ctl).expect("uncontended");
/// broker.end_transmission(1, grant);
/// broker.release(1, grant);
/// ```
#[derive(Debug)]
pub struct XbarBroker {
    workers: usize,
    policy: XbarPolicy,
    /// OR of the row request lines (bit per worker).
    requests: AtomicU64,
    /// Priority origin for [`XbarPolicy::TokenRotation`], packed
    /// `generation << 32 | position`.
    token: AtomicU64,
    /// Per-column lease words.
    pool: LeasePool,
    /// Rows in the park tier of their blocking acquire (bit per worker).
    parked: AtomicU64,
    /// Per row, the thread that last entered the park tier as that row.
    /// Worker ids outlive threads (a broker may serve successive thread
    /// generations), so the handle is stored again at every registration.
    sleepers: Vec<Mutex<Option<Thread>>>,
}

/// A row's raised bit in one of the row masks (`requests`, `parked`),
/// lowered on every exit path, unwinding included, so a dying row cannot
/// jam its line high.
struct RowLine<'a> {
    mask: &'a AtomicU64,
    bit: u64,
}

impl Drop for RowLine<'_> {
    fn drop(&mut self) {
        self.mask.fetch_and(!self.bit, Ordering::AcqRel);
    }
}

impl XbarBroker {
    /// Creates a broker with every column free and non-expiring leases
    /// (the pre-lease protocol, byte for byte on the fast path).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or exceeds 64 (the request mask is one
    /// machine word, like the hardware's request lines), or if `resources`
    /// is zero.
    #[must_use]
    pub fn new(workers: usize, resources: usize, policy: XbarPolicy) -> Self {
        Self::build(workers, resources, policy, None)
    }

    /// Creates a broker whose grants expire `lease` after issue, making
    /// them reclaimable through [`Broker::reclaim_expired`]. Choose the
    /// lease much longer than any honest hold time: a slower-than-lease
    /// holder is indistinguishable from a dead one and will be evicted.
    #[must_use]
    pub fn with_lease(
        workers: usize,
        resources: usize,
        policy: XbarPolicy,
        lease: Duration,
    ) -> Self {
        Self::build(workers, resources, policy, Some(lease))
    }

    fn build(
        workers: usize,
        resources: usize,
        policy: XbarPolicy,
        lease: Option<Duration>,
    ) -> Self {
        assert!(workers > 0, "need at least one worker");
        assert!(workers <= 64, "request mask is one machine word");
        assert!(resources > 0, "need at least one resource");
        XbarBroker {
            workers,
            policy,
            requests: AtomicU64::new(0),
            token: AtomicU64::new(0),
            pool: LeasePool::new(resources, lease),
            parked: AtomicU64::new(0),
            sleepers: (0..workers).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// The active arbitration policy.
    #[must_use]
    pub fn policy(&self) -> XbarPolicy {
        self.policy
    }

    /// Current token position (the priority origin row).
    #[must_use]
    pub fn token_position(&self) -> usize {
        (self.token.load(Ordering::Acquire) as u32) as usize % self.workers
    }

    /// Number of times the token has been passed or regenerated — the
    /// observable for the exactly-once-per-grant invariant.
    #[must_use]
    pub fn token_generation(&self) -> u32 {
        (self.token.load(Ordering::Acquire) >> 32) as u32
    }

    /// The pool's vacate hook: passes the token on from the row whose
    /// grant just ended (by its own release or by reclaim on its behalf),
    /// then wakes the rows the next wave grants.
    fn vacated(&self, holder: WorkerId) {
        self.pass_token(holder);
        self.wake_next_wave();
    }

    /// Passes the token to the successor of `from`.
    fn pass_token(&self, from: WorkerId) {
        if self.policy != XbarPolicy::TokenRotation {
            return;
        }
        let next = ((from + 1) % self.workers) as u64;
        let _ = self
            .token
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |t| {
                let generation = (t >> 32).wrapping_add(1);
                Some((generation << 32) | next)
            });
    }

    /// Unparks the parked rows the next grant wave reaches (module docs,
    /// "Waking the next wave"). Called after a column was freed by a
    /// `SeqCst` vacate or repair, which the `SeqCst` mask read cannot pass.
    fn wake_next_wave(&self) {
        let parked = self.parked.load(Ordering::SeqCst);
        if parked == 0 {
            return;
        }
        let origin = match self.policy {
            XbarPolicy::FixedPriority => 0,
            XbarPolicy::TokenRotation => self.token_position(),
        };
        let mut targets = rsin_bitslice::wake_targets(
            self.requests.load(Ordering::Acquire),
            parked,
            self.workers,
            origin,
            self.pool.available(),
        );
        while targets != 0 {
            let row = targets.trailing_zeros() as usize;
            targets &= targets - 1;
            if let Some(thread) = &*self.sleeper(row) {
                thread.unpark();
            }
        }
    }

    fn sleeper(&self, row: WorkerId) -> MutexGuard<'_, Option<Thread>> {
        self.sleepers[row]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The thread a wake of `row` would unpark.
    #[cfg(test)]
    fn sleeper_id(&self, row: WorkerId) -> Option<std::thread::ThreadId> {
        self.sleeper(row).as_ref().map(Thread::id)
    }

    /// Rank of `who` among the requesters in `mask` under the active
    /// policy: the number of requesters with strictly higher priority.
    ///
    /// Both arms are constant-depth word operations. The token arm is the
    /// parallel round-robin arbiter's priority resolution — a doubled-mask
    /// rotate aligning the token to lane 0 followed by a prefix popcount
    /// ([`rsin_bitslice::rotating_rank`]) — replacing the O(n) circular-
    /// distance scan the naive arbiter pays on every settling pass.
    fn rank(&self, who: WorkerId, mask: u64) -> u32 {
        match self.policy {
            // Requesters below `who` outrank it.
            XbarPolicy::FixedPriority => (mask & ((1u64 << who) - 1)).count_ones(),
            // Requesters circularly between the token and `who` outrank it.
            XbarPolicy::TokenRotation => {
                rsin_bitslice::rotating_rank(mask, self.workers, self.token_position(), who)
            }
        }
    }

    /// One settling pass of the grant wave for `who` at `rank`: pick the
    /// `rank`-th free column and CAS-claim it. `None` ends the wave — the
    /// caller re-reads the mask and re-ranks before the next pass.
    ///
    /// Up to 64 columns the free set is packed into one word and the
    /// column is picked by prefix select ([`rsin_bitslice::select_nth_set`]),
    /// the same parallel-prefix grant machinery the gate-level resolvers
    /// compile to; wider arrays fall back to the counting sweep.
    fn claim_nth_free(&self, who: WorkerId, rank: u32) -> Option<BrokerGrant> {
        let resource = match self.pool.vacancy_mask() {
            Some(free) => rsin_bitslice::select_nth_set(&[free], rank as usize)?,
            None => (0..self.pool.len())
                .filter(|&c| self.pool.is_vacant(c))
                .nth(rank as usize)?,
        };
        let generation = self.pool.try_claim(resource, who)?;
        Some(BrokerGrant {
            resource,
            generation,
        })
    }

    /// Raises `who`'s request line; the returned guard lowers it on every
    /// exit path, unwinding included. Release publishes the bit to
    /// concurrent rank computations; AcqRel so the caller also sees the
    /// current mask.
    fn raise_request_line(&self, who: WorkerId) -> RowLine<'_> {
        debug_assert!(who < self.workers, "worker id out of range");
        let bit = 1u64 << who;
        let prior = self.requests.fetch_or(bit, Ordering::AcqRel);
        debug_assert_eq!(prior & bit, 0, "worker already requesting");
        RowLine {
            mask: &self.requests,
            bit,
        }
    }

    /// Publishes `who` as parked, by the calling thread, until the returned
    /// guard drops. The handle is stored before the bit is raised (a waker
    /// that sees the bit finds this thread), and the fence orders the bit
    /// before the caller's next attempt reads the columns.
    fn register_parked(&self, who: WorkerId) -> RowLine<'_> {
        *self.sleeper(who) = Some(std::thread::current());
        self.parked.fetch_or(1u64 << who, Ordering::AcqRel);
        fence(Ordering::SeqCst);
        RowLine {
            mask: &self.parked,
            bit: 1u64 << who,
        }
    }

    /// One settling pass of the grant wave from `who`'s row: rank among
    /// the current requesters, then claim the rank-th free column.
    fn attempt(&self, who: WorkerId) -> Attempt {
        let mask = self.requests.load(Ordering::Acquire);
        match self.claim_nth_free(who, self.rank(who, mask)) {
            Some(grant) => Attempt::Granted(grant),
            None => Attempt::Retry { progressed: false },
        }
    }
}

impl Broker for XbarBroker {
    fn workers(&self) -> usize {
        self.workers
    }

    fn resources(&self) -> usize {
        self.pool.len()
    }

    fn acquire(&self, who: WorkerId, ctl: &RunControl) -> Option<BrokerGrant> {
        // The line stays raised across every round until a grant or stop;
        // from the first round whose failure parks, so does the parked bit.
        let _line = self.raise_request_line(who);
        let mut _parked = None;
        retry(ctl, |round| {
            if round == PARK_ROUND {
                _parked = Some(self.register_parked(who));
            }
            self.attempt(who)
        })
    }

    fn try_acquire(&self, who: WorkerId) -> Option<BrokerGrant> {
        let _line = self.raise_request_line(who);
        self.attempt(who).grant()
    }

    fn end_transmission(&self, _who: WorkerId, _grant: BrokerGrant) {
        // A crossbar column is a dedicated bus: nothing extra to free.
    }

    fn release_audited(
        &self,
        who: WorkerId,
        grant: BrokerGrant,
        audit: &mut dyn FnMut(usize, WorkerId),
    ) -> ReleaseOutcome {
        self.pool
            .release(who, grant, audit, |holder, _| self.vacated(holder))
    }

    fn reclaim_expired(&self, audit: &mut dyn FnMut(usize, WorkerId)) -> usize {
        self.pool.expiry_now().map_or(0, |now_us| {
            self.pool
                .reclaim(now_us, audit, |dead, _| self.vacated(dead))
        })
    }

    fn reclaim_all(&self, audit: &mut dyn FnMut(usize, WorkerId)) -> usize {
        // `u64::MAX` beats every real deadline (and even `NEVER`), so this
        // evicts unconditionally — shutdown only, after workers joined.
        self.pool
            .reclaim(u64::MAX, audit, |dead, _| self.vacated(dead))
    }

    fn set_resource_faulted(&self, resource: usize, down: bool) {
        if down {
            self.pool.fault(resource);
        } else if self.pool.repair(resource) == RepairOutcome::Repaired {
            self.wake_next_wave();
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
    fn grants_distinct_columns_up_to_capacity() {
        let b = XbarBroker::new(4, 3, XbarPolicy::FixedPriority);
        let ctl = RunControl::new();
        let grants: Vec<_> = (0..3)
            .map(|w| b.acquire(w, &ctl).expect("column free"))
            .collect();
        let mut cols: Vec<_> = grants.iter().map(|g| g.resource).collect();
        cols.sort_unstable();
        cols.dedup();
        assert_eq!(cols.len(), 3, "each grant a distinct column");
        assert_eq!(b.available_resources(), 0);
        // Fourth acquire must block until a column frees.
        std::thread::scope(|s| {
            let handle = s.spawn(|| b.acquire(3, &ctl));
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!handle.is_finished(), "must block while saturated");
            b.release(0, grants[0]);
            let g = handle.join().expect("no panic").expect("granted");
            assert_eq!(g.resource, grants[0].resource, "reuses the freed column");
            b.release(3, g);
        });
        b.release(1, grants[1]);
        b.release(2, grants[2]);
        assert_eq!(b.available_resources(), 3);
    }

    #[test]
    fn fixed_priority_ranks_by_row_index() {
        let b = XbarBroker::new(4, 1, XbarPolicy::FixedPriority);
        assert_eq!(b.rank(0, 0b1111), 0);
        assert_eq!(b.rank(3, 0b1111), 3);
        assert_eq!(b.rank(3, 0b1000), 0, "alone means top rank");
        assert_eq!(b.rank(2, 0b0101), 1);
    }

    #[test]
    fn token_rotation_ranks_from_the_token() {
        let b = XbarBroker::new(4, 1, XbarPolicy::TokenRotation);
        b.token.store(2, Ordering::Relaxed);
        // Priority order is 2, 3, 0, 1.
        assert_eq!(b.rank(2, 0b1111), 0);
        assert_eq!(b.rank(3, 0b1111), 1);
        assert_eq!(b.rank(0, 0b1111), 2);
        assert_eq!(b.rank(1, 0b1111), 3);
        // Non-requesters don't occupy ranks.
        assert_eq!(b.rank(1, 0b0010), 0);
    }

    #[test]
    fn releaser_passes_the_token_exactly_once() {
        let b = XbarBroker::new(4, 1, XbarPolicy::TokenRotation);
        let ctl = RunControl::new();
        let g = b.acquire(2, &ctl).expect("free");
        assert_eq!(b.token_position(), 0, "token rests until the release");
        assert_eq!(b.token_generation(), 0);
        b.release(2, g);
        assert_eq!(b.token_position(), 3, "passed to the releaser's successor");
        assert_eq!(b.token_generation(), 1, "one grant, one pass");
    }

    #[test]
    fn reclaim_evicts_expired_leases_and_regenerates_the_token() {
        let b = XbarBroker::with_lease(4, 2, XbarPolicy::TokenRotation, Duration::from_micros(1));
        let ctl = RunControl::new();
        let g = b.acquire(1, &ctl).expect("free");
        std::thread::sleep(Duration::from_millis(2));
        let mut evicted = Vec::new();
        let n = b.reclaim_expired(&mut |res, who| evicted.push((res, who)));
        assert_eq!(n, 1);
        assert_eq!(evicted, vec![(g.resource, 1)]);
        assert_eq!(
            b.token_position(),
            2,
            "regenerated at the dead row's successor"
        );
        assert_eq!(b.available_resources(), 2);
        // The dead holder's late release is stale, tolerated, and passes
        // no second token.
        assert_eq!(
            b.release_audited(1, g, &mut |_, _| {}),
            ReleaseOutcome::Stale
        );
        assert_eq!(b.token_generation(), 1, "exactly one pass for that grant");
    }

    #[test]
    fn faulted_columns_are_skipped_by_the_wave() {
        let b = XbarBroker::new(2, 2, XbarPolicy::FixedPriority);
        let ctl = RunControl::new();
        b.set_resource_faulted(0, true);
        assert_eq!(b.available_resources(), 1);
        let g = b.acquire(0, &ctl).expect("column 1 still up");
        assert_eq!(g.resource, 1);
        b.release(0, g);
        b.set_resource_faulted(0, false);
        assert_eq!(b.available_resources(), 2);
    }

    #[test]
    fn stopped_control_clears_the_request_line() {
        let b = XbarBroker::new(2, 1, XbarPolicy::FixedPriority);
        let ctl = RunControl::new();
        let g = b.acquire(0, &ctl).expect("free");
        // Worker 1 blocks on the taken column; stop unwinds it.
        std::thread::scope(|s| {
            let handle = s.spawn(|| b.acquire(1, &ctl));
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!handle.is_finished(), "must block on a taken column");
            ctl.stop();
            assert_eq!(handle.join().expect("no panic"), None);
        });
        assert_eq!(b.requests.load(Ordering::Relaxed), 0, "line lowered");
        b.release(0, g);
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn foreign_release_is_a_protocol_violation() {
        let b = XbarBroker::new(2, 1, XbarPolicy::FixedPriority);
        let ctl = RunControl::new();
        let g = b.acquire(0, &ctl).expect("free");
        b.release(1, g);
    }

    #[test]
    fn try_acquire_is_one_wave_and_lowers_the_request_line() {
        let b = XbarBroker::new(2, 1, XbarPolicy::TokenRotation);
        let g = b.try_acquire(0).expect("column free");
        assert_eq!(b.requests.load(Ordering::Relaxed), 0, "line lowered");
        assert_eq!(b.try_acquire(1), None, "no column left");
        assert_eq!(b.requests.load(Ordering::Relaxed), 0, "lowered on failure");
        b.release(0, g);
        let g1 = b.try_acquire(1).expect("freed column grantable");
        b.release(1, g1);
        assert_eq!(b.token_generation(), 2, "probes pass the token like grants");
    }

    #[test]
    fn every_registration_stores_the_current_thread() {
        // One broker serves successive generations of threads acting as
        // the same row (as a benchmark reusing a broker across rounds
        // does): the wake must reach the live generation, not the first.
        let b = XbarBroker::new(2, 1, XbarPolicy::TokenRotation);
        let ctl = RunControl::new();
        let mut generations = Vec::new();
        for _ in 0..2 {
            let g0 = b.acquire(0, &ctl).expect("free");
            std::thread::scope(|s| {
                let row1 = s.spawn(|| b.acquire(1, &ctl));
                // Row 1 registers after `PARK_ROUND` failed rounds; the
                // deadline only keeps a broken registration from hanging.
                let deadline = std::time::Instant::now() + Duration::from_secs(10);
                while b.parked.load(Ordering::Acquire) & 0b10 == 0
                    && std::time::Instant::now() < deadline
                {
                    std::thread::yield_now();
                }
                let (live, stored) = (row1.thread().id(), b.sleeper_id(1));
                // Free row 1 before asserting, so a failure cannot leave
                // the scope waiting on a blocked thread.
                b.release(0, g0);
                let g1 = row1.join().expect("no panic").expect("granted");
                b.release(1, g1);
                assert_eq!(stored, Some(live), "wake targets this generation");
                generations.push(live);
            });
            assert_eq!(b.parked.load(Ordering::Relaxed), 0, "parked bit lowered");
        }
        assert_ne!(generations[0], generations[1]);
    }

    /// One step of the park handshake between a blocked row and the
    /// releaser of the column it waits for.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// Waiter: store the handle and raise the parked bit (then fence).
        Publish,
        /// Waiter: one arbitration attempt; takes the column if vacant.
        Attempt,
        /// Waiter: park, or consume a pending unpark token.
        Park,
        /// Releaser: vacate the column (a `SeqCst` CAS).
        Vacate,
        /// Releaser: read the parked mask (a `SeqCst` load).
        ReadMask,
        /// Releaser: unpark the waiter if its bit was read set.
        Unpark,
    }

    #[derive(Clone, Copy, Debug, Default)]
    struct Model {
        vacant: bool,
        parked_bit: bool,
        token: bool,
        seen: bool,
        granted: bool,
        asleep: bool,
    }

    impl Model {
        fn step(&mut self, step: Step) {
            match step {
                Step::Publish => self.parked_bit = true,
                Step::Attempt if self.vacant => {
                    (self.vacant, self.granted, self.parked_bit) = (false, true, false);
                }
                Step::Attempt => {}
                Step::Park => self.asleep = !std::mem::take(&mut self.token),
                Step::Vacate => self.vacant = true,
                Step::ReadMask => self.seen = self.parked_bit,
                Step::Unpark if self.seen => {
                    if self.asleep {
                        self.asleep = false;
                    } else {
                        self.token = true;
                    }
                }
                Step::Unpark => {}
            }
        }
    }

    /// Runs every interleaving of the two programs from a held column and
    /// returns the first that ends with the waiter parked on a vacant
    /// column and no unpark token pending (a wake lost until the poll).
    fn lost_wake(waiter: &[Step], releaser: &[Step]) -> Option<Vec<Step>> {
        fn explore(
            m: Model,
            waiter: &[Step],
            releaser: &[Step],
            trace: &mut Vec<Step>,
        ) -> Option<Vec<Step>> {
            // A granted waiter leaves the handshake.
            let waiter = if m.granted { &[][..] } else { waiter };
            if waiter.is_empty() && releaser.is_empty() {
                return (m.asleep && m.vacant && !m.token).then(|| trace.clone());
            }
            for (take_waiter, program) in [(true, waiter), (false, releaser)] {
                let Some((&step, rest)) = program.split_first() else {
                    continue;
                };
                let mut next = m;
                next.step(step);
                trace.push(step);
                let found = if take_waiter {
                    explore(next, rest, releaser, trace)
                } else {
                    explore(next, waiter, rest, trace)
                };
                trace.pop();
                if found.is_some() {
                    return found;
                }
            }
            None
        }
        explore(Model::default(), waiter, releaser, &mut Vec::new())
    }

    #[test]
    fn park_handshake_loses_no_wake_in_any_interleaving() {
        use Step::*;
        let waiter = [Publish, Attempt, Park];
        let releaser = [Vacate, ReadMask, Unpark];
        assert_eq!(
            lost_wake(&waiter, &releaser).map(|t| format!("{t:?}")),
            None
        );
        // The model catches both ways to break the handshake.
        let skip_reattempt = lost_wake(&[Publish, Park], &releaser);
        assert!(skip_reattempt.is_some(), "no re-attempt after registering");
        let mask_first = lost_wake(&waiter, &[ReadMask, Vacate, Unpark]);
        assert!(mask_first.is_some(), "mask read before the vacate");
    }
}
