//! # rsin-broker — a concurrent runtime implementation of the paper's
//! distributed scheduler
//!
//! Everything else in this workspace *models* Wah's distributed resource
//! scheduling: the Markov chains and the discrete-event simulator predict
//! what the hardware would do. This crate *executes* it — the three RSIN
//! scheduling disciplines of the paper reimplemented as lock-free runtime
//! algorithms contended by real OS threads:
//!
//! - [`SbusBroker`] — the shared bus: a broadcast free-count status word
//!   plus a ticket arbiter that serializes transmissions in FIFO order
//!   (Section III's single bus, with the asymmetric daisy chain replaced by
//!   the fair ticket queue).
//! - [`XbarBroker`] — the distributed-scheduling crossbar: one atomic claim
//!   word per bus column and a request bitmask per row, arbitrated by the
//!   Table-I request-cycle wave in rank form. Both the paper's
//!   fixed-priority (low index wins) baseline and the POLYP-style
//!   token-rotation fairness variant are implemented.
//! - [`OmegaBroker`] — the circuit-switched Omega network: stage-by-stage
//!   link claiming along the destination-tag route from
//!   [`rsin_topology::OmegaTopology`], with claim-or-rollback conflict
//!   resolution (no worker ever waits while holding a partial path, so the
//!   protocol cannot deadlock).
//!
//! On top of the disciplines sits one closed-loop load driver,
//! [`loadgen::run`]: worker threads replay per-thread Poisson arrival
//! schedules (independent [`rsin_des::SimRng`] streams) or re-request at
//! saturation, acquire → hold → release against a broker in real time,
//! optionally under client chaos and resource faults, and record grant
//! latency into per-thread
//! [`rsin_des::stats::Welford`]/[`rsin_des::stats::Histogram`] shards that
//! merge losslessly after the run. An independent [`loadgen::Ledger`]
//! audits every grant so a broken claim protocol is detected, not assumed
//! away.
//!
//! The headline deliverable is **cross-validation**: at matched offered
//! load the broker's measured mean grant delay agrees with the
//! `SharedBusChain` / `Mmr` analytic predictions and with the workspace's
//! DES — see `tests/cross_validation.rs` and DESIGN.md §8.
//!
//! ## Waiting discipline (bounded park, targeted crossbar wake)
//!
//! Blocked acquirers never rely on a wakeup being delivered: every wait is
//! a poll loop ([`Waiter`]) that re-reads the shared state itself —
//! briefly spinning, then yielding, then parking in short bounded
//! intervals. A state change can therefore never be missed (a lost wakeup
//! costs at most one poll interval, which the cross-validation budgets
//! for). An unpark only ends a poll interval early: the crossbar's
//! releaser wakes the parked rows its next grant wave would grant, as a
//! round-robin arbiter forwards its grant to the next requester in
//! rotation order, so a token handed to a parked row does not idle its
//! column for a whole interval. The shared bus and Omega ring no one:
//! there the releaser takes the status word back within nanoseconds, and a
//! woken waiter would mostly lose that race. Polling also keeps the broker
//! honest on a single-core host, where hard spinning would starve the very
//! holder being waited on.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod central;
pub mod chaos;
pub mod lease;
pub mod loadgen;
pub mod net;
mod omega;
mod sbus;
mod shard;
mod xbar;

pub use central::CentralBroker;
pub use chaos::{ChaosOptions, ChaosPlan, ChaosSpec, ClientChaos, ClientEvent};
pub use loadgen::{
    run, Arrival, ChaosSummary, GrantGuard, Ledger, LoadConfig, LoadReport, WorkerShard,
};
pub use omega::OmegaBroker;
pub use sbus::SbusBroker;
pub use shard::ShardedBroker;
pub use xbar::{XbarBroker, XbarPolicy};

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Sentinel for "no owner" in the Omega link claim words (resource claim
/// words use the richer [`lease`] encoding).
pub const VACANT: u64 = u64::MAX;

/// Identity of a worker thread, `0 .. workers`.
pub type WorkerId = usize;

/// A granted claim on one resource.
///
/// The grant is a plain value: disciplines that need per-grant bookkeeping
/// (the Omega path, the SBUS ticket) recompute it from `(worker, resource)`
/// — routes are deterministic and tickets live in the broker — so grants
/// cannot go stale or be forged across resources. The `generation` ties the
/// grant to one *lease* of the resource: if a crashed holder's lease is
/// reclaimed and the resource re-granted, the old grant's generation no
/// longer matches and its late release is refused instead of corrupting
/// the new holder's claim (see the [`lease`] module).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BrokerGrant {
    /// Index of the granted resource.
    pub resource: usize,
    /// Lease generation this grant belongs to.
    pub generation: u32,
}

/// Cooperative shutdown/abort flag shared by all workers of a run.
///
/// [`Broker::acquire`] polls it: a stopped control makes every blocked
/// acquire return `None` promptly, so a run can always be wound down — the
/// liveness watchdogs in the stress tests rely on this.
#[derive(Debug, Default)]
pub struct RunControl {
    stop: AtomicBool,
}

impl RunControl {
    /// A control that is not stopped.
    #[must_use]
    pub fn new() -> Self {
        RunControl::default()
    }

    /// Signals every poller to bail out.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Whether [`RunControl::stop`] has been called.
    #[must_use]
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// Escalating poll-wait: spin briefly, yield a few times, then park in
/// short bounded intervals.
///
/// The park interval is capped at [`Waiter::MAX_SLEEP`], so a waiter
/// re-examines the world at least every 200 µs — that bound is what makes
/// "no lost wakeups" structural rather than hoped-for. An unpark of the
/// waiting thread ends the current interval early; nothing depends on it.
#[derive(Debug, Default)]
pub struct Waiter {
    rounds: u32,
}

impl Waiter {
    /// Longest a waiter ever parks between polls.
    pub const MAX_SLEEP: Duration = Duration::from_micros(200);

    /// Waits that spin before the first yield.
    const SPINS: u32 = 16;

    /// Waits that spin or yield before the first park.
    const YIELDS: u32 = 32;

    /// A fresh waiter (starts in the spin phase).
    #[must_use]
    pub fn new() -> Self {
        Waiter::default()
    }

    /// One wait step; escalates from spinning through yielding to parking.
    pub fn wait(&mut self) {
        self.rounds = self.rounds.saturating_add(1);
        if self.rounds <= Self::SPINS {
            std::hint::spin_loop();
        } else if self.rounds <= Self::YIELDS {
            std::thread::yield_now();
        } else {
            std::thread::park_timeout(
                Self::MAX_SLEEP.min(Duration::from_micros(50) * self.rounds / Self::YIELDS),
            );
        }
    }

    /// Back to the spin phase (call after making progress).
    pub fn reset(&mut self) {
        self.rounds = 0;
    }
}

/// The first [`retry`] round whose failure parks, for a discipline that
/// never reports progress: rounds `0 ..= Waiter::YIELDS - 1` spin or
/// yield after failing, every later round parks.
pub(crate) const PARK_ROUND: usize = Waiter::YIELDS as usize;

/// What one arbitration round of a distributed discipline came to.
///
/// Every discipline makes its grant decision in one private `attempt` —
/// a bus turn, a crossbar wave, an Omega route search — and both public
/// paths are built on it: [`Broker::try_acquire`] is one attempt,
/// [`Broker::acquire`] is [`retry`] around it.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Attempt {
    /// The round granted a resource.
    Granted(BrokerGrant),
    /// The round lost. `progressed` means it moved shared state on the way
    /// (Omega gave a claimed resource back), which restarts the backoff at
    /// its spin phase.
    Retry { progressed: bool },
    /// The run stopped while the round held a protocol turn (the SBUS bus
    /// queue); the turn was passed on and the acquire aborts.
    Stopped,
}

impl Attempt {
    /// The grant, if the round made one: what a probe reports.
    pub(crate) fn grant(self) -> Option<BrokerGrant> {
        match self {
            Attempt::Granted(grant) => Some(grant),
            Attempt::Retry { .. } | Attempt::Stopped => None,
        }
    }
}

/// The blocking acquire of every distributed discipline: arbitration
/// rounds `attempt(0)`, `attempt(1)`, … with one shared backoff between
/// them — the paper's retry-on-status-change — until a round grants or
/// `ctl` stops. A discipline that wakes its waiters publishes them from
/// round [`PARK_ROUND`], before that round's attempt, so a release that
/// misses the registration is seen by the attempt instead.
pub(crate) fn retry(
    ctl: &RunControl,
    mut attempt: impl FnMut(usize) -> Attempt,
) -> Option<BrokerGrant> {
    let mut waiter = Waiter::new();
    let mut round = 0usize;
    loop {
        if ctl.is_stopped() {
            return None;
        }
        match attempt(round) {
            Attempt::Granted(grant) => return Some(grant),
            Attempt::Stopped => return None,
            Attempt::Retry { progressed } => {
                if progressed {
                    waiter.reset();
                }
                waiter.wait();
            }
        }
        round = round.wrapping_add(1);
    }
}

/// How a release (or audited release) ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReleaseOutcome {
    /// The caller held the grant and the resource is free again.
    Released,
    /// The grant's generation was stale: the lease had already been
    /// reclaimed (the holder was presumed crashed). The release is a
    /// harmless no-op — the reclaimer already ran the audit hook.
    Stale,
}

/// A runtime scheduling discipline: workers block in [`Broker::acquire`]
/// until a resource is granted, optionally hold the network circuit through
/// a transmission phase, then release.
///
/// Implementations must be safe to drive from `workers()` concurrent
/// threads, each using its own distinct [`WorkerId`]; a worker holds at
/// most one grant at a time (the paper's assumption (f)).
///
/// ## Leases and reclamation
///
/// Every grant is a lease (see the [`lease`] module): brokers built with a
/// `with_lease` constructor stamp each grant with a deadline, and a
/// supervisor may call [`Broker::reclaim_expired`] to recover resources
/// from crashed or stalled holders. The `audit` hooks exist so external
/// bookkeeping (the [`loadgen::Ledger`]) is updated *atomically enough*:
/// the hook runs while the slot is still unclaimable (the `RECLAIMING`
/// phase), so a new grant of the same resource can never be recorded
/// before the old one's end. Brokers built with plain `new` never expire
/// leases and behave exactly like the pre-lease protocols.
pub trait Broker: Sync {
    /// Number of workers (processors) the broker arbitrates.
    fn workers(&self) -> usize;

    /// Number of resources the broker hands out.
    fn resources(&self) -> usize;

    /// Blocks until a resource is granted to `who`, or until `ctl` stops
    /// (returning `None` — no statistics should be recorded for an aborted
    /// acquire).
    ///
    /// In the three distributed disciplines this is the round
    /// [`Broker::try_acquire`] makes, repeated with one shared backoff
    /// between rounds until one grants.
    fn acquire(&self, who: WorkerId, ctl: &RunControl) -> Option<BrokerGrant>;

    /// One bounded arbitration attempt: grants a resource to `who` if the
    /// discipline can do so now, or reports `None` when the pool looks
    /// exhausted or the attempt loses its claim races.
    ///
    /// In the three distributed disciplines a probe is exactly one round of
    /// the blocking path — the round [`Broker::acquire`] makes first — so
    /// whenever a single caller can be granted, both paths grant the same
    /// resource. Unlike [`Broker::acquire`] this never waits for capacity
    /// to free up — it may still wait out bounded protocol turns (the SBUS
    /// bus queue), but a probe of an exhausted pool returns promptly. This
    /// is the probe primitive of [`ShardedBroker`]'s overflow-stealing
    /// path; callers that get a grant owe the usual `end_transmission` +
    /// `release`.
    fn try_acquire(&self, who: WorkerId) -> Option<BrokerGrant>;

    /// Ends the transmission phase: releases whatever network capacity the
    /// discipline holds during transmission (the SBUS bus, the Omega path)
    /// while keeping the resource itself. Tolerates a stale grant (the
    /// circuit was already reclaimed).
    fn end_transmission(&self, who: WorkerId, grant: BrokerGrant);

    /// Releases the resource, running `audit(resource, who)` while the
    /// slot is still unclaimable, and reports whether the grant was live.
    ///
    /// Callers must have called [`Broker::end_transmission`] first.
    ///
    /// # Panics
    ///
    /// Panics if the grant's generation is live but held by a different
    /// worker — a forged release is a protocol violation, not a race.
    fn release_audited(
        &self,
        who: WorkerId,
        grant: BrokerGrant,
        audit: &mut dyn FnMut(usize, WorkerId),
    ) -> ReleaseOutcome;

    /// Releases the resource with no audit hook.
    fn release(&self, who: WorkerId, grant: BrokerGrant) {
        self.release_audited(who, grant, &mut |_, _| {});
    }

    /// Reclaims every resource whose lease has expired, running
    /// `audit(resource, evicted_holder)` per reclaim while the slot is
    /// unclaimable; returns the number reclaimed. Also repairs any
    /// discipline-internal state the dead holder wedged (the SBUS bus
    /// turn, Omega circuit links, the rotating token). No-op for brokers
    /// without expiring leases.
    fn reclaim_expired(&self, audit: &mut dyn FnMut(usize, WorkerId)) -> usize {
        let _ = audit;
        0
    }

    /// Forcibly reclaims every held resource regardless of deadline —
    /// the shutdown path, for after all worker threads have been joined
    /// (a live holder would be evicted). Returns the number reclaimed.
    fn reclaim_all(&self, audit: &mut dyn FnMut(usize, WorkerId)) -> usize {
        let _ = audit;
        0
    }

    /// Applies (`down = true`) or repairs (`down = false`) a resource
    /// fault: a down resource stops being granted. Faulting a *held*
    /// resource parks the fault until the holder's release or reclaim.
    /// Brokers that do not model resource faults ignore the call.
    fn set_resource_faulted(&self, resource: usize, down: bool) {
        let _ = (resource, down);
    }

    /// Number of resources currently grantable (not held, not mid-reclaim,
    /// not faulted). After a quiescent shutdown — workers joined, faults
    /// repaired, [`Broker::reclaim_all`] run — this must equal
    /// [`Broker::resources`], or grants leaked.
    fn available_resources(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_control_round_trips() {
        let ctl = RunControl::new();
        assert!(!ctl.is_stopped());
        ctl.stop();
        assert!(ctl.is_stopped());
    }

    #[test]
    fn waiter_escalates_and_resets() {
        let mut w = Waiter::new();
        for _ in 0..40 {
            w.wait();
        }
        assert!(w.rounds > 32);
        w.reset();
        assert_eq!(w.rounds, 0);
    }
}
