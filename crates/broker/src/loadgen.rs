//! Closed-loop load generation against a [`Broker`], with sharded
//! statistics, an independent grant audit, and a chaos mode that injects
//! client crashes, stalls, and resource faults under supervision.
//!
//! One driver, [`run`], covers every load shape. Each of the broker's
//! workers is an OS thread playing one processor; the [`Arrival`] says
//! when it asks:
//!
//! - [`Arrival::Poisson`] replays the paper's task lifecycle in real time.
//!   The thread draws a Poisson arrival schedule from its own
//!   deterministic [`SimRng`] stream and, for every arrival, blocks in
//!   [`Broker::acquire`], holds the circuit for an exponential
//!   transmission, then hands the grant to a **reaper** thread that
//!   releases it after the exponential service interval. Offloading the
//!   release is what makes the semantics match the DES in `rsin-core`:
//!   there a processor is occupied only while queueing and transmitting —
//!   service overlaps with the processor's next request — so the worker
//!   thread must be free to start its next acquire while earlier grants
//!   are still in service.
//! - [`Arrival::Saturated`] is the closed loop for fairness and safety
//!   work: every worker re-requests as fast as it can, holds each grant
//!   for a fixed time and releases it itself, with no reaper hop; the
//!   report's per-worker grant counts and worst-case waits are what the
//!   fairness regressions assert on.
//!
//! Every held grant lives inside a [`GrantGuard`]: if the holding thread
//! unwinds for any reason, the guard's `Drop` ends the transmission and
//! releases the resource with the ledger kept honest, so a panic can no
//! longer leak a grant. The only way to leak is to *ask* for it
//! ([`GrantGuard::forget`]) — which is exactly what the chaos mode does
//! to simulate fail-stop client death.
//!
//! Passing [`ChaosOptions`] hardens either shape: the run additionally
//! executes a [`ChaosPlan`] (seeded client crashes and
//! stalls) and a [`rsin_des::FaultPlan`] of resource outages, and the
//! reaper doubles as a **supervisor** that periodically reclaims expired
//! leases ([`Broker::reclaim_expired`]) and applies due fault events.
//! Crashed worker threads genuinely unwind; their statistics shards ride
//! out in the unwind payload and are recovered at join, so crashed
//! workers still count in the report. Chaos and fault times are in model
//! units: [`LoadConfig::scale_us`] apart for a Poisson run, and one
//! millisecond of wall time since the run's start for a saturated run,
//! which has no model clock.
//!
//! Grant delay is measured from the *scheduled* arrival instant (so a
//! backlogged processor correctly charges head-of-line waiting to the
//! tasks behind it, exactly as the DES does) and recorded in per-worker
//! [`Welford`]/[`Histogram`] shards that are merged losslessly after the
//! run — the merge operations that `tests/property.rs` proves equivalent
//! to single-stream accumulation.
//!
//! Model time maps to wall time through [`LoadConfig::scale_us`]
//! (microseconds per model unit). All timed waits finish with a short spin
//! (`sleep_until`) so scheduling overshoot stays in the microseconds;
//! the residual measurement floor — a blocked acquire parks for at most
//! [`Waiter::MAX_SLEEP`](crate::Waiter::MAX_SLEEP) between polls, and only
//! a crossbar release wakes it sooner (bounded park, targeted crossbar
//! wake) — is budgeted explicitly by the cross-validation tolerances
//! (DESIGN.md §8), which keep the full poll interval as the worst case.

use crate::chaos::{ChaosOptions, ChaosPlan};
use crate::{Broker, BrokerGrant, RunControl, WorkerId, VACANT};
use rsin_des::stats::{Histogram, Welford};
use rsin_des::{FaultAction, FaultPlan, FaultTarget, SimRng, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Final stretch of every timed wait that is spun, not slept, so wall
/// targets are hit with microsecond accuracy even though `thread::sleep`
/// overshoots by scheduler quanta.
const SPIN_WINDOW: Duration = Duration::from_micros(250);

/// Sleeps until `target`, finishing with a bounded spin for accuracy.
fn sleep_until(target: Instant) {
    loop {
        let now = Instant::now();
        let Some(remaining) = target.checked_duration_since(now) else {
            return;
        };
        if remaining > SPIN_WINDOW {
            std::thread::sleep(remaining - SPIN_WINDOW);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Offered load and run-length parameters of an [`Arrival::Poisson`] run,
/// in the paper's model units.
#[derive(Clone, Copy, Debug)]
pub struct LoadConfig {
    /// Poisson arrival rate per worker.
    pub lambda: f64,
    /// Transmission rate µ_n; `None` is the µ_n → ∞ degenerate limit
    /// (the circuit is released the instant it is granted).
    pub mu_n: Option<f64>,
    /// Service rate µ_s.
    pub mu_s: f64,
    /// Wall microseconds per model time unit.
    pub scale_us: f64,
    /// Model time discarded while the system warms up.
    pub warmup: f64,
    /// Model time measured after warm-up.
    pub duration: f64,
    /// Model time allowed after the measured window for queued tasks to
    /// drain before stragglers are aborted.
    pub drain: f64,
    /// Root seed; worker `w` draws from the derived stream `w`.
    pub seed: u64,
}

/// Bins of a Poisson run's per-worker delay histograms.
const HIST_BINS: usize = 64;
/// Upper edge of those histograms, in model units.
const HIST_UPPER: f64 = 8.0;

impl LoadConfig {
    /// A config with the workspace's defaults for everything but the
    /// rates: 4 ms per model unit, 50 warm-up units, 200 measured units.
    #[must_use]
    pub fn new(lambda: f64, mu_s: f64) -> Self {
        LoadConfig {
            lambda,
            mu_n: None,
            mu_s,
            scale_us: 4_000.0,
            warmup: 50.0,
            duration: 200.0,
            drain: 30.0,
            seed: 1,
        }
    }

    fn scale_secs(&self) -> f64 {
        self.scale_us * 1e-6
    }

    fn wall_after(&self, model_t: f64) -> Duration {
        Duration::from_secs_f64(model_t * self.scale_secs())
    }
}

/// Wall seconds per model unit of a saturated run: its chaos and fault
/// times are milliseconds since the run's start.
const SATURATED_SCALE_SECS: f64 = 1e-3;

/// When each worker of a [`run`] asks for a resource.
#[derive(Clone, Copy, Debug)]
pub enum Arrival {
    /// Open-loop Poisson arrivals with exponential transmission and
    /// service, in model time — the DES's task lifecycle.
    Poisson(LoadConfig),
    /// Closed loop at saturation: every worker loops acquire → hold →
    /// release with zero think time until `run_for` has passed.
    Saturated {
        /// How long each grant is held before its release.
        hold: Duration,
        /// Wall time the run lasts.
        run_for: Duration,
    },
}

impl Arrival {
    /// Wall seconds per model unit.
    fn scale_secs(&self) -> f64 {
        match self {
            Arrival::Poisson(cfg) => cfg.scale_secs(),
            Arrival::Saturated { .. } => SATURATED_SCALE_SECS,
        }
    }
}

/// One worker thread's statistics, recorded without any cross-thread
/// sharing and merged after the run.
#[derive(Clone, Debug)]
pub struct WorkerShard {
    /// Grant delays (model units) of tasks arriving in the measured window;
    /// empty for a saturated run.
    pub delay: Welford,
    /// The same delays, binned.
    pub hist: Histogram,
    /// Grants won over the whole run, warm-up included.
    pub grants: u64,
    /// Longest single wait for a grant, from the scheduled arrival (or, in
    /// a saturated run, the acquire call).
    pub max_wait: Duration,
    /// Tasks scheduled inside the measured window; 0 for a saturated run.
    pub offered: u64,
    /// Acquires cut short when the run stopped.
    pub abandoned: u64,
}

impl WorkerShard {
    fn new(arrival: &Arrival) -> Self {
        // A saturated run records no delays; its histogram stays empty.
        let (bins, upper) = match arrival {
            Arrival::Poisson(_) => (HIST_BINS, HIST_UPPER),
            Arrival::Saturated { .. } => (1, 1.0),
        };
        WorkerShard {
            delay: Welford::new(),
            hist: Histogram::new(bins, upper),
            grants: 0,
            max_wait: Duration::ZERO,
            offered: 0,
            abandoned: 0,
        }
    }
}

/// Output of one [`run`]: the per-worker shards, the ledger's verdict, and
/// the fault-tolerance accounting of a chaos run.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Per-worker statistics, indexed by worker id. Crashed workers'
    /// shards are included — they are recovered from the unwind payload.
    pub shards: Vec<WorkerShard>,
    /// Exclusivity violations detected by the [`Ledger`]; zero for a
    /// correct broker.
    pub violations: u64,
    /// What the chaos mode did and left behind; `None` without chaos.
    pub chaos: Option<ChaosSummary>,
}

impl LoadReport {
    /// All measured grant delays, in model units.
    #[must_use]
    pub fn delay(&self) -> Welford {
        self.shards.iter().fold(Welford::new(), |mut all, s| {
            all.merge(&s.delay);
            all
        })
    }

    /// The same delays, binned.
    ///
    /// # Panics
    ///
    /// Panics if the report has no shards.
    #[must_use]
    pub fn hist(&self) -> Histogram {
        let mut shards = self.shards.iter();
        let mut all = shards.next().expect("at least one worker").hist.clone();
        for s in shards {
            all.merge(&s.hist);
        }
        all
    }

    /// Mean grant delay in model units — the paper's `d`.
    #[must_use]
    pub fn mean_delay(&self) -> f64 {
        self.delay().mean()
    }

    /// Measured tasks whose delay was recorded.
    #[must_use]
    pub fn measured(&self) -> u64 {
        self.delay().count()
    }

    /// Grants won by each worker.
    #[must_use]
    pub fn grants(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.grants).collect()
    }

    /// Total grants across all workers.
    #[must_use]
    pub fn total_grants(&self) -> u64 {
        self.shards.iter().map(|s| s.grants).sum()
    }

    /// Longest single acquire wait each worker observed.
    #[must_use]
    pub fn max_wait(&self) -> Vec<Duration> {
        self.shards.iter().map(|s| s.max_wait).collect()
    }

    /// Tasks scheduled inside the measured window.
    #[must_use]
    pub fn offered(&self) -> u64 {
        self.shards.iter().map(|s| s.offered).sum()
    }

    /// Acquires cut short when the run stopped.
    #[must_use]
    pub fn abandoned(&self) -> u64 {
        self.shards.iter().map(|s| s.abandoned).sum()
    }
}

/// The fault-tolerance accounting of a chaos [`run`], which the chaos
/// acceptance criteria assert on.
#[derive(Clone, Debug)]
pub struct ChaosSummary {
    /// Worker threads that genuinely crashed (unwound) mid-protocol.
    pub crashed: usize,
    /// Stalls executed (grants held past their lease by live stragglers).
    pub stalled: usize,
    /// Leases the supervisor reclaimed from dead or stalled holders.
    pub reclaimed: u64,
    /// Leases force-reclaimed at shutdown (leaked grants whose lease had
    /// not yet expired when the run ended).
    pub forced_reclaims: u64,
    /// Grants won after the last scheduled chaos event — the "system keeps
    /// granting" liveness witness.
    pub post_chaos_grants: u64,
    /// [`Broker::available_resources`] after shutdown reclamation and
    /// fault repair; equals the resource count iff nothing leaked.
    pub available_at_end: usize,
    /// [`Ledger::held`] after shutdown — zero iff the audit saw every
    /// grant matched by a release or a reclaim.
    pub ledger_held_at_end: usize,
}

/// Independent audit of grant exclusivity.
///
/// The ledger mirrors every claim and vacate in its own atomic array,
/// *outside* the broker under test: if a broken broker ever grants one
/// resource to two holders, the second [`Ledger::claim`] finds the slot
/// occupied and counts a violation instead of trusting the broker's own
/// bookkeeping. Under chaos the reclaim paths vacate through the same
/// audit hooks, during the window in which the slot is unclaimable, so a
/// reclaim-then-regrant can never appear as a double claim.
#[derive(Debug)]
pub struct Ledger {
    slots: Vec<AtomicU64>,
    /// Attribution tags, parallel to `slots`: an opaque caller-packed word
    /// (the networked front-end packs `(tenant, connection id)`) recorded
    /// alongside each claim. [`NO_TAG`] when vacant. Tags are bookkeeping,
    /// not the exclusivity check — `slots` alone decides violations — so a
    /// racing reader sees at worst a stale tag, never a false violation.
    tags: Vec<AtomicU64>,
    violations: AtomicU64,
}

/// Tag value of a vacant slot.
pub const NO_TAG: u64 = u64::MAX;

impl Ledger {
    /// A ledger for `resources` slots, all vacant.
    #[must_use]
    pub fn new(resources: usize) -> Self {
        Ledger {
            slots: (0..resources).map(|_| AtomicU64::new(VACANT)).collect(),
            tags: (0..resources).map(|_| AtomicU64::new(NO_TAG)).collect(),
            violations: AtomicU64::new(0),
        }
    }

    /// Records that `who` was granted `resource`.
    pub fn claim(&self, resource: usize, who: WorkerId) {
        self.claim_tagged(resource, who, who as u64);
    }

    /// Records that `who` was granted `resource`, attributed to `tag` (an
    /// opaque word; the net layer packs `(tenant, connection id)` so audits
    /// can distinguish a reclaim-then-regrant to a *new* connection from a
    /// double grant to a dead one). The thread-local load generators tag
    /// with the worker id.
    pub fn claim_tagged(&self, resource: usize, who: WorkerId, tag: u64) {
        if self.slots[resource]
            .compare_exchange(VACANT, who as u64, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            self.violations.fetch_add(1, Ordering::Relaxed);
        } else {
            self.tags[resource].store(tag, Ordering::Release);
        }
    }

    /// Records that `who` released `resource`.
    pub fn vacate(&self, resource: usize, who: WorkerId) {
        // Clear the tag before freeing the slot: once the CAS lands another
        // claimant may retag immediately, and a late store from this side
        // would misattribute the new holder.
        self.tags[resource].store(NO_TAG, Ordering::Release);
        if self.slots[resource]
            .compare_exchange(who as u64, VACANT, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            self.violations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The attribution tag of `resource`'s current holder, or `None` when
    /// vacant. Advisory: concurrent claim/vacate can race the two loads, so
    /// callers treat this as a diagnostic snapshot, not a synchronization
    /// primitive.
    #[must_use]
    pub fn tag(&self, resource: usize) -> Option<u64> {
        if self.slots[resource].load(Ordering::Acquire) == VACANT {
            return None;
        }
        match self.tags[resource].load(Ordering::Acquire) {
            NO_TAG => None,
            t => Some(t),
        }
    }

    /// Violations observed so far.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.violations.load(Ordering::Relaxed)
    }

    /// Slots currently marked held.
    #[must_use]
    pub fn held(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.load(Ordering::Relaxed) != VACANT)
            .count()
    }
}

/// RAII custody of one grant: ends the transmission and releases the
/// resource (audited) when dropped, so an unwinding holder can no longer
/// leak a grant.
///
/// The pre-guard load generator had exactly that bug: a panic between
/// `acquire` and `release` left the resource held forever. Now the only
/// way to leak is deliberate — [`GrantGuard::forget`] — which is the
/// chaos mode's fail-stop crash simulation, and whose leak the lease
/// supervisor is designed to reclaim.
pub struct GrantGuard<'a, B: Broker + ?Sized> {
    broker: &'a B,
    ledger: Option<&'a Ledger>,
    who: WorkerId,
    grant: BrokerGrant,
    transmitting: bool,
    armed: bool,
}

impl<'a, B: Broker + ?Sized> GrantGuard<'a, B> {
    /// Guards `grant` without ledger bookkeeping.
    #[must_use]
    pub fn new(broker: &'a B, who: WorkerId, grant: BrokerGrant) -> Self {
        GrantGuard {
            broker,
            ledger: None,
            who,
            grant,
            transmitting: true,
            armed: true,
        }
    }

    /// Guards `grant` and records the claim in `ledger` now; the matching
    /// vacate runs inside the audited release when the guard drops.
    #[must_use]
    pub fn audited(broker: &'a B, ledger: &'a Ledger, who: WorkerId, grant: BrokerGrant) -> Self {
        ledger.claim(grant.resource, who);
        GrantGuard {
            broker,
            ledger: Some(ledger),
            who,
            grant,
            transmitting: true,
            armed: true,
        }
    }

    /// The guarded grant.
    #[must_use]
    pub fn grant(&self) -> BrokerGrant {
        self.grant
    }

    /// Ends the transmission phase (idempotent; `Drop` calls it if the
    /// holder never did).
    pub fn end_transmission(&mut self) {
        if self.transmitting {
            self.transmitting = false;
            self.broker.end_transmission(self.who, self.grant);
        }
    }

    /// Releases now (equivalent to dropping, spelled out at call sites).
    pub fn release(self) {}

    /// Deliberately leaks the grant — no transmission end, no release, no
    /// audit — simulating the holder's fail-stop death mid-protocol.
    /// Returns the leaked grant for the record.
    #[must_use]
    pub fn forget(mut self) -> BrokerGrant {
        self.armed = false;
        self.grant
    }

    /// Hands the release off to the reaper at `due` and disarms the
    /// guard. Transmission must already be ended.
    fn defer(mut self, reaper: &Reaper, due: Instant) {
        debug_assert!(!self.transmitting, "defer before end_transmission");
        self.armed = false;
        reaper.push(due, self.who, self.grant);
    }
}

impl<B: Broker + ?Sized> fmt::Debug for GrantGuard<'_, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GrantGuard")
            .field("who", &self.who)
            .field("grant", &self.grant)
            .field("transmitting", &self.transmitting)
            .field("armed", &self.armed)
            .finish()
    }
}

impl<B: Broker + ?Sized> Drop for GrantGuard<'_, B> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        self.end_transmission();
        let ledger = self.ledger;
        self.broker
            .release_audited(self.who, self.grant, &mut |r, w| {
                if let Some(l) = ledger {
                    l.vacate(r, w);
                }
            });
    }
}

/// A grant awaiting its service-completion release.
#[derive(Debug)]
struct PendingRelease {
    due: Instant,
    who: WorkerId,
    grant: BrokerGrant,
}

impl PartialEq for PendingRelease {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.who == other.who
    }
}
impl Eq for PendingRelease {}
impl PartialOrd for PendingRelease {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingRelease {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.who).cmp(&(other.due, other.who))
    }
}

/// The reaper's shared queue of pending releases.
#[derive(Debug, Default)]
struct ReaperQueue {
    heap: BinaryHeap<Reverse<PendingRelease>>,
    closed: bool,
}

/// Release scheduler shared between the workers (producers) and the
/// reaper thread (consumer). Under chaos the same thread doubles as the
/// **supervisor**: between releases it reclaims expired leases and
/// applies due resource-fault events.
#[derive(Debug, Default)]
struct Reaper {
    queue: Mutex<ReaperQueue>,
    wake: Condvar,
}

impl Reaper {
    fn push(&self, due: Instant, who: WorkerId, grant: BrokerGrant) {
        let mut q = self.queue.lock().expect("reaper lock");
        q.heap.push(Reverse(PendingRelease { due, who, grant }));
        self.wake.notify_one();
    }

    fn close(&self) {
        self.queue.lock().expect("reaper lock").closed = true;
        self.wake.notify_one();
    }

    /// Runs until closed *and* drained, releasing each grant at its due
    /// instant (immediately once closed — the run is over). With a
    /// supervisor attached, additionally wakes at least every
    /// `supervisor.poll` to reclaim expired leases and apply fault
    /// events; returns the number of leases reclaimed.
    ///
    /// Releases go through [`Broker::release_audited`] and tolerate
    /// [`ReleaseOutcome::Stale`](crate::ReleaseOutcome::Stale): a grant
    /// the supervisor already reclaimed (its holder stalled) must not be
    /// vacated a second time.
    fn run<B: Broker + ?Sized>(
        &self,
        broker: &B,
        ledger: &Ledger,
        mut supervisor: Option<&mut Supervisor>,
    ) -> u64 {
        let mut reclaimed = 0u64;
        loop {
            if let Some(sup) = supervisor.as_deref_mut() {
                sup.faults.apply_due(broker);
                reclaimed += broker.reclaim_expired(&mut |r, w| ledger.vacate(r, w)) as u64;
            }
            let mut q = self.queue.lock().expect("reaper lock");
            loop {
                let now = Instant::now();
                match q.heap.peek() {
                    Some(Reverse(top)) if top.due <= now || q.closed => {
                        let Reverse(p) = q.heap.pop().expect("peeked");
                        drop(q);
                        broker.release_audited(p.who, p.grant, &mut |r, w| ledger.vacate(r, w));
                        q = self.queue.lock().expect("reaper lock");
                    }
                    _ => break,
                }
            }
            let now = Instant::now();
            let next_due = q.heap.peek().map(|Reverse(top)| top.due);
            if q.closed && next_due.is_none() {
                return reclaimed;
            }
            let mut wait = match next_due {
                Some(due) => due.saturating_duration_since(now),
                None => Duration::from_secs(3_600),
            };
            if let Some(sup) = supervisor.as_deref() {
                wait = wait.min(sup.poll);
            }
            if wait > SPIN_WINDOW {
                let (guard, _) = self
                    .wake
                    .wait_timeout(q, wait - SPIN_WINDOW)
                    .expect("reaper lock");
                drop(guard);
            } else {
                drop(q);
                sleep_until(now + wait);
            }
        }
    }
}

/// Wall-clock materialization of a [`FaultPlan`]: the finite, time-sorted
/// prefix of events inside the run horizon, mapped to instants.
#[derive(Debug)]
struct FaultSchedule {
    /// `(when, resource, down)` in nondecreasing `when` order.
    events: Vec<(Instant, usize, bool)>,
    next: usize,
    down: Vec<bool>,
}

impl FaultSchedule {
    /// Drains `plan`'s timeline (materialized with `seed` — feed the DES
    /// the same seed and it sees the identical event sequence) up to
    /// `horizon` model units, mapping model time `t` to
    /// `epoch + t * scale_secs`. `Element` targets and out-of-range
    /// resource indices are ignored.
    fn materialize(
        plan: &FaultPlan,
        seed: u64,
        resources: usize,
        epoch: Instant,
        scale_secs: f64,
        horizon: f64,
    ) -> Self {
        let mut events = Vec::new();
        if !plan.is_empty() {
            let mut rng = SimRng::new(seed);
            let mut timeline = plan.timeline(&mut rng);
            for e in timeline.drain_until(SimTime::new(horizon)) {
                if let FaultTarget::Resource(r) = e.target {
                    if r < resources {
                        let due = epoch + Duration::from_secs_f64(e.time.as_f64() * scale_secs);
                        events.push((due, r, e.action == FaultAction::Fail));
                    }
                }
            }
        }
        FaultSchedule {
            events,
            next: 0,
            down: vec![false; resources],
        }
    }

    /// Applies every event that is due, skipping no-op transitions.
    fn apply_due<B: Broker + ?Sized>(&mut self, broker: &B) {
        let now = Instant::now();
        while let Some(&(due, r, down)) = self.events.get(self.next) {
            if due > now {
                break;
            }
            self.next += 1;
            if self.down[r] != down {
                self.down[r] = down;
                broker.set_resource_faulted(r, down);
            }
        }
    }

    /// Repairs everything still down — the shutdown path, so the
    /// leak audit compares against full capacity.
    fn repair_all<B: Broker + ?Sized>(&mut self, broker: &B) {
        for (r, d) in self.down.iter_mut().enumerate() {
            if *d {
                *d = false;
                broker.set_resource_faulted(r, false);
            }
        }
    }
}

/// The reaper's chaos-mode side job.
#[derive(Debug)]
struct Supervisor {
    poll: Duration,
    faults: FaultSchedule,
}

/// What a worker thread hands back — normally by return, after a
/// scheduled crash by unwind payload.
struct WorkerOut {
    shard: WorkerShard,
    post_grants: u64,
    stalls: usize,
}

/// Unwind payload of a simulated fail-stop crash. Carried via
/// [`std::panic::resume_unwind`] so the default panic hook stays silent —
/// these deaths are scheduled, not bugs.
struct CrashPayload(WorkerOut);

/// What every thread of one run shares.
struct Shared<'a, B: ?Sized> {
    broker: &'a B,
    arrival: &'a Arrival,
    ledger: Ledger,
    reaper: Reaper,
    ctl: RunControl,
    epoch: Instant,
    /// The client chaos schedule and the model time by which every
    /// scheduled misbehavior has begun.
    chaos: Option<(&'a ChaosPlan, f64)>,
}

/// One worker thread: asks for a resource on the arrival's schedule,
/// misbehaving on cue when chaos is on.
fn drive_worker<B: Broker + ?Sized>(run: &Shared<'_, B>, who: WorkerId) -> WorkerOut {
    let scale = run.arrival.scale_secs();
    let mut shard = WorkerShard::new(run.arrival);
    let (mut post_grants, mut stalls) = (0u64, 0usize);
    let events = run
        .chaos
        .map(|(plan, _)| plan.for_worker(who))
        .unwrap_or_default();
    let mut next_event = 0usize;
    // A saturated run draws nothing from its stream.
    let seed = match run.arrival {
        Arrival::Poisson(cfg) => cfg.seed,
        Arrival::Saturated { .. } => 0,
    };
    let mut rng = SimRng::new(seed).derive(who as u64);
    // Model time of the current arrival (Poisson only).
    let mut t = 0.0_f64;
    loop {
        let (scheduled, measured) = match run.arrival {
            Arrival::Poisson(cfg) => {
                t += rng.exponential(cfg.lambda);
                if t >= cfg.warmup + cfg.duration {
                    break;
                }
                let measured = t >= cfg.warmup;
                if measured {
                    shard.offered += 1;
                }
                let scheduled = run.epoch + cfg.wall_after(t);
                sleep_until(scheduled);
                (scheduled, measured)
            }
            Arrival::Saturated { .. } => (Instant::now(), false),
        };
        let Some(grant) = run.broker.acquire(who, &run.ctl) else {
            shard.abandoned += 1;
            break;
        };
        let waited = Instant::now().saturating_duration_since(scheduled);
        shard.max_wait = shard.max_wait.max(waited);
        let mut guard = GrantGuard::audited(run.broker, &run.ledger, who, grant);
        shard.grants += 1;
        if measured {
            let d = waited.as_secs_f64() / scale;
            shard.delay.push(d);
            shard.hist.record(d);
        }
        if let Some((_, horizon)) = run.chaos {
            let now = match run.arrival {
                Arrival::Poisson(_) => t,
                Arrival::Saturated { .. } => run.epoch.elapsed().as_secs_f64() / scale,
            };
            if now >= horizon {
                post_grants += 1;
            }
            if let Some(e) = events.get(next_event).filter(|e| e.at <= now) {
                next_event += 1;
                match e.kind {
                    crate::ClientChaos::Crash => {
                        // Fail-stop death while holding the grant: leak it
                        // (the lease supervisor's problem now) and
                        // genuinely unwind, smuggling the statistics out
                        // through the panic payload.
                        let _ = guard.forget();
                        std::panic::resume_unwind(Box::new(CrashPayload(WorkerOut {
                            shard,
                            post_grants,
                            stalls,
                        })));
                    }
                    crate::ClientChaos::StallFor(s) => {
                        // Sit on the grant far past the lease: the
                        // supervisor evicts us mid-sleep and our own late
                        // protocol calls must land as stale no-ops.
                        stalls += 1;
                        std::thread::sleep(Duration::from_secs_f64(s * scale));
                    }
                }
            }
        }
        match *run.arrival {
            Arrival::Poisson(cfg) => {
                if let Some(mu_n) = cfg.mu_n {
                    let tx = rng.exponential(mu_n);
                    sleep_until(Instant::now() + cfg.wall_after(tx));
                }
                guard.end_transmission();
                let svc = rng.exponential(cfg.mu_s);
                guard.defer(&run.reaper, Instant::now() + cfg.wall_after(svc));
            }
            Arrival::Saturated { hold, .. } => {
                std::thread::sleep(hold);
                guard.end_transmission();
                guard.release();
            }
        }
    }
    WorkerOut {
        shard,
        post_grants,
        stalls,
    }
}

/// Joins a worker, recovering the statistics of a scheduled crash from the
/// unwind payload; real (unscheduled) panics propagate.
fn join_worker(
    handle: std::thread::ScopedJoinHandle<'_, WorkerOut>,
    crashed: &mut usize,
) -> WorkerOut {
    match handle.join() {
        Ok(out) => out,
        Err(payload) => match payload.downcast::<CrashPayload>() {
            Ok(crash) => {
                *crashed += 1;
                crash.0
            }
            Err(other) => std::panic::resume_unwind(other),
        },
    }
}

/// Drives `broker` from one thread per worker on the `arrival` schedule,
/// returning per-worker statistics and the ledger's verdict.
///
/// The run is self-limiting: a Poisson run stops once its schedule
/// horizon plus [`LoadConfig::drain`] has elapsed on the wall clock, a
/// saturated run after `run_for`. The shared [`RunControl`] is then
/// stopped and any still-blocked acquire unwinds as an abandonment — a
/// hung broker fails the run's assertions instead of hanging the process.
///
/// With `chaos`, the run executes `chaos.plan`'s client crashes and
/// stalls, applies `chaos.faults` resource outages, and supervises the
/// broker's leases throughout. The broker should be built `with_lease`
/// (roughly `chaos.lease`), or leaked grants survive until the shutdown
/// force-reclaim. Shutdown sequence: workers joined (crash payloads
/// recovered) → reaper drained → [`Broker::reclaim_all`] (catches leaks
/// whose lease had not yet expired) → outstanding faults repaired →
/// capacity audited. A chaos-correct broker ends with
/// `available_at_end == resources()`, `ledger_held_at_end == 0`, and zero
/// violations.
///
/// # Panics
///
/// Panics on an unscheduled worker panic (e.g. a broker protocol
/// assertion fires) or if a Poisson config's rates are not positive.
pub fn run<B: Broker + ?Sized>(
    broker: &B,
    arrival: &Arrival,
    chaos: Option<&ChaosOptions>,
) -> LoadReport {
    let resources = broker.resources();
    // The epoch anchors the arrival schedule and the chaos and fault
    // clocks; a Poisson run leaves its workers 10 ms to start.
    let (epoch, horizon) = match arrival {
        Arrival::Poisson(cfg) => {
            assert!(cfg.lambda > 0.0, "arrival rate must be positive");
            assert!(cfg.mu_s > 0.0, "service rate must be positive");
            assert!(cfg.scale_us > 0.0, "time scale must be positive");
            (
                Instant::now() + Duration::from_millis(10),
                cfg.warmup + cfg.duration + cfg.drain,
            )
        }
        Arrival::Saturated { run_for, .. } => {
            (Instant::now(), run_for.as_secs_f64() / SATURATED_SCALE_SECS)
        }
    };
    let mut supervisor = chaos.map(|opts| Supervisor {
        poll: opts.supervisor_poll(),
        faults: FaultSchedule::materialize(
            &opts.faults,
            opts.fault_seed,
            resources,
            epoch,
            arrival.scale_secs(),
            horizon,
        ),
    });
    let shared = Shared {
        broker,
        arrival,
        ledger: Ledger::new(resources),
        reaper: Reaper::default(),
        ctl: RunControl::new(),
        epoch,
        chaos: chaos.map(|opts| (&opts.plan, opts.plan.horizon())),
    };
    // Saturated workers release their own grants, so only a Poisson run
    // or a supervised one needs the reaper thread.
    let reap = matches!(arrival, Arrival::Poisson(_)) || supervisor.is_some();

    let mut crashed = 0usize;
    let (outs, reclaimed) = std::thread::scope(|s| {
        let shared = &shared;
        let sup = supervisor.as_mut();
        let reaper = reap.then(|| s.spawn(move || shared.reaper.run(broker, &shared.ledger, sup)));
        let handles: Vec<_> = (0..broker.workers())
            .map(|w| s.spawn(move || drive_worker(shared, w)))
            .collect();
        let stop_at = match arrival {
            Arrival::Poisson(cfg) => epoch + cfg.wall_after(horizon),
            Arrival::Saturated { run_for, .. } => Instant::now() + *run_for,
        };
        sleep_until(stop_at);
        shared.ctl.stop();
        let outs: Vec<WorkerOut> = handles
            .into_iter()
            .map(|h| join_worker(h, &mut crashed))
            .collect();
        shared.reaper.close();
        let reclaimed = reaper.map_or(0, |h| h.join().expect("reaper panicked"));
        (outs, reclaimed)
    });

    let ledger = &shared.ledger;
    let chaos = supervisor.map(|mut sup| {
        let forced_reclaims = broker.reclaim_all(&mut |r, w| ledger.vacate(r, w)) as u64;
        sup.faults.repair_all(broker);
        ChaosSummary {
            crashed,
            stalled: outs.iter().map(|o| o.stalls).sum(),
            reclaimed,
            forced_reclaims,
            post_chaos_grants: outs.iter().map(|o| o.post_grants).sum(),
            available_at_end: broker.available_resources(),
            ledger_held_at_end: ledger.held(),
        }
    });
    LoadReport {
        shards: outs.into_iter().map(|o| o.shard).collect(),
        violations: ledger.violations(),
        chaos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChaosPlan, ClientChaos, ClientEvent, XbarBroker, XbarPolicy};

    #[test]
    fn ledger_counts_double_claims_and_foreign_vacates() {
        let l = Ledger::new(2);
        l.claim(0, 3);
        assert_eq!(l.held(), 1);
        l.claim(0, 4); // double grant
        assert_eq!(l.violations(), 1);
        l.vacate(0, 5); // not the holder
        assert_eq!(l.violations(), 2);
        l.vacate(0, 3);
        assert_eq!(l.held(), 0);
        assert_eq!(l.violations(), 2);
    }

    #[test]
    fn sleep_until_is_accurate_to_the_spin_window() {
        let target = Instant::now() + Duration::from_millis(5);
        sleep_until(target);
        let over = Instant::now().saturating_duration_since(target);
        assert!(over < Duration::from_millis(2), "overshot by {over:?}");
    }

    #[test]
    fn grant_guard_releases_when_the_holder_panics() {
        let broker = XbarBroker::new(2, 2, XbarPolicy::FixedPriority);
        let ledger = Ledger::new(2);
        let ctl = RunControl::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let grant = broker.acquire(0, &ctl).expect("free column");
            let _guard = GrantGuard::audited(&broker, &ledger, 0, grant);
            panic!("holder dies mid-protocol");
        }));
        assert!(result.is_err());
        // The unwound guard ended the transmission, released, and vacated.
        assert_eq!(broker.available_resources(), 2, "grant leaked on panic");
        assert_eq!(ledger.held(), 0);
        assert_eq!(ledger.violations(), 0);
    }

    #[test]
    fn grant_guard_forget_leaks_on_purpose() {
        let broker = XbarBroker::new(2, 2, XbarPolicy::FixedPriority);
        let ledger = Ledger::new(2);
        let ctl = RunControl::new();
        let grant = broker.acquire(0, &ctl).expect("free column");
        let guard = GrantGuard::audited(&broker, &ledger, 0, grant);
        let leaked = guard.forget();
        assert_eq!(leaked, grant);
        assert_eq!(broker.available_resources(), 1, "leak must persist");
        // Shutdown force-reclaim recovers it and squares the ledger.
        let n = broker.reclaim_all(&mut |r, w| ledger.vacate(r, w));
        assert_eq!(n, 1);
        assert_eq!(broker.available_resources(), 2);
        assert_eq!(ledger.held(), 0);
        assert_eq!(ledger.violations(), 0);
    }

    #[test]
    fn load_run_is_audited_and_self_limiting() {
        let broker = XbarBroker::new(2, 2, XbarPolicy::TokenRotation);
        let mut cfg = LoadConfig::new(0.4, 2.0);
        cfg.scale_us = 500.0;
        cfg.warmup = 10.0;
        cfg.duration = 60.0;
        let report = run(&broker, &Arrival::Poisson(cfg), None);
        assert_eq!(report.violations, 0);
        assert_eq!(report.abandoned(), 0, "light load must drain fully");
        assert_eq!(report.measured(), report.offered());
        assert!(report.measured() > 0, "some tasks must be measured");
        assert!(report.mean_delay() >= 0.0);
        assert_eq!(report.hist().count(), report.measured());
        assert_eq!(report.shards.len(), 2);
        assert!(report.chaos.is_none());
    }

    #[test]
    fn saturated_run_counts_every_worker() {
        let broker = XbarBroker::new(3, 1, XbarPolicy::TokenRotation);
        let saturated = Arrival::Saturated {
            hold: Duration::from_micros(300),
            run_for: Duration::from_millis(120),
        };
        let report = run(&broker, &saturated, None);
        assert_eq!(report.violations, 0);
        assert!(report.total_grants() > 10, "saturation must make progress");
    }

    #[test]
    fn chaos_run_recovers_crashed_workers_and_their_grants() {
        let lease = Duration::from_millis(2);
        let broker = XbarBroker::with_lease(4, 2, XbarPolicy::TokenRotation, lease);
        let mut cfg = LoadConfig::new(0.5, 2.0);
        cfg.scale_us = 500.0;
        cfg.warmup = 5.0;
        cfg.duration = 60.0;
        let plan = ChaosPlan::new().with(ClientEvent {
            at: 20.0,
            worker: 1,
            kind: ClientChaos::Crash,
        });
        let opts = ChaosOptions::new(plan, lease);
        let report = run(&broker, &Arrival::Poisson(cfg), Some(&opts));
        let chaos = report.chaos.as_ref().expect("chaos accounting");
        assert_eq!(chaos.crashed, 1, "the scheduled crash must fire");
        assert_eq!(report.violations, 0);
        assert!(
            chaos.reclaimed + chaos.forced_reclaims >= 1,
            "the leak is reclaimed"
        );
        assert!(
            chaos.post_chaos_grants > 0,
            "granting continues after the crash"
        );
        assert_eq!(chaos.available_at_end, 2, "no leaked resources");
        assert_eq!(chaos.ledger_held_at_end, 0);
        assert_eq!(report.shards.len(), 4, "crashed shard recovered");
    }
}
