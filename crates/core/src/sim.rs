//! The task-lifecycle simulator (Section II, assumptions (a)–(f)).
//!
//! Drives any [`ResourceNetwork`] with Poisson arrivals per processor,
//! exponential transmission and service stages, FIFO queueing at the
//! processors, no queueing at the resources, and retry-on-status-change for
//! blocked requests. The headline output is `d`, the mean delay from task
//! arrival until a resource is allocated, matching the paper's eq. (1).
//!
//! # Fault injection
//!
//! [`simulate_faulty`] (and [`simulate_general_faulty`]) run the same
//! lifecycle while applying a [`FaultPlan`]: resource pools and structural
//! elements fail and are repaired mid-run. A task whose resource dies
//! mid-transmission or mid-service is a *casualty*: its lifecycle events
//! are cancelled and it is requeued at the head of its processor's queue,
//! with the processor backing off for a capped exponential interval before
//! re-requesting. Each re-allocation of a requeued task counts as a fresh
//! allocation event in the delay statistics (delay is still measured from
//! the original arrival). A livelock watchdog returns
//! [`SimError::Stalled`] when no allocation makes progress within a
//! configurable event budget while work is pending — a plan that kills
//! every resource produces a typed error, not a hang. The watchdog runs on
//! fault-free runs as well, so a network that loses capacity to a bug
//! fails the run instead of spinning forever.

use crate::network::{Grant, NetworkCounters, PendingSet, ResourceNetwork};
use crate::workload::Workload;
use rsin_des::stats::{TimeWeighted, Welford};
use rsin_des::{
    Calendar, Draw, EventHandle, Exponential, FaultAction, FaultEvent, FaultPlan, FaultTarget,
    SimRng, SimTime,
};
use std::collections::VecDeque;
use std::fmt;

/// The three stochastic stages of the task lifecycle, as arbitrary
/// distributions.
///
/// The paper assumes all three are Markovian (assumption (a));
/// [`simulate_general`] lets sensitivity studies swap any stage for
/// deterministic, Erlang, or hyperexponential alternatives while keeping
/// the same lifecycle semantics.
#[derive(Debug, Clone, Copy)]
pub struct StageDistributions<'a> {
    /// Interarrival time at each processor.
    pub interarrival: &'a dyn Draw,
    /// Task transmission time over the held circuit.
    pub transmission: &'a dyn Draw,
    /// Service time at the resource.
    pub service: &'a dyn Draw,
}

/// Run-length controls for one simulation run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimOptions {
    /// Allocations to discard while the system warms up.
    pub warmup_tasks: u64,
    /// Allocations to measure after warm-up.
    pub measured_tasks: u64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            warmup_tasks: 2_000,
            measured_tasks: 20_000,
        }
    }
}

/// Controls for the fault-handling machinery of [`simulate_faulty`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultOptions {
    /// Livelock watchdog: maximum events processed without a single
    /// allocation while tasks are queued, before the run aborts with
    /// [`SimError::Stalled`].
    pub stall_event_budget: u64,
    /// First post-casualty backoff interval, in model time units.
    pub backoff_base: f64,
    /// Upper bound on the (exponentially growing) backoff interval.
    pub backoff_cap: f64,
}

impl Default for FaultOptions {
    fn default() -> Self {
        FaultOptions {
            stall_event_budget: 100_000,
            backoff_base: 0.1,
            backoff_cap: 10.0,
        }
    }
}

/// A simulation run that could not complete.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SimError {
    /// No allocation made progress within the watchdog's event budget even
    /// though tasks were queued — the injected faults have livelocked the
    /// system (e.g. every resource is down with no repair scheduled), or a
    /// broken network stopped advertising capacity it never returned.
    Stalled {
        /// Simulated time at which the watchdog fired.
        at: f64,
        /// Tasks queued at the processors when the watchdog fired.
        queued: u64,
        /// Events processed since the last successful allocation.
        events_since_progress: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Stalled {
                at,
                queued,
                events_since_progress,
            } => write!(
                f,
                "simulation stalled at t={at:.6}: {queued} task(s) queued but no \
                 allocation in {events_since_progress} events"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Output statistics of one simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Queueing delay `d` (arrival → allocation) observations.
    pub queueing_delay: Welford,
    /// Response time (arrival → service completion) observations.
    pub response_time: Welford,
    /// Time-average number of queued tasks over the measurement window.
    pub mean_queue_length: f64,
    /// Measured allocations per unit time.
    pub throughput: f64,
    /// Simulated time spent in the measurement window.
    pub measured_time: f64,
    /// Network scheduling counters accumulated over the measurement window.
    pub counters: NetworkCounters,
    /// Tasks that arrived over the whole run (warm-up included).
    pub arrivals: u64,
    /// Tasks whose service completed over the whole run.
    pub completions: u64,
    /// Casualty requeues: allocations undone because the granted resource
    /// failed mid-transmission or mid-service.
    pub requeues: u64,
    /// Tasks still queued at the processors when the run ended.
    pub queued_at_end: u64,
    /// Tasks in transmission or service when the run ended.
    pub in_flight_at_end: u64,
    /// Measured service *completions* per unit time — the throughput the
    /// system actually delivered. Equals [`SimReport::throughput`] minus
    /// the allocations lost to casualties and still-in-flight work; the
    /// headline metric of the resilience experiment.
    pub delivered_throughput: f64,
}

impl SimReport {
    /// Mean queueing delay `d`.
    #[must_use]
    pub fn mean_delay(&self) -> f64 {
        self.queueing_delay.mean()
    }

    /// Mean delay normalized by the mean service time (`d · µ_s`), the unit
    /// of the paper's figures.
    #[must_use]
    pub fn normalized_delay(&self, workload: &Workload) -> f64 {
        self.mean_delay() * workload.mu_s()
    }
}

#[derive(Debug)]
enum Event {
    Arrival(usize),
    TxDone { task: u64 },
    SvcDone { task: u64 },
    Fault(FaultEvent),
    Resume(usize),
}

/// Which lifecycle stage an in-flight task is in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    Transmission,
    Service,
}

/// A task that holds an allocation (transmitting or in service).
#[derive(Debug)]
struct InFlight {
    grant: Grant,
    arrival: SimTime,
    retries: u32,
    measured: bool,
    stage: Stage,
    handle: EventHandle,
    /// Allocation sequence number: total order of grants, kept so casualty
    /// teardown is deterministic even though slab slots are recycled.
    seq: u64,
}

/// The in-flight task table: a slab whose slot index is the task id carried
/// by calendar events, with a LIFO free list. Replaces the old per-task
/// `HashMap<u64, InFlight>` — the simulator's hottest collection — with two
/// flat vectors and zero steady-state allocation: a slot freed by a service
/// completion (or casualty teardown) is recycled for the next grant.
///
/// Slot reuse is safe because a slot is only freed when its task's pending
/// event has been delivered or cancelled, so no live event can alias a
/// recycled id.
#[derive(Debug, Default)]
struct InFlightSlab {
    slots: Vec<Option<InFlight>>,
    free: Vec<usize>,
}

impl InFlightSlab {
    /// The id the next [`InFlightSlab::insert`] will return — lets the
    /// caller schedule the task's event (whose payload carries the id)
    /// before constructing the `InFlight` that stores the event's handle.
    fn next_id(&self) -> u64 {
        match self.free.last() {
            Some(&id) => id as u64,
            None => self.slots.len() as u64,
        }
    }

    /// Stores `fl`, returning the task id to embed in its lifecycle events.
    fn insert(&mut self, fl: InFlight) -> u64 {
        match self.free.pop() {
            Some(id) => {
                debug_assert!(self.slots[id].is_none(), "free slot was occupied");
                self.slots[id] = Some(fl);
                id as u64
            }
            None => {
                self.slots.push(Some(fl));
                (self.slots.len() - 1) as u64
            }
        }
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut InFlight> {
        self.slots.get_mut(id as usize).and_then(Option::as_mut)
    }

    /// Removes the task and recycles its slot.
    fn remove(&mut self, id: u64) -> Option<InFlight> {
        let fl = self.slots.get_mut(id as usize).and_then(Option::take)?;
        self.free.push(id as usize);
        Some(fl)
    }

    /// Number of tasks currently in flight.
    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Ids of in-flight tasks holding `port`, in allocation order — the
    /// deterministic casualty order for a resource failure.
    fn casualties_at(&self, port: usize) -> Vec<u64> {
        let mut hit: Vec<(u64, u64)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| {
                slot.as_ref()
                    .filter(|fl| fl.grant.port == port)
                    .map(|fl| (fl.seq, id as u64))
            })
            .collect();
        hit.sort_unstable();
        hit.into_iter().map(|(_, id)| id).collect()
    }
}

/// A task waiting at its processor's queue.
#[derive(Clone, Copy, Debug)]
struct QueuedTask {
    arrival: SimTime,
    retries: u32,
}

/// Incrementally maintained request-readiness: `pending[i]` mirrors
/// `!transmitting[i] && !queues[i].is_empty() && now >= backoff_until[i]`
/// at every decision epoch. The old loop recomputed that predicate for all
/// `p` processors on **every** event; here each event refreshes only the
/// processors it touched, and `count` answers "anyone ready?" in O(1).
///
/// Backoff is the one term that flips by time passing alone, so processors
/// inside a backoff window sit on a watch list that the epoch drains once
/// `now` reaches their deadline — tie-correct even when another event pops
/// at exactly the Resume timestamp.
#[derive(Debug)]
struct ReadySet {
    pending: Vec<bool>,
    /// `pending` bit-packed 64 per word, LSB-first — kept in lockstep so
    /// the decision epoch can hand the network a [`PendingSet`] without a
    /// per-epoch re-pack.
    words: Vec<u64>,
    count: usize,
    backoff_watch: Vec<usize>,
    in_backoff: Vec<bool>,
}

impl ReadySet {
    fn new(p: usize) -> Self {
        ReadySet {
            pending: vec![false; p],
            words: vec![0; p.div_ceil(64)],
            count: 0,
            backoff_watch: Vec::new(),
            in_backoff: vec![false; p],
        }
    }

    /// Records processor `i`'s freshly evaluated readiness in both views.
    #[inline]
    fn apply(&mut self, i: usize, ready: bool) {
        if self.pending[i] != ready {
            self.pending[i] = ready;
            let lane = 1u64 << (i & 63);
            if ready {
                self.words[i >> 6] |= lane;
                self.count += 1;
            } else {
                self.words[i >> 6] &= !lane;
                self.count -= 1;
            }
        }
    }

    /// Re-evaluates processor `i`'s readiness from the live lifecycle state.
    fn refresh(
        &mut self,
        i: usize,
        now: SimTime,
        transmitting: &[bool],
        queues: &[VecDeque<QueuedTask>],
        backoff_until: &[SimTime],
    ) {
        let ready = !transmitting[i] && !queues[i].is_empty() && now >= backoff_until[i];
        self.apply(i, ready);
    }

    /// [`ReadySet::refresh`] right after `queues[i]` gained a task — the
    /// queue is nonempty by construction, so that term is skipped.
    fn refresh_after_push(
        &mut self,
        i: usize,
        now: SimTime,
        transmitting: &[bool],
        backoff_until: &[SimTime],
    ) {
        self.apply(i, !transmitting[i] && now >= backoff_until[i]);
    }

    /// [`ReadySet::refresh`] right after `transmitting[i]` was cleared —
    /// that term is true by construction and is skipped.
    fn refresh_after_txdone(
        &mut self,
        i: usize,
        now: SimTime,
        queues: &[VecDeque<QueuedTask>],
        backoff_until: &[SimTime],
    ) {
        self.apply(i, !queues[i].is_empty() && now >= backoff_until[i]);
    }

    /// Drops a just-granted processor from the set. By the network contract
    /// it was pending, and the caller has marked it transmitting, so its
    /// readiness is unconditionally false — no predicate re-evaluation.
    fn clear_granted(&mut self, i: usize) {
        debug_assert!(self.pending[i], "granted processor was not pending");
        self.pending[i] = false;
        self.words[i >> 6] &= !(1u64 << (i & 63));
        self.count -= 1;
    }

    /// Both views of the pending set, for the network's request cycle.
    fn as_pending(&self) -> PendingSet<'_> {
        PendingSet {
            bools: &self.pending,
            words: &self.words,
        }
    }

    /// Puts `i` on the backoff watch list (idempotent).
    fn watch_backoff(&mut self, i: usize) {
        if !self.in_backoff[i] {
            self.in_backoff[i] = true;
            self.backoff_watch.push(i);
        }
    }

    /// Drains watch-list entries whose window has closed, refreshing them.
    fn expire_backoffs(
        &mut self,
        now: SimTime,
        transmitting: &[bool],
        queues: &[VecDeque<QueuedTask>],
        backoff_until: &[SimTime],
    ) {
        let mut idx = 0;
        while idx < self.backoff_watch.len() {
            let proc = self.backoff_watch[idx];
            if now >= backoff_until[proc] {
                self.in_backoff[proc] = false;
                self.backoff_watch.swap_remove(idx);
                self.refresh(proc, now, transmitting, queues, backoff_until);
            } else {
                idx += 1;
            }
        }
    }
}

/// Simulates `net` under `workload` until `opts.measured_tasks` allocations
/// have been measured (after discarding `opts.warmup_tasks`).
///
/// # Panics
///
/// Panics if the network reports zero processors, grants a non-pending
/// processor, or double-grants a processor within a cycle — all of which
/// indicate a broken [`ResourceNetwork`] implementation.
pub fn simulate(
    net: &mut dyn ResourceNetwork,
    workload: &Workload,
    opts: &SimOptions,
    rng: &mut SimRng,
) -> SimReport {
    simulate_faulty(
        net,
        workload,
        opts,
        &FaultPlan::new(),
        &FaultOptions::default(),
        rng,
    )
    .expect("a fault-free run stalls only on a broken network")
}

/// [`simulate`] with arbitrary stage distributions (the exponential
/// assumptions relaxed).
///
/// # Panics
///
/// Same contract as [`simulate`].
pub fn simulate_general(
    net: &mut dyn ResourceNetwork,
    stages: &StageDistributions<'_>,
    opts: &SimOptions,
    rng: &mut SimRng,
) -> SimReport {
    simulate_general_faulty(
        net,
        stages,
        opts,
        &FaultPlan::new(),
        &FaultOptions::default(),
        rng,
    )
    .expect("a fault-free run stalls only on a broken network")
}

/// [`simulate`] under a [`FaultPlan`]: resource pools and structural
/// elements fail and recover mid-run per the plan.
///
/// Returns [`SimError::Stalled`] when the livelock watchdog detects that
/// no allocation has progressed within `fopts.stall_event_budget` events
/// while tasks are queued.
///
/// # Errors
///
/// [`SimError::Stalled`] as described above.
///
/// # Panics
///
/// Same structural contract as [`simulate`].
pub fn simulate_faulty(
    net: &mut dyn ResourceNetwork,
    workload: &Workload,
    opts: &SimOptions,
    faults: &FaultPlan,
    fopts: &FaultOptions,
    rng: &mut SimRng,
) -> Result<SimReport, SimError> {
    let interarrival = Exponential::with_rate(workload.lambda());
    let transmission = Exponential::with_rate(workload.mu_n());
    let service = Exponential::with_rate(workload.mu_s());
    simulate_general_faulty(
        net,
        &StageDistributions {
            interarrival: &interarrival,
            transmission: &transmission,
            service: &service,
        },
        opts,
        faults,
        fopts,
        rng,
    )
}

/// [`simulate_faulty`] with arbitrary stage distributions.
///
/// # Errors
///
/// [`SimError::Stalled`] when the livelock watchdog fires.
///
/// # Panics
///
/// Same structural contract as [`simulate`].
#[allow(clippy::too_many_lines)]
pub fn simulate_general_faulty(
    net: &mut dyn ResourceNetwork,
    stages: &StageDistributions<'_>,
    opts: &SimOptions,
    faults: &FaultPlan,
    fopts: &FaultOptions,
    rng: &mut SimRng,
) -> Result<SimReport, SimError> {
    let p = net.processors();
    assert!(p > 0, "network must have processors");

    let mut cal: Calendar<Event> = Calendar::new();
    let mut queues: Vec<VecDeque<QueuedTask>> = vec![VecDeque::new(); p];
    let mut transmitting = vec![false; p];
    let mut backoff_until = vec![SimTime::ZERO; p];

    let mut allocations: u64 = 0;
    let target = opts.warmup_tasks + opts.measured_tasks;
    let mut delays = Welford::new();
    let mut responses = Welford::new();
    let mut queue_len = TimeWeighted::new(SimTime::ZERO, 0.0);
    let mut measure_start: Option<SimTime> = None;

    let mut arr_rng = rng.derive(0x41);
    let mut svc_rng = rng.derive(0x53);
    let mut net_rng = rng.derive(0x4e);
    let mut fault_rng = rng.derive(0x46);
    let mut timeline = faults.timeline(&mut fault_rng);

    let mut in_flight = InFlightSlab::default();
    let mut next_seq: u64 = 0;
    let mut arrivals: u64 = 0;
    let mut completions: u64 = 0;
    let mut measured_completions: u64 = 0;
    let mut requeues: u64 = 0;
    let mut events_since_alloc: u64 = 0;

    for proc in 0..p {
        let dt = stages.interarrival.draw(&mut arr_rng);
        cal.schedule(SimTime::ZERO + dt, Event::Arrival(proc));
    }
    if let Some(fe) = timeline.pop() {
        cal.schedule(fe.time, Event::Fault(fe));
    }
    // Drop any counters accumulated before the run.
    let _ = net.take_counters();

    let mut warmup_counters_dropped = false;
    let mut end_time = SimTime::ZERO;

    // Per-cycle scratch, allocated once and reused every decision epoch.
    let mut ready = ReadySet::new(p);
    let mut granted_this_cycle = vec![false; p];
    let mut grants: Vec<Grant> = Vec::new();

    while allocations < target {
        // `pop_open` + `refill`: the arms that schedule exactly one
        // successor event (the bulk of all events) drop it straight into
        // the root hole with one sift; the rest drop the guard, which
        // repairs the heap as a plain `pop` would.
        let (now, ev, hole) = cal
            .pop_open()
            .expect("arrival self-scheduling keeps the calendar nonempty");
        end_time = now;
        events_since_alloc += 1;
        match ev {
            Event::Arrival(proc) => {
                arrivals += 1;
                queues[proc].push_back(QueuedTask {
                    arrival: now,
                    retries: 0,
                });
                queue_len.add(now, 1.0);
                let dt = stages.interarrival.draw(&mut arr_rng);
                hole.refill(now + dt, Event::Arrival(proc));
                ready.refresh_after_push(proc, now, &transmitting, &backoff_until);
            }
            Event::TxDone { task } => {
                let fl = in_flight.get_mut(task).expect("TxDone for unknown task");
                net.end_transmission(fl.grant);
                let proc = fl.grant.processor;
                transmitting[proc] = false;
                let dt = stages.service.draw(&mut svc_rng);
                fl.stage = Stage::Service;
                fl.handle = hole.refill(now + dt, Event::SvcDone { task });
                ready.refresh_after_txdone(proc, now, &queues, &backoff_until);
            }
            Event::SvcDone { task } => {
                drop(hole);
                let fl = in_flight.remove(task).expect("SvcDone for unknown task");
                net.end_service(fl.grant);
                completions += 1;
                if fl.measured {
                    measured_completions += 1;
                    responses.push(now - fl.arrival);
                }
            }
            Event::Fault(fe) => {
                drop(hole);
                apply_fault(
                    net,
                    &fe,
                    now,
                    fopts,
                    &mut cal,
                    &mut in_flight,
                    &mut queues,
                    &mut transmitting,
                    &mut backoff_until,
                    &mut queue_len,
                    &mut requeues,
                    &mut ready,
                );
                if let Some(next) = timeline.pop() {
                    cal.schedule(next.time, Event::Fault(next));
                }
            }
            // A backoff expired; the decision epoch below re-requests.
            Event::Resume(proc) => {
                drop(hole);
                debug_assert!(proc < p, "resume for unknown processor");
            }
        }

        // Decision epoch: let the network serve whoever is still waiting.
        ready.expire_backoffs(now, &transmitting, &queues, &backoff_until);
        if ready.count > 0 {
            net.request_cycle_pending(ready.as_pending(), &mut net_rng, &mut grants);
            for grant in grants.drain(..) {
                assert!(
                    ready.pending[grant.processor] && !granted_this_cycle[grant.processor],
                    "network granted processor {} that was not pending (or twice)",
                    grant.processor
                );
                granted_this_cycle[grant.processor] = true;
                let task = queues[grant.processor]
                    .pop_front()
                    .expect("pending implies nonempty queue");
                queue_len.add(now, -1.0);
                transmitting[grant.processor] = true;

                allocations += 1;
                events_since_alloc = 0;
                let measured = allocations > opts.warmup_tasks;
                if measured {
                    if measure_start.is_none() {
                        measure_start = Some(now);
                        queue_len.reset_at(now);
                        if !warmup_counters_dropped {
                            let _ = net.take_counters();
                            warmup_counters_dropped = true;
                        }
                    }
                    delays.push(now - task.arrival);
                }
                let dt = stages.transmission.draw(&mut svc_rng);
                let seq = next_seq;
                next_seq += 1;
                let id = in_flight.next_id();
                let handle = cal.schedule(now + dt, Event::TxDone { task: id });
                let stored = in_flight.insert(InFlight {
                    grant,
                    arrival: task.arrival,
                    retries: task.retries,
                    measured,
                    stage: Stage::Transmission,
                    handle,
                    seq,
                });
                debug_assert_eq!(stored, id);
                ready.clear_granted(grant.processor);
            }
            granted_this_cycle.fill(false);
        }

        // Livelock watchdog: a plan that kills every resource, or a network
        // that hides capacity it never returns, must fail rather than hang.
        if events_since_alloc > fopts.stall_event_budget {
            let queued: u64 = queues.iter().map(|q| q.len() as u64).sum();
            if queued > 0 {
                return Err(SimError::Stalled {
                    at: now.as_f64(),
                    queued,
                    events_since_progress: events_since_alloc,
                });
            }
        }
    }

    let start = measure_start.unwrap_or(end_time);
    let span = (end_time - start).max(f64::MIN_POSITIVE);
    Ok(SimReport {
        queueing_delay: delays,
        response_time: responses,
        mean_queue_length: queue_len.average(end_time),
        throughput: opts.measured_tasks as f64 / span,
        measured_time: span,
        counters: net.take_counters(),
        arrivals,
        completions,
        requeues,
        queued_at_end: queues.iter().map(|q| q.len() as u64).sum(),
        in_flight_at_end: in_flight.len() as u64,
        delivered_throughput: measured_completions as f64 / span,
    })
}

/// Applies one fault event: flips network state and, for an accepted
/// resource failure, turns the tasks holding that port into casualties —
/// their lifecycle events are cancelled and they rejoin the head of their
/// processor's queue behind a capped exponential backoff.
#[allow(clippy::too_many_arguments)]
fn apply_fault(
    net: &mut dyn ResourceNetwork,
    fe: &FaultEvent,
    now: SimTime,
    fopts: &FaultOptions,
    cal: &mut Calendar<Event>,
    in_flight: &mut InFlightSlab,
    queues: &mut [VecDeque<QueuedTask>],
    transmitting: &mut [bool],
    backoff_until: &mut [SimTime],
    queue_len: &mut TimeWeighted,
    requeues: &mut u64,
    ready: &mut ReadySet,
) {
    match (fe.target, fe.action) {
        (FaultTarget::Resource(port), FaultAction::Fail) => {
            if !net.fail_resource(port) {
                return;
            }
            // Allocation-ordered (by seq, not slot id — slots are recycled)
            // for a deterministic casualty order.
            let casualties = in_flight.casualties_at(port);
            for id in casualties {
                let fl = in_flight.remove(id).expect("listed above");
                cal.cancel(fl.handle);
                if fl.stage == Stage::Transmission {
                    transmitting[fl.grant.processor] = false;
                }
                *requeues += 1;
                let retries = fl.retries + 1;
                queues[fl.grant.processor].push_front(QueuedTask {
                    arrival: fl.arrival,
                    retries,
                });
                queue_len.add(now, 1.0);
                let exponent = (retries - 1).min(30);
                let backoff =
                    (fopts.backoff_base * f64::from(1u32 << exponent)).min(fopts.backoff_cap);
                let until = now + backoff;
                if until > backoff_until[fl.grant.processor] {
                    backoff_until[fl.grant.processor] = until;
                }
                cal.schedule(until, Event::Resume(fl.grant.processor));
                ready.refresh(fl.grant.processor, now, transmitting, queues, backoff_until);
                ready.watch_backoff(fl.grant.processor);
            }
        }
        (FaultTarget::Resource(port), FaultAction::Repair) => {
            net.repair_resource(port);
        }
        (FaultTarget::Element(element), FaultAction::Fail) => {
            net.fail_element(element);
        }
        (FaultTarget::Element(element), FaultAction::Repair) => {
            net.repair_element(element);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsin_queueing::{SharedBusChain, SharedBusParams};

    /// Minimal reference network: `p` processors on one shared bus with `r`
    /// resources, fixed-priority arbitration. This is the Section III system
    /// in its simplest form, used here to validate the simulator against
    /// the exact Markov chain. It supports resource faults on its single
    /// output port so the fault machinery can be tested without pulling in
    /// a real network crate.
    #[derive(Debug)]
    struct TinyBus {
        p: usize,
        r: u32,
        bus_busy: bool,
        busy_resources: u32,
        pool_up: bool,
        counters: NetworkCounters,
    }

    impl TinyBus {
        fn new(p: usize, r: u32) -> Self {
            TinyBus {
                p,
                r,
                bus_busy: false,
                busy_resources: 0,
                pool_up: true,
                counters: NetworkCounters::default(),
            }
        }
    }

    impl ResourceNetwork for TinyBus {
        fn processors(&self) -> usize {
            self.p
        }
        fn total_resources(&self) -> usize {
            self.r as usize
        }
        fn request_cycle(&mut self, pending: &[bool], _rng: &mut SimRng) -> Vec<Grant> {
            let n_pending = pending.iter().filter(|&&b| b).count() as u64;
            self.counters.attempts += n_pending;
            if !self.pool_up || self.bus_busy || self.busy_resources >= self.r {
                self.counters.rejections += n_pending;
                return Vec::new();
            }
            match pending.iter().position(|&b| b) {
                Some(proc) => {
                    self.bus_busy = true;
                    self.counters.rejections += n_pending - 1;
                    vec![Grant {
                        processor: proc,
                        port: 0,
                    }]
                }
                None => Vec::new(),
            }
        }
        fn end_transmission(&mut self, _grant: Grant) {
            self.bus_busy = false;
            self.busy_resources += 1;
        }
        fn end_service(&mut self, _grant: Grant) {
            self.busy_resources -= 1;
        }
        fn fail_resource(&mut self, port: usize) -> bool {
            if port != 0 || !self.pool_up {
                return false;
            }
            self.pool_up = false;
            // Casualties release internally per the trait contract.
            self.bus_busy = false;
            self.busy_resources = 0;
            self.counters.resource_failures += 1;
            true
        }
        fn repair_resource(&mut self, port: usize) -> bool {
            if port != 0 || self.pool_up {
                return false;
            }
            self.pool_up = true;
            self.counters.resource_repairs += 1;
            true
        }
        fn take_counters(&mut self) -> NetworkCounters {
            std::mem::take(&mut self.counters)
        }
        fn label(&self) -> &'static str {
            "TINYBUS"
        }
    }

    #[test]
    fn simulated_bus_matches_markov_chain() {
        let (p, r, lambda, mu_n, mu_s) = (4, 2, 0.06, 1.0, 0.5);
        let workload = Workload::new(lambda, mu_n, mu_s).expect("valid");
        let chain = SharedBusChain::new(SharedBusParams {
            processors: p as u32,
            resources: r,
            lambda,
            mu_n,
            mu_s,
        })
        .expect("stable");
        let exact = chain.solve().expect("solves").mean_queue_delay;

        let mut rng = SimRng::new(2024);
        let mut net = TinyBus::new(p, r);
        let opts = SimOptions {
            warmup_tasks: 5_000,
            measured_tasks: 120_000,
        };
        let report = simulate(&mut net, &workload, &opts, &mut rng);
        let rel = (report.mean_delay() - exact).abs() / exact;
        assert!(
            rel < 0.05,
            "simulated d {} vs exact {} (rel {rel})",
            report.mean_delay(),
            exact
        );
    }

    #[test]
    fn littles_law_holds_in_simulation() {
        let workload = Workload::new(0.08, 1.0, 0.5).expect("valid");
        let mut rng = SimRng::new(7);
        let mut net = TinyBus::new(4, 2);
        let opts = SimOptions {
            warmup_tasks: 3_000,
            measured_tasks: 60_000,
        };
        let report = simulate(&mut net, &workload, &opts, &mut rng);
        // L_q = Λ · d with Λ = p·λ = 0.32.
        let expect = 0.32 * report.mean_delay();
        let rel = (report.mean_queue_length - expect).abs() / expect;
        assert!(
            rel < 0.08,
            "L {} vs Λd {}",
            report.mean_queue_length,
            expect
        );
    }

    #[test]
    fn throughput_matches_offered_load() {
        let workload = Workload::new(0.05, 1.0, 1.0).expect("valid");
        let mut rng = SimRng::new(9);
        let mut net = TinyBus::new(4, 3);
        let opts = SimOptions {
            warmup_tasks: 2_000,
            measured_tasks: 50_000,
        };
        let report = simulate(&mut net, &workload, &opts, &mut rng);
        let rel = (report.throughput - 0.2).abs() / 0.2;
        assert!(rel < 0.05, "throughput {}", report.throughput);
    }

    #[test]
    fn response_time_exceeds_delay_by_stage_means() {
        let workload = Workload::new(0.05, 2.0, 1.0).expect("valid");
        let mut rng = SimRng::new(11);
        let mut net = TinyBus::new(2, 2);
        let opts = SimOptions {
            warmup_tasks: 2_000,
            measured_tasks: 50_000,
        };
        let report = simulate(&mut net, &workload, &opts, &mut rng);
        let expect = report.mean_delay() + 0.5 + 1.0;
        let got = report.response_time.mean();
        assert!(
            (got - expect).abs() / expect < 0.05,
            "response {got} vs d + 1/µn + 1/µs = {expect}"
        );
    }

    #[test]
    fn counters_report_contention() {
        let workload = Workload::new(0.2, 1.0, 1.0).expect("valid");
        let mut rng = SimRng::new(13);
        let mut net = TinyBus::new(4, 1); // heavily contended
        let opts = SimOptions {
            warmup_tasks: 500,
            measured_tasks: 5_000,
        };
        let report = simulate(&mut net, &workload, &opts, &mut rng);
        assert!(report.counters.attempts > 0);
        assert!(report.counters.rejection_ratio() > 0.1);
    }

    #[test]
    fn general_distributions_follow_pollaczek_khinchine() {
        // One processor, unlimited resources: the processor port is an
        // M/G/1 queue in the transmission stage. Deterministic transmission
        // halves the exponential waiting time (PK formula).
        use rsin_des::Deterministic;

        #[derive(Debug)]
        struct Unlimited;
        impl ResourceNetwork for Unlimited {
            fn processors(&self) -> usize {
                1
            }
            fn total_resources(&self) -> usize {
                usize::MAX
            }
            fn request_cycle(&mut self, pending: &[bool], _rng: &mut SimRng) -> Vec<Grant> {
                pending
                    .iter()
                    .enumerate()
                    .filter(|&(_, &b)| b)
                    .map(|(i, _)| Grant {
                        processor: i,
                        port: 0,
                    })
                    .collect()
            }
            fn end_transmission(&mut self, _grant: Grant) {}
            fn end_service(&mut self, _grant: Grant) {}
        }

        let (lambda, mu) = (0.5, 1.0);
        let opts = SimOptions {
            warmup_tasks: 3_000,
            measured_tasks: 60_000,
        };
        let arrivals = rsin_des::Exponential::with_rate(lambda);
        let service = rsin_des::Exponential::with_rate(4.0); // irrelevant stage

        let exp_tx = rsin_des::Exponential::with_rate(mu);
        let mut rng = SimRng::new(31);
        let d_exp = simulate_general(
            &mut Unlimited,
            &StageDistributions {
                interarrival: &arrivals,
                transmission: &exp_tx,
                service: &service,
            },
            &opts,
            &mut rng,
        )
        .mean_delay();

        let det_tx = Deterministic::new(1.0 / mu);
        let mut rng = SimRng::new(31);
        let d_det = simulate_general(
            &mut Unlimited,
            &StageDistributions {
                interarrival: &arrivals,
                transmission: &det_tx,
                service: &service,
            },
            &opts,
            &mut rng,
        )
        .mean_delay();

        // PK: Wq(M/M/1) = 1.0, Wq(M/D/1) = 0.5 at these rates.
        assert!((d_exp - 1.0).abs() < 0.08, "M/M/1 wait {d_exp}");
        assert!((d_det - 0.5).abs() < 0.05, "M/D/1 wait {d_det}");
    }

    #[test]
    fn deterministic_given_seed() {
        let workload = Workload::new(0.05, 1.0, 1.0).expect("valid");
        let opts = SimOptions {
            warmup_tasks: 100,
            measured_tasks: 2_000,
        };
        let run = |seed| {
            let mut rng = SimRng::new(seed);
            let mut net = TinyBus::new(4, 2);
            simulate(&mut net, &workload, &opts, &mut rng).mean_delay()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn simulator_rejects_misbehaving_networks() {
        // Failure injection: a network granting processors that are not
        // pending violates the ResourceNetwork contract; the simulator must
        // fail fast rather than corrupt statistics.
        #[derive(Debug)]
        struct Rogue;
        impl ResourceNetwork for Rogue {
            fn processors(&self) -> usize {
                2
            }
            fn total_resources(&self) -> usize {
                2
            }
            fn request_cycle(&mut self, _pending: &[bool], _rng: &mut SimRng) -> Vec<Grant> {
                // Always grants processor 1, pending or not.
                vec![
                    Grant {
                        processor: 1,
                        port: 0,
                    },
                    Grant {
                        processor: 1,
                        port: 1,
                    },
                ]
            }
            fn end_transmission(&mut self, _grant: Grant) {}
            fn end_service(&mut self, _grant: Grant) {}
        }
        let workload = Workload::new(0.5, 1.0, 1.0).expect("valid");
        let opts = SimOptions {
            warmup_tasks: 0,
            measured_tasks: 10,
        };
        let result = std::panic::catch_unwind(move || {
            let mut rng = SimRng::new(1);
            simulate(&mut Rogue, &workload, &opts, &mut rng)
        });
        assert!(result.is_err(), "double-grant must panic");
    }

    #[test]
    fn casualties_are_requeued_and_conserved() {
        use rsin_des::{FaultPlan, FaultTarget, StochasticFault};
        let workload = Workload::new(0.08, 1.0, 0.5).expect("valid");
        let mut rng = SimRng::new(17);
        let mut net = TinyBus::new(4, 2);
        let opts = SimOptions {
            warmup_tasks: 500,
            measured_tasks: 20_000,
        };
        // The single pool flaps: mean 40 time units up, 3 down.
        let plan = FaultPlan::new().stochastic(StochasticFault {
            target: FaultTarget::Resource(0),
            mtbf: 40.0,
            mttr: 3.0,
        });
        let report = simulate_faulty(
            &mut net,
            &workload,
            &opts,
            &plan,
            &FaultOptions::default(),
            &mut rng,
        )
        .expect("repairs keep the system live");
        assert!(report.requeues > 0, "flapping pool must create casualties");
        assert!(report.counters.resource_failures > 0);
        assert!(
            report.counters.resource_repairs >= report.counters.resource_failures.saturating_sub(1)
        );
        // No task silently lost.
        assert_eq!(
            report.arrivals,
            report.completions + report.queued_at_end + report.in_flight_at_end,
            "conservation: arrivals = completions + queued + in flight"
        );
        // Delivered throughput cannot exceed allocation throughput.
        assert!(report.delivered_throughput <= report.throughput * 1.001);
    }

    #[test]
    fn killing_every_resource_stalls_with_typed_error() {
        use rsin_des::{FaultPlan, FaultTarget};
        let workload = Workload::new(0.2, 1.0, 1.0).expect("valid");
        let mut rng = SimRng::new(5);
        let mut net = TinyBus::new(4, 2);
        let opts = SimOptions {
            warmup_tasks: 100,
            measured_tasks: 100_000,
        };
        // Kill the only pool early, never repair it.
        let plan = FaultPlan::new().fail_at(SimTime::new(5.0), FaultTarget::Resource(0));
        let fopts = FaultOptions {
            stall_event_budget: 5_000,
            ..FaultOptions::default()
        };
        let err = simulate_faulty(&mut net, &workload, &opts, &plan, &fopts, &mut rng)
            .expect_err("no capacity and no repair must stall");
        let SimError::Stalled {
            queued,
            events_since_progress,
            ..
        } = err;
        assert!(queued > 0);
        assert!(events_since_progress > 5_000);
        assert!(!err.to_string().is_empty());
    }

    /// Wraps a network and, after `grants_left` grants, permanently reports
    /// no capacity — the shape of a resolver bug that never re-advertises a
    /// freed resource.
    #[derive(Debug)]
    struct LosesCapacity<N> {
        inner: N,
        grants_left: usize,
    }

    impl<N: ResourceNetwork> ResourceNetwork for LosesCapacity<N> {
        fn processors(&self) -> usize {
            self.inner.processors()
        }
        fn total_resources(&self) -> usize {
            self.inner.total_resources()
        }
        fn request_cycle(&mut self, pending: &[bool], rng: &mut SimRng) -> Vec<Grant> {
            if self.grants_left == 0 {
                return Vec::new();
            }
            let grants = self.inner.request_cycle(pending, rng);
            self.grants_left = self.grants_left.saturating_sub(grants.len());
            grants
        }
        fn end_transmission(&mut self, grant: Grant) {
            self.inner.end_transmission(grant);
        }
        fn end_service(&mut self, grant: Grant) {
            self.inner.end_service(grant);
        }
    }

    #[test]
    fn healthy_run_on_a_network_that_loses_capacity_stalls() {
        let workload = Workload::new(0.2, 1.0, 1.0).expect("valid");
        let mut rng = SimRng::new(11);
        let mut net = LosesCapacity {
            inner: TinyBus::new(4, 2),
            grants_left: 50,
        };
        let opts = SimOptions {
            warmup_tasks: 10,
            measured_tasks: 1_000,
        };
        let fopts = FaultOptions {
            stall_event_budget: 2_000,
            ..FaultOptions::default()
        };
        let err = simulate_faulty(
            &mut net,
            &workload,
            &opts,
            &FaultPlan::new(),
            &fopts,
            &mut rng,
        )
        .expect_err("a network that never frees capacity must stall");
        let SimError::Stalled {
            queued,
            events_since_progress,
            ..
        } = err;
        assert!(queued > 0);
        assert!(events_since_progress > 2_000);
    }

    #[test]
    fn faulty_runs_are_deterministic_given_seed() {
        use rsin_des::{FaultPlan, FaultTarget, StochasticFault};
        let workload = Workload::new(0.08, 1.0, 0.5).expect("valid");
        let opts = SimOptions {
            warmup_tasks: 200,
            measured_tasks: 5_000,
        };
        let plan = FaultPlan::new().stochastic(StochasticFault {
            target: FaultTarget::Resource(0),
            mtbf: 30.0,
            mttr: 2.0,
        });
        let run = |seed| {
            let mut rng = SimRng::new(seed);
            let mut net = TinyBus::new(4, 2);
            let r = simulate_faulty(
                &mut net,
                &workload,
                &opts,
                &plan,
                &FaultOptions::default(),
                &mut rng,
            )
            .expect("live");
            (r.mean_delay(), r.requeues, r.completions)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn repair_restores_pre_fault_capacity() {
        use rsin_des::{FaultPlan, FaultTarget};
        // Fail the pool for a fixed window; after repair the delivered
        // throughput over a long run approaches the offered load again.
        let workload = Workload::new(0.05, 1.0, 1.0).expect("valid");
        let mut rng = SimRng::new(23);
        let mut net = TinyBus::new(4, 3);
        let opts = SimOptions {
            warmup_tasks: 2_000,
            measured_tasks: 50_000,
        };
        let plan = FaultPlan::new()
            .fail_at(SimTime::new(100.0), FaultTarget::Resource(0))
            .repair_at(SimTime::new(130.0), FaultTarget::Resource(0));
        let report = simulate_faulty(
            &mut net,
            &workload,
            &opts,
            &plan,
            &FaultOptions::default(),
            &mut rng,
        )
        .expect("repaired");
        // Offered load Λ = 4 · 0.05 = 0.2; one 30-unit outage in a
        // ~250k-unit run is invisible at this tolerance.
        let rel = (report.throughput - 0.2).abs() / 0.2;
        assert!(rel < 0.05, "throughput {} after repair", report.throughput);
    }

    #[test]
    fn fault_at_t_zero_and_zero_duration_window_complete_cleanly() {
        use rsin_des::{FaultPlan, FaultTarget};
        // Two timeline edge cases the resilient harness leans on: the pool
        // is already down when the first task arrives (fail at t = 0), and
        // a later fail/repair pair lands at the same instant (zero-duration
        // window). Both must leave the engine live and task-conserving.
        let workload = Workload::new(0.05, 1.0, 0.5).expect("valid");
        let mut rng = SimRng::new(41);
        let mut net = TinyBus::new(4, 2);
        let opts = SimOptions {
            warmup_tasks: 500,
            measured_tasks: 10_000,
        };
        let plan = FaultPlan::new()
            .fail_at(SimTime::ZERO, FaultTarget::Resource(0))
            .repair_at(SimTime::new(20.0), FaultTarget::Resource(0))
            .fail_at(SimTime::new(50.0), FaultTarget::Resource(0))
            .repair_at(SimTime::new(50.0), FaultTarget::Resource(0));
        let report = simulate_faulty(
            &mut net,
            &workload,
            &opts,
            &plan,
            &FaultOptions::default(),
            &mut rng,
        )
        .expect("repairs keep the system live");
        // All four fault events land inside the warmup window, and network
        // counters cover the measured window only — so no failures are
        // *counted*, but the run must still complete and conserve tasks.
        assert_eq!(report.counters.resource_failures, 0);
        assert_eq!(report.counters.resource_repairs, 0);
        assert!(report.completions > 0);
        assert_eq!(
            report.arrivals,
            report.completions + report.queued_at_end + report.in_flight_at_end,
            "conservation with a t=0 fault and a zero-duration window"
        );
    }

    #[test]
    fn fault_free_plan_matches_plain_simulate() {
        use rsin_des::FaultPlan;
        let workload = Workload::new(0.06, 1.0, 0.5).expect("valid");
        let opts = SimOptions {
            warmup_tasks: 500,
            measured_tasks: 10_000,
        };
        let mut rng_a = SimRng::new(77);
        let mut net_a = TinyBus::new(4, 2);
        let plain = simulate(&mut net_a, &workload, &opts, &mut rng_a);
        let mut rng_b = SimRng::new(77);
        let mut net_b = TinyBus::new(4, 2);
        let faulty = simulate_faulty(
            &mut net_b,
            &workload,
            &opts,
            &FaultPlan::new(),
            &FaultOptions::default(),
            &mut rng_b,
        )
        .expect("no faults");
        assert_eq!(plain.mean_delay(), faulty.mean_delay());
        assert_eq!(plain.requeues, 0);
        assert_eq!(faulty.requeues, 0);
    }

    #[test]
    fn normalized_delay_scales_by_mu_s() {
        let workload = Workload::new(0.05, 1.0, 2.0).expect("valid");
        let mut rng = SimRng::new(3);
        let mut net = TinyBus::new(2, 2);
        let opts = SimOptions {
            warmup_tasks: 500,
            measured_tasks: 5_000,
        };
        let report = simulate(&mut net, &workload, &opts, &mut rng);
        assert!((report.normalized_delay(&workload) - report.mean_delay() * 2.0).abs() < 1e-12);
    }
}
