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
//! [`simulate_faulty`] runs the same lifecycle while applying a
//! [`FaultPlan`]: resource pools and structural elements fail and are
//! repaired mid-run. A task whose resource dies mid-transmission or
//! mid-service is a *casualty*: its lifecycle events
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
//!
//! # Resource types
//!
//! The same loop runs the paper's multiple-resource-type extension
//! ([`crate::typed::simulate_typed`]): each task draws the type it
//! requests from the workload's mix, the network sees each processor's
//! head-of-queue type in its [`PendingSet`], every grant must land on a
//! port of the requested type, and [`SimReport::per_type_delay`] splits
//! the delay by type.
//!
//! # Result-return leg
//!
//! [`simulate_round_trip`] runs Section II's return leg in the same loop:
//! after service each result waits for a circuit of a [`ReturnNetwork`]
//! back to its processor. Return times have their own random stream and a
//! return completion runs no decision epoch, so every statistic
//! [`simulate`] reports stays bit for bit the same.

use crate::network::{Grant, NetworkCounters, PendingSet, ResourceNetwork, ReturnNetwork};
use crate::typed::TypedWorkload;
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
}

impl Default for FaultOptions {
    fn default() -> Self {
        FaultOptions {
            stall_event_budget: 100_000,
        }
    }
}

/// First post-casualty backoff interval of [`simulate_faulty`], in model
/// time units.
const BACKOFF_BASE: f64 = 0.1;
/// Upper bound on the (exponentially growing) backoff interval.
const BACKOFF_CAP: f64 = 10.0;

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
        /// Tasks queued at the processors when the watchdog fired — or, past
        /// the forward target of a run with a return leg, results waiting
        /// for a return circuit.
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
    /// The same observations split by requested resource type, one entry
    /// per [`ResourceNetwork::resource_types`]; a single-type network's
    /// one entry equals `queueing_delay`.
    pub per_type_delay: Vec<Welford>,
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
    /// Round-trip time (arrival → result back at the processor) of each
    /// measured task; empty unless the run had a return leg
    /// ([`simulate_round_trip`]).
    pub round_trip: Welford,
    /// Time each measured task's result waited at its resource for a
    /// return circuit; empty unless the run had a return leg.
    pub return_wait: Welford,
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
    RetDone(TaskResult),
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
    ty: usize,
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

/// A serviced task's result on its way back to its processor.
#[derive(Clone, Copy, Debug)]
struct TaskResult {
    grant: Grant,
    arrival: SimTime,
    /// When service ended and the result began waiting for a circuit.
    ready_at: SimTime,
    /// Whether the task is one of the run's measured allocations.
    counted: bool,
}

/// The result-return leg of a run: the return network, the return time
/// and its own random stream, the results waiting for a circuit (oldest
/// first), and the two statistics the leg measures.
struct ReturnLeg<'a> {
    net: &'a mut dyn ReturnNetwork,
    time: Exponential,
    rng: SimRng,
    waiting: Vec<TaskResult>,
    round_trip: Welford,
    return_wait: Welford,
}

impl ReturnLeg<'_> {
    /// Opens a circuit for every waiting result the network carries now,
    /// oldest first, and schedules its arrival.
    fn send(&mut self, now: SimTime, cal: &mut Calendar<Event>) {
        self.waiting.retain(|result| {
            if !self.net.try_send(result.grant) {
                return true;
            }
            if result.counted {
                self.return_wait.push(now - result.ready_at);
            }
            let dt = self.time.draw(&mut self.rng);
            cal.schedule(now + dt, Event::RetDone(*result));
            false
        });
    }
}

/// A task waiting at its processor's queue.
#[derive(Clone, Copy, Debug)]
struct QueuedTask {
    arrival: SimTime,
    retries: u32,
    /// The resource type the task requests.
    ty: usize,
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
    /// Each processor's head-of-queue type, written whenever readiness is
    /// re-evaluated with a nonempty queue.
    types: Vec<usize>,
    count: usize,
    backoff_watch: Vec<usize>,
    in_backoff: Vec<bool>,
}

impl ReadySet {
    fn new(p: usize) -> Self {
        ReadySet {
            pending: vec![false; p],
            words: vec![0; p.div_ceil(64)],
            types: vec![0; p],
            count: 0,
            backoff_watch: Vec::new(),
            in_backoff: vec![false; p],
        }
    }

    /// Records processor `i`'s freshly evaluated readiness in both views,
    /// and the type its `head` task requests.
    #[inline]
    fn apply(&mut self, i: usize, head: Option<&QueuedTask>, ready: bool) {
        if let Some(task) = head {
            self.types[i] = task.ty;
        }
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
        self.apply(i, queues[i].front(), ready);
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
            types: &self.types,
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
    run(
        net,
        stages,
        None,
        None,
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
    simulate_exponential(net, workload, None, None, opts, faults, fopts, rng)
}

/// [`simulate`] plus the result-return leg: each result waits for a circuit
/// of `ret` back to its processor and travels for an `Exp(mu_r)` time. The
/// run goes on until every measured result is back, filling
/// [`SimReport::round_trip`] and [`SimReport::return_wait`]; every other
/// statistic is bit for bit [`simulate`]'s for the same network and seed.
///
/// # Panics
///
/// Panics if `mu_r` is not positive and finite, on [`simulate`]'s
/// structural violations, and on a stall — such as a return network that
/// never frees a circuit.
pub fn simulate_round_trip(
    net: &mut dyn ResourceNetwork,
    ret: &mut dyn ReturnNetwork,
    workload: &Workload,
    mu_r: f64,
    opts: &SimOptions,
    rng: &mut SimRng,
) -> SimReport {
    assert!(mu_r.is_finite() && mu_r > 0.0, "mu_r must be positive");
    simulate_exponential(
        net,
        workload,
        None,
        Some((ret, Exponential::with_rate(mu_r))),
        opts,
        &FaultPlan::new(),
        &FaultOptions::default(),
        rng,
    )
    .expect("a fault-free run stalls only on a broken network")
}

/// [`simulate_faulty`] with, when `mix` is given, each task requesting a
/// resource type drawn from it and, when `ret` is given, the result-return
/// leg over that network and return time.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_exponential(
    net: &mut dyn ResourceNetwork,
    workload: &Workload,
    mix: Option<&TypedWorkload>,
    ret: Option<(&mut dyn ReturnNetwork, Exponential)>,
    opts: &SimOptions,
    faults: &FaultPlan,
    fopts: &FaultOptions,
    rng: &mut SimRng,
) -> Result<SimReport, SimError> {
    let interarrival = Exponential::with_rate(workload.lambda());
    let transmission = Exponential::with_rate(workload.mu_n());
    let service = Exponential::with_rate(workload.mu_s());
    let stages = StageDistributions {
        interarrival: &interarrival,
        transmission: &transmission,
        service: &service,
    };
    run(net, &stages, mix, ret, opts, faults, fopts, rng)
}

/// The one event loop behind every entry point. A `mix` of more than one
/// type gives each arriving task a type drawn from it; otherwise every
/// task requests type 0. A `ret` adds the result-return leg.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn run(
    net: &mut dyn ResourceNetwork,
    stages: &StageDistributions<'_>,
    mix: Option<&TypedWorkload>,
    ret: Option<(&mut dyn ReturnNetwork, Exponential)>,
    opts: &SimOptions,
    faults: &FaultPlan,
    fopts: &FaultOptions,
    rng: &mut SimRng,
) -> Result<SimReport, SimError> {
    let p = net.processors();
    assert!(p > 0, "network must have processors");
    let mix = mix.filter(|w| w.types() > 1);

    let mut cal: Calendar<Event> = Calendar::new();
    let mut queues: Vec<VecDeque<QueuedTask>> = vec![VecDeque::new(); p];
    let mut transmitting = vec![false; p];
    let mut backoff_until = vec![SimTime::ZERO; p];

    let mut allocations: u64 = 0;
    let target = opts.warmup_tasks + opts.measured_tasks;
    let mut delays = Welford::new();
    let mut per_type = vec![Welford::new(); net.resource_types()];
    let mut responses = Welford::new();
    let mut queue_len = TimeWeighted::new(SimTime::ZERO, 0.0);
    let mut measure_start: Option<SimTime> = None;

    let mut arr_rng = rng.derive(0x41);
    let mut svc_rng = rng.derive(0x53);
    let mut net_rng = rng.derive(0x4e);
    let mut fault_rng = rng.derive(0x46);
    let mut type_rng = rng.derive(0x54);
    let mut timeline = faults.timeline(&mut fault_rng);
    let mut ret = ret.map(|(net, time)| ReturnLeg {
        net,
        time,
        rng: rng.derive(0x52),
        waiting: Vec::new(),
        round_trip: Welford::new(),
        return_wait: Welford::new(),
    });
    let mut forward: Option<SimReport> = None;

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
    let mut grants: Vec<Grant> = Vec::new();

    loop {
        if allocations >= target {
            // The forward leg is done; what the return leg still does
            // cannot change its report.
            if forward.is_none() {
                let start = measure_start.unwrap_or(end_time);
                let span = (end_time - start).max(f64::MIN_POSITIVE);
                forward = Some(SimReport {
                    queueing_delay: delays,
                    per_type_delay: per_type.clone(),
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
                    round_trip: Welford::new(),
                    return_wait: Welford::new(),
                });
            }
            if ret
                .as_ref()
                .is_none_or(|leg| leg.round_trip.count() >= opts.measured_tasks)
            {
                break;
            }
        }
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
                    ty: mix.map_or(0, |w| w.draw_type(&mut type_rng)),
                });
                queue_len.add(now, 1.0);
                let dt = stages.interarrival.draw(&mut arr_rng);
                hole.refill(now + dt, Event::Arrival(proc));
                ready.refresh(proc, now, &transmitting, &queues, &backoff_until);
            }
            Event::TxDone { task } => {
                let fl = in_flight.get_mut(task).expect("TxDone for unknown task");
                net.end_transmission(fl.grant);
                let proc = fl.grant.processor;
                transmitting[proc] = false;
                let dt = stages.service.draw(&mut svc_rng);
                fl.stage = Stage::Service;
                fl.handle = hole.refill(now + dt, Event::SvcDone { task });
                ready.refresh(proc, now, &transmitting, &queues, &backoff_until);
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
                if let Some(leg) = &mut ret {
                    leg.waiting.push(TaskResult {
                        grant: fl.grant,
                        arrival: fl.arrival,
                        ready_at: now,
                        counted: fl.measured && fl.seq < target,
                    });
                    leg.send(now, &mut cal);
                }
            }
            Event::Fault(fe) => {
                drop(hole);
                apply_fault(
                    net,
                    &fe,
                    now,
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
            // A return completion changes no forward state, so it runs no
            // decision epoch; past the forward target it is progress.
            Event::RetDone(result) => {
                drop(hole);
                let leg = ret.as_mut().expect("only a return leg schedules returns");
                leg.net.end_return(result.grant);
                if result.counted {
                    leg.round_trip.push(now - result.arrival);
                }
                leg.send(now, &mut cal);
                if allocations >= target {
                    events_since_alloc = 0;
                }
                continue;
            }
        }

        // Decision epoch: let the network serve whoever is still waiting,
        // until the forward target is reached.
        ready.expire_backoffs(now, &transmitting, &queues, &backoff_until);
        if ready.count > 0 && allocations < target {
            net.request_cycle_pending(ready.as_pending(), &mut net_rng, &mut grants);
            for grant in grants.drain(..) {
                // Each grant leaves the pending set below, so a second
                // grant of one processor in this cycle fails here too.
                assert!(
                    ready.pending[grant.processor],
                    "network granted processor {} that was not pending (or twice)",
                    grant.processor
                );
                let task = queues[grant.processor]
                    .pop_front()
                    .expect("pending implies nonempty queue");
                assert_eq!(
                    net.port_type(grant.port),
                    task.ty,
                    "network must serve the requested type"
                );
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
                    per_type[task.ty].push(now - task.arrival);
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
                    ty: task.ty,
                    measured,
                    stage: Stage::Transmission,
                    handle,
                    seq,
                });
                debug_assert_eq!(stored, id);
                ready.clear_granted(grant.processor);
            }
        }

        // Livelock watchdog: a plan that kills every resource, or a network
        // that hides capacity it never returns, must fail rather than hang.
        // Past the forward target, the work that can stall is the results
        // waiting for a return circuit.
        if events_since_alloc > fopts.stall_event_budget {
            let queued: u64 = match &ret {
                Some(leg) if allocations >= target => leg.waiting.len() as u64,
                _ => queues.iter().map(|q| q.len() as u64).sum(),
            };
            if queued > 0 {
                return Err(SimError::Stalled {
                    at: now.as_f64(),
                    queued,
                    events_since_progress: events_since_alloc,
                });
            }
        }
    }

    let mut report = forward.expect("the loop ends only past the forward target");
    if let Some(leg) = ret {
        report.round_trip = leg.round_trip;
        report.return_wait = leg.return_wait;
    }
    Ok(report)
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
                    ty: fl.ty,
                });
                queue_len.add(now, 1.0);
                let exponent = (retries - 1).min(30);
                let backoff = (BACKOFF_BASE * f64::from(1u32 << exponent)).min(BACKOFF_CAP);
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
        fn request_cycle_pending(
            &mut self,
            pending: PendingSet<'_>,
            _rng: &mut SimRng,
            out: &mut Vec<Grant>,
        ) {
            let n_pending = pending.bools.iter().filter(|&&b| b).count() as u64;
            self.counters.attempts += n_pending;
            if !self.pool_up || self.bus_busy || self.busy_resources >= self.r {
                self.counters.rejections += n_pending;
                return;
            }
            if let Some(processor) = pending.bools.iter().position(|&b| b) {
                self.bus_busy = true;
                self.counters.rejections += n_pending - 1;
                out.push(Grant { processor, port: 0 });
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
            fn request_cycle_pending(
                &mut self,
                pending: PendingSet<'_>,
                _rng: &mut SimRng,
                out: &mut Vec<Grant>,
            ) {
                out.extend(
                    (0..pending.bools.len())
                        .filter(|&i| pending.bools[i])
                        .map(|processor| Grant { processor, port: 0 }),
                );
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
            fn request_cycle_pending(
                &mut self,
                _pending: PendingSet<'_>,
                _rng: &mut SimRng,
                out: &mut Vec<Grant>,
            ) {
                // Always grants processor 1, pending or not.
                out.extend((0..2).map(|port| Grant { processor: 1, port }));
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
    fn simulator_rejects_a_pending_processor_granted_twice_in_one_cycle() {
        /// Grants the lowest pending processor twice, on two ports.
        #[derive(Debug)]
        struct Twice;
        impl ResourceNetwork for Twice {
            fn processors(&self) -> usize {
                2
            }
            fn total_resources(&self) -> usize {
                2
            }
            fn request_cycle_pending(
                &mut self,
                pending: PendingSet<'_>,
                _rng: &mut SimRng,
                out: &mut Vec<Grant>,
            ) {
                if let Some(processor) = pending.bools.iter().position(|&p| p) {
                    out.extend((0..2).map(|port| Grant { processor, port }));
                }
            }
            fn end_transmission(&mut self, _grant: Grant) {}
            fn end_service(&mut self, _grant: Grant) {}
        }
        let workload = Workload::new(0.5, 1.0, 1.0).expect("valid");
        let opts = SimOptions {
            warmup_tasks: 0,
            measured_tasks: 10,
        };
        let panic = std::panic::catch_unwind(move || {
            simulate(&mut Twice, &workload, &opts, &mut SimRng::new(1))
        })
        .expect_err("granting one processor twice must panic");
        let message = panic.downcast_ref::<String>().expect("formatted message");
        assert!(message.contains("not pending (or twice)"), "{message}");
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

    /// One single-resource pool per type, port `t` hosting type `t`, with
    /// no circuit contention. It remembers the type of every casualty and
    /// checks that the processor's next request carries that type again.
    #[derive(Debug)]
    struct TypedPools {
        p: usize,
        busy: Vec<bool>,
        up: Vec<bool>,
        /// `(processor, port)` of every grant not yet through service.
        held: Vec<(usize, usize)>,
        requeued_type: Vec<Option<usize>>,
        checked: u64,
    }

    impl ResourceNetwork for TypedPools {
        fn processors(&self) -> usize {
            self.p
        }
        fn total_resources(&self) -> usize {
            self.busy.len()
        }
        fn resource_types(&self) -> usize {
            self.busy.len()
        }
        fn port_type(&self, port: usize) -> usize {
            port
        }
        fn request_cycle_pending(
            &mut self,
            pending: PendingSet<'_>,
            _rng: &mut SimRng,
            out: &mut Vec<Grant>,
        ) {
            for i in (0..self.p).filter(|&i| pending.bools[i]) {
                let t = pending.types[i];
                if let Some(lost) = self.requeued_type[i].take() {
                    assert_eq!(t, lost, "a casualty must re-request its own type");
                    self.checked += 1;
                }
                if self.up[t] && !self.busy[t] {
                    self.busy[t] = true;
                    self.held.push((i, t));
                    out.push(Grant {
                        processor: i,
                        port: t,
                    });
                }
            }
        }
        fn end_transmission(&mut self, _grant: Grant) {}
        fn end_service(&mut self, grant: Grant) {
            let at = self
                .held
                .iter()
                .position(|&h| h == (grant.processor, grant.port));
            self.held.remove(at.expect("service ends on a held grant"));
            self.busy[grant.port] = false;
        }
        fn fail_resource(&mut self, port: usize) -> bool {
            if !std::mem::replace(&mut self.up[port], false) {
                return false;
            }
            self.busy[port] = false;
            for &(proc, _) in self.held.iter().filter(|h| h.1 == port) {
                self.requeued_type[proc] = Some(port);
            }
            self.held.retain(|h| h.1 != port);
            true
        }
        fn repair_resource(&mut self, port: usize) -> bool {
            !std::mem::replace(&mut self.up[port], true)
        }
    }

    #[test]
    fn typed_casualties_are_requeued_with_their_type() {
        use crate::typed::TypedWorkload;
        use rsin_des::{FaultTarget, StochasticFault};
        let base = Workload::new(0.05, 1.0, 0.5).expect("valid");
        let mix = TypedWorkload::new(base, vec![0.5, 0.5]).expect("valid mix");
        let mut net = TypedPools {
            p: 4,
            busy: vec![false; 2],
            up: vec![true; 2],
            held: Vec::new(),
            requeued_type: vec![None; 4],
            checked: 0,
        };
        let mut plan = FaultPlan::new();
        for port in 0..2 {
            plan = plan.stochastic(StochasticFault {
                target: FaultTarget::Resource(port),
                mtbf: 20.0,
                mttr: 2.0,
            });
        }
        let opts = SimOptions {
            warmup_tasks: 200,
            measured_tasks: 5_000,
        };
        let report = simulate_exponential(
            &mut net,
            &base,
            Some(&mix),
            None,
            &opts,
            &plan,
            &FaultOptions::default(),
            &mut SimRng::new(23),
        )
        .expect("repairs keep the system live");
        assert!(report.requeues > 0, "flapping pools must create casualties");
        assert!(net.checked > 0, "some casualty must have re-requested");
        let split: u64 = report.per_type_delay.iter().map(Welford::count).sum();
        assert_eq!(split, report.queueing_delay.count());
        assert!(report.per_type_delay.iter().all(|d| d.count() > 1_000));
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
        fn request_cycle_pending(
            &mut self,
            pending: PendingSet<'_>,
            rng: &mut SimRng,
            out: &mut Vec<Grant>,
        ) {
            if self.grants_left > 0 {
                self.inner.request_cycle_pending(pending, rng, out);
                self.grants_left = self.grants_left.saturating_sub(out.len());
            }
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

    /// Unlimited forward network (per-processor port only).
    #[derive(Debug)]
    struct Wide {
        p: usize,
    }

    impl ResourceNetwork for Wide {
        fn processors(&self) -> usize {
            self.p
        }
        fn total_resources(&self) -> usize {
            usize::MAX
        }
        fn request_cycle_pending(
            &mut self,
            pending: PendingSet<'_>,
            _rng: &mut SimRng,
            out: &mut Vec<Grant>,
        ) {
            out.extend((0..self.p).filter(|&i| pending.bools[i]).map(|i| Grant {
                processor: i,
                port: i,
            }));
        }
        fn end_transmission(&mut self, _grant: Grant) {}
        fn end_service(&mut self, _grant: Grant) {}
    }

    /// A return network with a single shared channel.
    #[derive(Debug, Default)]
    struct OneChannel {
        busy: bool,
    }

    impl ReturnNetwork for OneChannel {
        fn try_send(&mut self, _grant: Grant) -> bool {
            !std::mem::replace(&mut self.busy, true)
        }
        fn end_return(&mut self, _grant: Grant) {
            assert!(
                std::mem::take(&mut self.busy),
                "return ends on a held channel"
            );
        }
    }

    #[test]
    fn instant_return_adds_exactly_one_stage() {
        use crate::InstantReturn;
        let workload = Workload::new(0.2, 2.0, 1.0).expect("valid");
        let opts = SimOptions {
            warmup_tasks: 1_000,
            measured_tasks: 20_000,
        };
        let report = simulate_round_trip(
            &mut Wide { p: 4 },
            &mut InstantReturn,
            &workload,
            4.0,
            &opts,
            &mut SimRng::new(5),
        );
        assert_eq!(report.round_trip.count(), 20_000);
        // Round trip = d + 1/µn + 1/µs + 1/µr.
        let expect = report.mean_delay() + 0.5 + 1.0 + 0.25;
        let got = report.round_trip.mean();
        assert!(
            (got - expect).abs() / expect < 0.05,
            "round trip {got} vs expected {expect}"
        );
        assert_eq!(report.return_wait.count(), 20_000);
        assert_eq!(report.return_wait.max(), 0.0, "instant return never waits");
    }

    #[test]
    fn contended_return_path_adds_waiting() {
        use crate::equivalence::fingerprint;
        let workload = Workload::new(0.3, 4.0, 2.0).expect("valid");
        let opts = SimOptions {
            warmup_tasks: 500,
            measured_tasks: 8_000,
        };
        // Return channel at rate 2.0 shared by 4 processors offering 1.2
        // results/time: utilization 0.6 — real queueing.
        let report = simulate_round_trip(
            &mut Wide { p: 4 },
            &mut OneChannel::default(),
            &workload,
            2.0,
            &opts,
            &mut SimRng::new(7),
        );
        assert!(
            report.return_wait.mean() > 0.1,
            "shared return channel must queue, got {}",
            report.return_wait.mean()
        );
        assert_eq!(report.round_trip.count(), 8_000);
        // The paper's d — and every other forward statistic — is the
        // plain run's, bit for bit.
        let plain = simulate(&mut Wide { p: 4 }, &workload, &opts, &mut SimRng::new(7));
        assert_eq!(fingerprint(&report), fingerprint(&plain));
        assert_eq!(plain.round_trip.count(), 0, "no return leg, no round trips");
        assert_eq!(plain.return_wait.count(), 0);
    }

    #[test]
    #[should_panic(expected = "mu_r must be positive")]
    fn rejects_bad_return_rate() {
        let workload = Workload::new(0.1, 1.0, 1.0).expect("valid");
        let _ = simulate_round_trip(
            &mut Wide { p: 1 },
            &mut crate::InstantReturn,
            &workload,
            0.0,
            &SimOptions::default(),
            &mut SimRng::new(1),
        );
    }

    /// A return network that never opens a circuit.
    #[derive(Debug)]
    struct Refuses;

    impl ReturnNetwork for Refuses {
        fn try_send(&mut self, _grant: Grant) -> bool {
            false
        }
        fn end_return(&mut self, _grant: Grant) {
            unreachable!("no circuit was ever opened")
        }
    }

    #[test]
    #[should_panic(expected = "a fault-free run stalls only on a broken network")]
    fn a_return_network_that_never_frees_a_circuit_stalls() {
        let workload = Workload::new(0.2, 2.0, 1.0).expect("valid");
        let opts = SimOptions {
            warmup_tasks: 10,
            measured_tasks: 200,
        };
        let _ = simulate_round_trip(
            &mut Wide { p: 2 },
            &mut Refuses,
            &workload,
            1.0,
            &opts,
            &mut SimRng::new(3),
        );
    }

    #[test]
    fn a_stalled_return_leg_reports_its_waiting_results() {
        let workload = Workload::new(0.2, 2.0, 1.0).expect("valid");
        let opts = SimOptions {
            warmup_tasks: 10,
            measured_tasks: 200,
        };
        let err = simulate_exponential(
            &mut Wide { p: 2 },
            &workload,
            None,
            Some((&mut Refuses, Exponential::with_rate(1.0))),
            &opts,
            &FaultPlan::new(),
            &FaultOptions {
                stall_event_budget: 1_000,
            },
            &mut SimRng::new(3),
        )
        .expect_err("no result ever returns");
        let SimError::Stalled {
            queued,
            events_since_progress,
            ..
        } = err;
        assert!(queued >= 210, "every result waits: {queued}");
        assert!(events_since_progress > 1_000);
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
