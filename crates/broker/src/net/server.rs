//! The networked broker server: a nonblocking poll reactor fronting any
//! [`Broker`] with the wire protocol of [`proto`](super::proto).
//!
//! ## Reactor
//!
//! One thread owns every connection and scans them level-triggered —
//! accept, read, arbitrate, flush — with an escalating [`Waiter`] sleep
//! when a full pass makes no progress. There is no epoll: the workspace is
//! dependency-free and `std` exposes none, so readiness is discovered by
//! attempting the nonblocking syscall and absorbing `WouldBlock`. At the
//! target scale (a connection per broker worker slot, i.e. tens of
//! sockets) a scan pass is cheaper than a readiness syscall round-trip
//! would be; the design trades O(connections) polling for zero lost-wakeup
//! states, the same bargain the in-process [`Waiter`] makes.
//!
//! Each accepted connection is pinned to one free [`WorkerId`] slot of the
//! fronted broker, preserving the paper's assumption (f) — one outstanding
//! grant per worker — across the wire: a connection *is* a remote worker.
//! Accepts beyond the slot pool are refused by immediate close.
//!
//! ## Robustness layer
//!
//! - **Deadlines, end-to-end**: requests carry `deadline_us`; every pass
//!   sweeps the pending queues and rejects expired entries *before*
//!   arbitration ever sees them, so a dead-on-arrival request costs no
//!   broker work. Grants are only attempted for live-deadline heads.
//! - **Backpressure**: per-connection write buffers are bounded; a peer
//!   that stops draining its socket past [`NetServerConfig::max_write_buf`]
//!   is disconnected rather than ballooning server memory. A grant whose
//!   delivery write fails (or whose connection died in the same pass) is
//!   released back to the pool immediately — undeliverable grants are
//!   *released, not leaked*.
//! - **Admission control**: when total queue depth breaches
//!   [`NetServerConfig::max_pending`], whole tenant classes are shed
//!   lowest-first (class 0 is never shed). Overload of `k×` the threshold
//!   sheds `k` classes, so pressure maps to a deterministic, explainable
//!   policy rather than a cliff.
//! - **Reclamation**: a connection that dies — EOF, reset, protocol
//!   garbage, slow-drain eviction — has its held grant released on the
//!   spot, with the exclusivity [`Ledger`] audited inside the release
//!   window. A connection that goes *half-open* (alive at TCP level,
//!   silent at protocol level, holding a grant) is the one case the
//!   reactor cannot see; the lease supervisor thread reclaims those by
//!   deadline through [`Broker::reclaim_expired`], exactly as it evicts
//!   crashed in-process holders. Either path runs the same audit hook, so
//!   reclaim-then-regrant can never read as a double grant.
//!
//! The reactor thread itself is restartable ([`NetServer::restart_reactor`]):
//! the old generation drains — releasing every held grant — and a fresh
//! reactor takes over the same listener, so the listen queue carries
//! clients across the gap and their retry layer reconnects them.

use super::proto::{encode, Decoder, Frame, RejectReason};
use crate::loadgen::Ledger;
use crate::{Broker, BrokerGrant, Waiter, WorkerId};
use rsin_des::stats::{Histogram, Welford};
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Packs a grant attribution tag for the [`Ledger`]: tenant class in the
/// top byte, connection id below. Connection ids are monotone per server,
/// so a reclaim-after-disconnect regrant to a successor connection is
/// distinguishable from a double grant to the dead one.
#[must_use]
pub fn attribution_tag(tenant: u8, conn_id: u64) -> u64 {
    (u64::from(tenant) << 56) | (conn_id & 0x00FF_FFFF_FFFF_FFFF)
}

/// Unpacks an [`attribution_tag`] into `(tenant, connection id)`.
#[must_use]
pub fn split_tag(tag: u64) -> (u8, u64) {
    ((tag >> 56) as u8, tag & 0x00FF_FFFF_FFFF_FFFF)
}

/// Tuning of the networked front-end.
#[derive(Clone, Debug)]
pub struct NetServerConfig {
    /// Number of tenant classes (requests carry `0 .. tenants`; higher
    /// bytes are clamped to the lowest class). Class 0 is never shed.
    pub tenants: u8,
    /// Per-connection pipelined request cap; the head beyond it is
    /// rejected `Busy`.
    pub max_pipeline: usize,
    /// Per-connection write-buffer bound in bytes; a peer that lets its
    /// buffer exceed this is disconnected as a slow client.
    pub max_write_buf: usize,
    /// Total queued-request depth at which admission control starts
    /// shedding the lowest tenant class.
    pub max_pending: usize,
    /// Lease duration backing half-open reclamation; the supervisor polls
    /// a few times per lease.
    pub lease: Duration,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            tenants: 3,
            max_pipeline: 16,
            max_write_buf: 64 * 1024,
            max_pending: 1024,
            lease: Duration::from_millis(25),
        }
    }
}

/// Monotonic counters of everything the server did; snapshot via
/// [`NetServer::counters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Connections accepted into a worker slot.
    pub accepted: u64,
    /// Connections refused because every worker slot was taken.
    pub refused_capacity: u64,
    /// Grants delivered.
    pub grants: u64,
    /// Requests shed because their deadline expired pre-arbitration.
    pub rejected_expired: u64,
    /// Requests shed by tenant-class admission control.
    pub rejected_shed: u64,
    /// Requests refused for exceeding the per-connection pipeline.
    pub rejected_busy: u64,
    /// Live releases acknowledged.
    pub releases: u64,
    /// Stale releases acknowledged (grant already reclaimed).
    pub stale_releases: u64,
    /// Connections dropped on read/write errors or EOF.
    pub disconnects: u64,
    /// Connections dropped for exceeding the write-buffer bound.
    pub slow_disconnects: u64,
    /// Connections dropped on a framing [`ProtocolError`](super::proto::ProtocolError).
    pub protocol_errors: u64,
    /// Grants released by the reactor when their connection died.
    pub reclaimed_disconnect: u64,
    /// Grants reclaimed by the lease supervisor (half-open holders).
    pub reclaimed_lease: u64,
    /// Grants released when a reactor generation shut down with live
    /// connections still holding them.
    pub reclaimed_shutdown: u64,
    /// Reactor generations started (1 for an unrestarted server).
    pub reactor_starts: u64,
}

macro_rules! counter_fields {
    ($($f:ident),* $(,)?) => {
        #[derive(Debug, Default)]
        struct AtomicCounters { $($f: AtomicU64,)* }
        impl AtomicCounters {
            fn snapshot(&self) -> NetCounters {
                NetCounters { $($f: self.$f.load(Ordering::Relaxed),)* }
            }
        }
    };
}

counter_fields!(
    accepted,
    refused_capacity,
    grants,
    rejected_expired,
    rejected_shed,
    rejected_busy,
    releases,
    stale_releases,
    disconnects,
    slow_disconnects,
    protocol_errors,
    reclaimed_disconnect,
    reclaimed_lease,
    reclaimed_shutdown,
    reactor_starts,
);

fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

/// Server-side grant queue-wait statistics (request receipt → grant), in
/// µs, merged across reactor generations.
#[derive(Debug)]
pub struct QueueWaitStats {
    /// Lossless moments.
    pub welford: Welford,
    /// Distribution; [`Histogram::quantile`] gives p50/p99/p999.
    pub hist: Histogram,
}

/// Geometry of every latency histogram in the net layer: 16 µs bins up to
/// ~65.5 ms, overflow counted beyond. Fixed so shards always merge.
#[must_use]
pub fn latency_histogram() -> Histogram {
    Histogram::new(4096, 65536.0)
}

struct Shared<B> {
    broker: B,
    ledger: Ledger,
    cfg: NetServerConfig,
    listener: TcpListener,
    stop: AtomicBool,
    /// Bumped to retire the current reactor generation (restart).
    reactor_gen: AtomicU64,
    next_conn_id: AtomicU64,
    counters: AtomicCounters,
    stats: Mutex<QueueWaitStats>,
}

/// What one request is waiting on.
struct Pending {
    req_id: u32,
    tenant: u8,
    arrived: Instant,
    deadline: Option<Instant>,
}

/// One accepted connection, pinned to worker `slot`.
struct Conn {
    id: u64,
    slot: WorkerId,
    stream: TcpStream,
    dec: Decoder,
    wbuf: Vec<u8>,
    wstart: usize,
    pending: VecDeque<Pending>,
    held: Option<(u32, u8, BrokerGrant)>, // (req_id, tenant, grant)
    dead: bool,
}

impl Conn {
    fn push_frame(&mut self, f: &Frame) {
        encode(f, &mut self.wbuf);
    }
}

/// A running networked broker front-end. Owns the reactor and lease
/// supervisor threads; [`NetServer::stop`] tears everything down and
/// renders the final [`NetServerReport`].
pub struct NetServer<B: Broker + Send + Sync + 'static> {
    shared: Arc<Shared<B>>,
    reactor: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl<B: Broker + Send + Sync + 'static> fmt::Debug for NetServer<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .finish()
    }
}

/// Final accounting of a server's lifetime.
#[derive(Debug)]
pub struct NetServerReport {
    /// All counters at shutdown.
    pub counters: NetCounters,
    /// Exclusivity violations the audit ledger observed (must be 0).
    pub violations: u64,
    /// Slots still marked held after the reactor and supervisor drained —
    /// leaks (must be 0).
    pub leaked: usize,
    /// Grants force-reclaimed by the shutdown `reclaim_all` sweep.
    pub forced_reclaims: usize,
    /// Broker slots grantable after shutdown (must equal the pool size).
    pub available_at_end: usize,
    /// Server-side queue-wait statistics, µs.
    pub queue_wait: QueueWaitStats,
}

impl<B: Broker + Send + Sync + 'static> NetServer<B> {
    /// Binds `addr` and starts serving `broker` behind it. The broker's
    /// worker count is the connection capacity.
    pub fn bind(addr: SocketAddr, broker: B, cfg: NetServerConfig) -> io::Result<Self> {
        assert!(cfg.tenants >= 1, "at least one tenant class");
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let ledger = Ledger::new(broker.resources());
        let shared = Arc::new(Shared {
            broker,
            ledger,
            cfg,
            listener,
            stop: AtomicBool::new(false),
            reactor_gen: AtomicU64::new(0),
            next_conn_id: AtomicU64::new(0),
            counters: AtomicCounters::default(),
            stats: Mutex::new(QueueWaitStats {
                welford: Welford::new(),
                hist: latency_histogram(),
            }),
        });
        let reactor = spawn_reactor(&shared, 0);
        let supervisor = {
            let s = Arc::clone(&shared);
            std::thread::spawn(move || supervisor_main(&s))
        };
        Ok(NetServer {
            shared,
            reactor: Some(reactor),
            supervisor: Some(supervisor),
            addr: local,
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The independent exclusivity audit.
    #[must_use]
    pub fn ledger(&self) -> &Ledger {
        &self.shared.ledger
    }

    /// Snapshot of the running counters.
    #[must_use]
    pub fn counters(&self) -> NetCounters {
        self.shared.counters.snapshot()
    }

    /// Retires the current reactor generation and starts a fresh one over
    /// the same listener. Every connection of the old generation is closed
    /// (held grants released first); the listener survives, so clients
    /// reconnecting through their retry layer land on the new reactor.
    pub fn restart_reactor(&mut self) {
        let gen = self.shared.reactor_gen.fetch_add(1, Ordering::AcqRel) + 1;
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        self.reactor = Some(spawn_reactor(&self.shared, gen));
    }

    /// Stops the server, joins its threads, and reports. The report's
    /// `leaked` counts slots still held after every drain path ran; the
    /// final force-reclaim restores the broker regardless, so `leaked == 0`
    /// is the invariant tests assert.
    pub fn stop(mut self) -> NetServerReport {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        let s = &self.shared;
        // One last deadline pass picks up anything that expired between the
        // supervisor's final poll and its exit.
        let ledger = &s.ledger;
        s.broker.reclaim_expired(&mut |r, w| ledger.vacate(r, w));
        let leaked = ledger.held();
        let forced = s.broker.reclaim_all(&mut |r, w| ledger.vacate(r, w));
        let stats = std::mem::replace(
            &mut *s.stats.lock().expect("stats lock"),
            QueueWaitStats {
                welford: Welford::new(),
                hist: latency_histogram(),
            },
        );
        NetServerReport {
            counters: s.counters.snapshot(),
            violations: ledger.violations(),
            leaked,
            forced_reclaims: forced,
            available_at_end: s.broker.available_resources(),
            queue_wait: stats,
        }
    }
}

impl<B: Broker + Send + Sync + 'static> Drop for NetServer<B> {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }
}

fn spawn_reactor<B: Broker + Send + Sync + 'static>(
    shared: &Arc<Shared<B>>,
    gen: u64,
) -> JoinHandle<()> {
    bump(&shared.counters.reactor_starts);
    let s = Arc::clone(shared);
    std::thread::spawn(move || reactor_main(&s, gen))
}

fn supervisor_main<B: Broker + Send + Sync + 'static>(s: &Shared<B>) {
    let poll = (s.cfg.lease / 4).clamp(Duration::from_micros(50), Duration::from_millis(2));
    while !s.stop.load(Ordering::Acquire) {
        let ledger = &s.ledger;
        let n = s.broker.reclaim_expired(&mut |r, w| ledger.vacate(r, w));
        s.counters
            .reclaimed_lease
            .fetch_add(n as u64, Ordering::Relaxed);
        std::thread::sleep(poll);
    }
}

/// The reactor: owns all connections of one generation. Runs until the
/// server stops or the generation is retired by a restart.
fn reactor_main<B: Broker + Send + Sync + 'static>(s: &Shared<B>, my_gen: u64) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut free_slots: Vec<WorkerId> = (0..s.broker.workers()).rev().collect();
    let mut waiter = Waiter::new();
    let mut rr_origin = 0usize; // rotating arbitration origin, for fairness
    let mut scratch = [0u8; 4096];
    let mut wf = Welford::new();
    let mut hist = latency_histogram();

    while !s.stop.load(Ordering::Acquire) && s.reactor_gen.load(Ordering::Acquire) == my_gen {
        let mut progress = false;

        // Accept up to the worker-slot pool.
        loop {
            match s.listener.accept() {
                Ok((stream, _)) => {
                    progress = true;
                    if let Some(slot) = free_slots.pop() {
                        let _ = stream.set_nonblocking(true);
                        let _ = stream.set_nodelay(true);
                        bump(&s.counters.accepted);
                        conns.push(Conn {
                            id: s.next_conn_id.fetch_add(1, Ordering::Relaxed),
                            slot,
                            stream,
                            dec: Decoder::new(),
                            wbuf: Vec::new(),
                            wstart: 0,
                            pending: VecDeque::new(),
                            held: None,
                            dead: false,
                        });
                    } else {
                        bump(&s.counters.refused_capacity);
                        drop(stream);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }

        // Admission cutoff for this pass: tenant classes >= cutoff are shed.
        let depth: usize = conns.iter().map(|c| c.pending.len()).sum();
        let over = depth as f64 / s.cfg.max_pending.max(1) as f64;
        let shed = if over >= 1.0 {
            (over as usize).min(usize::from(s.cfg.tenants) - 1)
        } else {
            0
        };
        let cutoff = u8::try_from(usize::from(s.cfg.tenants) - shed).unwrap_or(u8::MAX);

        // Read and process frames.
        for conn in &mut conns {
            loop {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        conn.dead = true;
                        bump(&s.counters.disconnects);
                        break;
                    }
                    Ok(n) => {
                        progress = true;
                        conn.dec.feed(&scratch[..n]);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.dead = true;
                        bump(&s.counters.disconnects);
                        break;
                    }
                }
            }
            if conn.dead {
                continue;
            }
            loop {
                match conn.dec.next_frame() {
                    Ok(Some(frame)) => {
                        progress = true;
                        handle_frame(s, conn, &frame, cutoff);
                    }
                    Ok(None) => break,
                    Err(_e) => {
                        // Framing is unrecoverable; a connection speaking
                        // garbage is dropped, its grant reclaimed below.
                        bump(&s.counters.protocol_errors);
                        conn.dead = true;
                        break;
                    }
                }
            }
        }

        // Deadline sweep: shed every expired pending request before
        // arbitration sees the queue.
        let now = Instant::now();
        for conn in &mut conns {
            if conn.dead {
                continue;
            }
            // Shed in place: the queue is moved out only so the rejects can
            // be written to the connection while it is filtered, and keeps
            // its buffer (no per-pass allocation) and its order.
            let mut pending = std::mem::take(&mut conn.pending);
            pending.retain(|p| {
                let expired = p.deadline.is_some_and(|d| d <= now);
                if expired {
                    bump(&s.counters.rejected_expired);
                    conn.push_frame(&Frame::Reject {
                        req_id: p.req_id,
                        reason: RejectReason::Expired,
                    });
                    progress = true;
                }
                !expired
            });
            conn.pending = pending;
        }

        // Arbitration: one bounded try_acquire per idle connection with a
        // queued request, starting from a rotating origin so no connection
        // systematically wins ties.
        let n = conns.len();
        for i in 0..n {
            let conn = &mut conns[(rr_origin + i) % n.max(1)];
            if conn.dead || conn.held.is_some() || conn.pending.is_empty() {
                continue;
            }
            if let Some(grant) = s.broker.try_acquire(conn.slot) {
                let p = conn.pending.pop_front().expect("nonempty");
                s.ledger.claim_tagged(
                    grant.resource,
                    conn.slot,
                    attribution_tag(p.tenant, conn.id),
                );
                // The network holds no circuit: the transmission phase is
                // the client's own hold, so end it immediately.
                s.broker.end_transmission(conn.slot, grant);
                let waited = p.arrived.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                wf.push(waited as f64);
                hist.record(waited as f64);
                bump(&s.counters.grants);
                conn.held = Some((p.req_id, p.tenant, grant));
                conn.push_frame(&Frame::Grant {
                    req_id: p.req_id,
                    resource: grant.resource as u32,
                    generation: grant.generation,
                });
                progress = true;
            }
        }
        rr_origin = rr_origin.wrapping_add(1);

        // Flush write buffers; enforce the backpressure bound.
        for conn in &mut conns {
            if conn.dead {
                continue;
            }
            while conn.wstart < conn.wbuf.len() {
                match conn.stream.write(&conn.wbuf[conn.wstart..]) {
                    Ok(0) => {
                        conn.dead = true;
                        bump(&s.counters.disconnects);
                        break;
                    }
                    Ok(n) => {
                        progress = true;
                        conn.wstart += n;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.dead = true;
                        bump(&s.counters.disconnects);
                        break;
                    }
                }
            }
            if conn.wstart == conn.wbuf.len() {
                conn.wbuf.clear();
                conn.wstart = 0;
            } else if conn.wbuf.len() - conn.wstart > s.cfg.max_write_buf {
                // Slow client: the socket is not draining and the backlog
                // passed the bound. Cut it loose; the cull below releases
                // any grant it holds.
                conn.dead = true;
                bump(&s.counters.slow_disconnects);
            }
        }

        // Cull dead connections: release held grants (audited), recycle
        // the worker slot.
        let mut i = 0;
        while i < conns.len() {
            if conns[i].dead {
                let conn = conns.swap_remove(i);
                release_held(s, &conn, &s.counters.reclaimed_disconnect);
                free_slots.push(conn.slot);
                progress = true;
            } else {
                i += 1;
            }
        }

        if progress {
            waiter.reset();
        } else {
            waiter.wait();
        }
    }

    // Generation drain: every connection closes, every held grant is
    // released. The listener stays open for the next generation.
    for conn in &conns {
        release_held(s, conn, &s.counters.reclaimed_shutdown);
    }
    let mut stats = s.stats.lock().expect("stats lock");
    stats.welford.merge(&wf);
    stats.hist.merge(&hist);
}

/// Releases a connection's held grant, if any, auditing the ledger inside
/// the release window. A `Stale` outcome means the lease supervisor beat
/// us to it — the audit hook already ran there, so nothing more to do.
fn release_held<B: Broker + Send + Sync + 'static>(
    s: &Shared<B>,
    conn: &Conn,
    counter: &AtomicU64,
) {
    if let Some((_, _, grant)) = conn.held {
        let ledger = &s.ledger;
        if s.broker
            .release_audited(conn.slot, grant, &mut |r, w| ledger.vacate(r, w))
            == crate::ReleaseOutcome::Released
        {
            bump(counter);
        }
    }
}

fn handle_frame<B: Broker + Send + Sync + 'static>(
    s: &Shared<B>,
    conn: &mut Conn,
    frame: &Frame,
    admit_cutoff: u8,
) {
    match *frame {
        Frame::Request {
            req_id,
            tenant,
            deadline_us,
        } => {
            let tenant = tenant.min(s.cfg.tenants - 1);
            if tenant >= admit_cutoff {
                bump(&s.counters.rejected_shed);
                conn.push_frame(&Frame::Reject {
                    req_id,
                    reason: RejectReason::Shed,
                });
                return;
            }
            if conn.pending.len() >= s.cfg.max_pipeline {
                bump(&s.counters.rejected_busy);
                conn.push_frame(&Frame::Reject {
                    req_id,
                    reason: RejectReason::Busy,
                });
                return;
            }
            let arrived = Instant::now();
            conn.pending.push_back(Pending {
                req_id,
                tenant,
                arrived,
                deadline: (deadline_us > 0)
                    .then(|| arrived + Duration::from_micros(u64::from(deadline_us))),
            });
        }
        Frame::Release {
            req_id,
            resource,
            generation,
        } => {
            let live = match conn.held {
                Some((_, _, g))
                    if g.resource == resource as usize && g.generation == generation =>
                {
                    conn.held = None;
                    let ledger = &s.ledger;
                    let outcome = s
                        .broker
                        .release_audited(conn.slot, g, &mut |r, w| ledger.vacate(r, w));
                    outcome == crate::ReleaseOutcome::Released
                }
                // No matching held grant: either a duplicate release or a
                // grant the supervisor already reclaimed and regranted
                // elsewhere. Never forward to the broker (a live foreign
                // release would panic by contract); acknowledge stale.
                _ => false,
            };
            if live {
                bump(&s.counters.releases);
            } else {
                bump(&s.counters.stale_releases);
            }
            conn.push_frame(&Frame::Released { req_id, live });
        }
        // Server-to-client kinds arriving at the server are protocol
        // misuse; treat like any unframeable stream.
        Frame::Grant { .. } | Frame::Reject { .. } | Frame::Released { .. } => {
            bump(&s.counters.protocol_errors);
            conn.dead = true;
        }
    }
}
