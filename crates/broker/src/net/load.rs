//! Multi-connection load harness for the networked broker.
//!
//! Each client thread is a closed-loop session generator: connect (with
//! retry), then run sessions — request with a deadline, hold, release —
//! back to back until the measurement window closes, executing any
//! [`NetChaosPlan`] events scheduled for it along the way and
//! *reconnecting through the retry policy* after every injected or
//! genuine failure. Closed-loop saturation is how the grants/sec ceiling
//! is measured.
//!
//! Every client records its own latency shard ([`ClientShard`]); the
//! report merges them in client order, losslessly, the same discipline as
//! the in-process load generator — and the chaos tests assert that merge
//! is byte-deterministic for the survivors.

use super::chaos::{ConnChaos, NetChaosEvent, NetChaosPlan};
use super::client::{NetClient, NetError};
use super::proto::MAGIC;
use super::server::latency_histogram;
use rsin_des::stats::{Histogram, Welford};
use rsin_des::{RetryPolicy, SimRng};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Shape of one load run.
#[derive(Clone, Debug)]
pub struct NetLoadConfig {
    /// Concurrent client connections.
    pub clients: usize,
    /// Tenant classes; client `i` requests as class `i % tenants`.
    pub tenants: u8,
    /// Wall-clock measurement window.
    pub window: Duration,
    /// Per-request deadline carried on the wire (`None` = none).
    pub deadline: Option<Duration>,
    /// How long a granted resource is held before release.
    pub hold: Duration,
    /// Seed of the per-client junk-byte streams.
    pub seed: u64,
    /// Backoff discipline for reconnects and shed-retries.
    pub retry: RetryPolicy,
    /// Connection misbehavior to inject.
    pub chaos: NetChaosPlan,
}

impl Default for NetLoadConfig {
    fn default() -> Self {
        NetLoadConfig {
            clients: 4,
            tenants: 3,
            window: Duration::from_millis(250),
            deadline: Some(Duration::from_millis(100)),
            hold: Duration::ZERO,
            seed: 1,
            retry: RetryPolicy {
                max_retries: 8,
                backoff_base: Duration::from_micros(200),
                backoff_cap: Duration::from_millis(20),
                jitter_seed: 0x4E45,
            },
            chaos: NetChaosPlan::new(),
        }
    }
}

/// One client's share of the run: counters plus its latency shard.
#[derive(Clone, Debug)]
pub struct ClientShard {
    /// Client index, `0 .. clients`.
    pub client: usize,
    /// Tenant class it requested as.
    pub tenant: u8,
    /// Grants won.
    pub grants: u64,
    /// Typed `Shed` rejections received.
    pub rejected_shed: u64,
    /// Typed `Expired` rejections received.
    pub rejected_expired: u64,
    /// Typed `Busy` rejections received.
    pub rejected_busy: u64,
    /// Successful reconnects after a failure or injected fault.
    pub reconnects: u64,
    /// Transport/protocol failures observed (each is followed by a
    /// reconnect attempt).
    pub io_errors: u64,
    /// Chaos events this client executed.
    pub chaos_injected: u64,
    /// Releases that landed stale (lease already reclaimed server-side).
    pub stale_releases: u64,
    /// End-to-end request→grant latency, µs (lossless moments).
    pub latency: Welford,
    /// End-to-end request→grant latency distribution, µs.
    pub hist: Histogram,
}

impl ClientShard {
    fn new(client: usize, tenant: u8) -> Self {
        ClientShard {
            client,
            tenant,
            grants: 0,
            rejected_shed: 0,
            rejected_expired: 0,
            rejected_busy: 0,
            reconnects: 0,
            io_errors: 0,
            chaos_injected: 0,
            stale_releases: 0,
            latency: Welford::new(),
            hist: latency_histogram(),
        }
    }
}

/// The merged outcome of a load run.
#[derive(Debug)]
pub struct NetLoadReport {
    /// Per-client shards, in client order.
    pub shards: Vec<ClientShard>,
    /// Total grants across clients.
    pub grants: u64,
    /// Total shed rejections.
    pub rejected_shed: u64,
    /// Total expired rejections.
    pub rejected_expired: u64,
    /// Total busy rejections.
    pub rejected_busy: u64,
    /// Total reconnects.
    pub reconnects: u64,
    /// Total transport/protocol failures.
    pub io_errors: u64,
    /// Total chaos events executed.
    pub chaos_injected: u64,
    /// Total stale releases.
    pub stale_releases: u64,
    /// Merged end-to-end latency moments, µs.
    pub latency: Welford,
    /// Merged end-to-end latency distribution, µs.
    pub hist: Histogram,
    /// Wall time of the run.
    pub elapsed: Duration,
    /// Grants per wall second.
    pub grants_per_sec: f64,
}

impl NetLoadReport {
    /// Merges shards (in the given order — merge order is part of the
    /// determinism contract the chaos tests pin down).
    #[must_use]
    pub fn merge(shards: Vec<ClientShard>, elapsed: Duration) -> Self {
        let mut latency = Welford::new();
        let mut hist = latency_histogram();
        let mut r = NetLoadReport {
            grants: 0,
            rejected_shed: 0,
            rejected_expired: 0,
            rejected_busy: 0,
            reconnects: 0,
            io_errors: 0,
            chaos_injected: 0,
            stale_releases: 0,
            latency: Welford::new(),
            hist: latency_histogram(),
            elapsed,
            grants_per_sec: 0.0,
            shards: Vec::new(),
        };
        for s in &shards {
            r.grants += s.grants;
            r.rejected_shed += s.rejected_shed;
            r.rejected_expired += s.rejected_expired;
            r.rejected_busy += s.rejected_busy;
            r.reconnects += s.reconnects;
            r.io_errors += s.io_errors;
            r.chaos_injected += s.chaos_injected;
            r.stale_releases += s.stale_releases;
            latency.merge(&s.latency);
            hist.merge(&s.hist);
        }
        r.latency = latency;
        r.hist = hist;
        r.grants_per_sec = r.grants as f64 / elapsed.as_secs_f64().max(1e-9);
        r.shards = shards;
        r
    }

    /// Latency quantile in µs; saturates to the histogram's upper edge
    /// when the mass falls in overflow.
    #[must_use]
    pub fn latency_quantile_us(&self, q: f64) -> f64 {
        self.hist
            .quantile(q)
            .unwrap_or_else(|| self.hist.bin_edge(self.hist.num_bins()))
    }
}

/// Drives `cfg.clients` concurrent connections against the server at
/// `addr` and merges the shards. Panics in client threads propagate.
#[must_use]
pub fn run_net_load(addr: SocketAddr, cfg: &NetLoadConfig) -> NetLoadReport {
    assert!(cfg.clients >= 1, "at least one client");
    assert!(cfg.tenants >= 1, "at least one tenant class");
    let started = Instant::now();
    let shards: Vec<ClientShard> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|client| scope.spawn(move || client_main(addr, cfg, client)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    NetLoadReport::merge(shards, started.elapsed())
}

/// Executes one chaos event against the currently held grant/connection.
/// Returns the client back if the connection survived the event.
fn execute_chaos(
    client: NetClient,
    event: &NetChaosEvent,
    grant: super::client::NetGrant,
    shard: &mut ClientShard,
    junk: &[u8],
) -> Option<NetClient> {
    shard.chaos_injected += 1;
    match event.kind {
        ConnChaos::Reset => {
            client.shutdown_abrupt();
            None
        }
        ConnChaos::Stall(d) => {
            // Half-open: hold the grant silently past its lease, then try
            // the release anyway — it must land harmlessly stale.
            std::thread::sleep(d);
            let mut client = client;
            match client.release(grant) {
                Ok(live) => {
                    if !live {
                        shard.stale_releases += 1;
                    }
                    Some(client)
                }
                Err(_) => {
                    shard.io_errors += 1;
                    None
                }
            }
        }
        ConnChaos::Truncate => {
            // First bytes of a legitimate Release frame, then silence and
            // an abrupt close: death mid-write.
            let mut client = client;
            let _ = client.inject_raw(&[MAGIC, 0x02, 12]);
            client.shutdown_abrupt();
            None
        }
        ConnChaos::Junk => {
            let mut client = client;
            let _ = client.inject_raw(junk);
            // The server classifies the garbage and drops us; the next
            // operation on this client fails and triggers a reconnect.
            Some(client)
        }
    }
}

fn client_main(addr: SocketAddr, cfg: &NetLoadConfig, client_idx: usize) -> ClientShard {
    let tenant = u8::try_from(client_idx % usize::from(cfg.tenants)).unwrap_or(0);
    let mut shard = ClientShard::new(client_idx, tenant);
    let mut rng = SimRng::new(cfg.seed).derive(0x4C4F41 + client_idx as u64);
    // Seeded garbage for Junk events: starts with a non-MAGIC byte so the
    // server fails fast and deterministically on kind, not on chance.
    let junk: Vec<u8> = (0..24)
        .map(|i| {
            if i == 0 {
                0x00
            } else {
                (rng.uniform() * 256.0) as u8
            }
        })
        .collect();
    let events = cfg.chaos.for_client(client_idx);
    let mut next_event = 0usize;
    let t0 = Instant::now();

    let mut conn = match NetClient::connect_retry(addr, tenant, &cfg.retry) {
        Ok(c) => Some(c),
        Err(_) => {
            shard.io_errors += 1;
            None
        }
    };

    while t0.elapsed() < cfg.window {
        let Some(mut client) = conn.take() else {
            // Lost the connection: reconnect through the retry policy.
            match NetClient::connect_retry(addr, tenant, &cfg.retry) {
                Ok(c) => {
                    shard.reconnects += 1;
                    conn = Some(c);
                    continue;
                }
                Err(_) => {
                    shard.io_errors += 1;
                    break;
                }
            }
        };

        let sent = Instant::now();
        match client.acquire_retry(cfg.deadline, &cfg.retry) {
            Ok(grant) => {
                let us = sent.elapsed().as_micros().min(u128::from(u64::MAX)) as f64;
                shard.grants += 1;
                shard.latency.push(us);
                shard.hist.record(us);
                // A due chaos event fires mid-grant — that is the hard
                // case for the server's reclamation paths.
                let due = next_event < events.len() && t0.elapsed() >= events[next_event].at;
                if due {
                    let ev = events[next_event];
                    next_event += 1;
                    conn = execute_chaos(client, &ev, grant, &mut shard, &junk);
                    continue;
                }
                if !cfg.hold.is_zero() {
                    std::thread::sleep(cfg.hold);
                }
                match client.release(grant) {
                    Ok(live) => {
                        if !live {
                            shard.stale_releases += 1;
                        }
                        conn = Some(client);
                    }
                    Err(_) => {
                        shard.io_errors += 1;
                    }
                }
            }
            Err(NetError::Rejected(reason)) => {
                use super::proto::RejectReason;
                match reason {
                    RejectReason::Expired => shard.rejected_expired += 1,
                    RejectReason::Shed => shard.rejected_shed += 1,
                    RejectReason::Busy => shard.rejected_busy += 1,
                    RejectReason::Stopping => {}
                }
                conn = Some(client);
            }
            Err(_) => {
                shard.io_errors += 1;
                // Drop the broken connection; next pass reconnects.
            }
        }
    }
    shard
}
