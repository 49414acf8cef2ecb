//! End-to-end tests of the networked broker front-end: codec fuzz
//! properties, (tenant, connection) grant attribution across
//! reclaim-after-disconnect races, deadline/admission shedding, and the
//! headline chaos run — saturated load with seeded connection faults plus
//! a mid-run reactor restart, zero leaks, clean ledger.
//!
//! Like the other broker suites these are timing-sensitive under heavy
//! oversubscription; CI runs them serialized (`--test-threads 1`).

use rsin_broker::net::proto::{encode, MAGIC, MAX_PAYLOAD};
use rsin_broker::net::{
    attribution_tag, run_net_load, split_tag, ConnChaos, Decoder, Frame, NetChaosEvent,
    NetChaosFractions, NetChaosPlan, NetClient, NetError, NetLoadConfig, NetLoadReport, NetServer,
    NetServerConfig, ProtocolError, RejectReason,
};
use rsin_broker::{Ledger, SbusBroker, ShardedBroker};
use rsin_des::RetryPolicy;
use rsin_minicheck::check;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().expect("loopback")
}

fn quick_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 10,
        backoff_base: Duration::from_micros(200),
        backoff_cap: Duration::from_millis(10),
        jitter_seed: 0x4E45,
    }
}

fn random_frame(g: &mut rsin_minicheck::Gen) -> Frame {
    match g.u32_in(0, 5) {
        0 => Frame::Request {
            req_id: g.u64() as u32,
            tenant: (g.u64() % 256) as u8,
            deadline_us: g.u64() as u32,
        },
        1 => Frame::Release {
            req_id: g.u64() as u32,
            resource: g.u64() as u32,
            generation: g.u64() as u32,
        },
        2 => Frame::Grant {
            req_id: g.u64() as u32,
            resource: g.u64() as u32,
            generation: g.u64() as u32,
        },
        3 => Frame::Reject {
            req_id: g.u64() as u32,
            reason: match g.u32_in(0, 4) {
                0 => RejectReason::Expired,
                1 => RejectReason::Shed,
                2 => RejectReason::Busy,
                _ => RejectReason::Stopping,
            },
        },
        _ => Frame::Released {
            req_id: g.u64() as u32,
            live: g.bool(),
        },
    }
}

/// Property: any frame sequence round-trips identically through the
/// codec, regardless of how the byte stream is chunked on the way in.
#[test]
fn proto_round_trip_identity_under_arbitrary_chunking() {
    check(200, |g| {
        let frames: Vec<Frame> = (0..g.usize_in(1, 12)).map(|_| random_frame(g)).collect();
        let mut stream = Vec::new();
        for f in &frames {
            encode(f, &mut stream);
        }
        let mut dec = Decoder::new();
        let mut out = Vec::new();
        let mut fed = 0;
        while fed < stream.len() {
            let n = g.usize_in(1, stream.len() - fed + 1);
            dec.feed(&stream[fed..fed + n]);
            fed += n;
            while let Some(f) = dec.next_frame().expect("valid stream") {
                out.push(f);
            }
        }
        assert_eq!(out, frames, "chunking must not change the decoded frames");
        assert_eq!(dec.buffered(), 0, "no residue after a whole stream");
    });
}

/// Property: random bytes never panic the decoder — they produce frames
/// or a typed error, and a poisoned decoder stays poisoned.
#[test]
fn proto_random_bytes_never_panic() {
    check(500, |g| {
        let bytes: Vec<u8> = (0..g.usize_in(0, 96)).map(|_| g.u64() as u8).collect();
        let mut dec = Decoder::new();
        let mut first_err: Option<ProtocolError> = None;
        for chunk in bytes.chunks(g.usize_in(1, 16).max(1)) {
            dec.feed(chunk);
            loop {
                match dec.next_frame() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(e) => {
                        if let Some(prev) = first_err {
                            assert_eq!(prev, e, "poisoned decoder must repeat its error");
                        }
                        first_err = Some(e);
                        break;
                    }
                }
            }
        }
    });
}

/// Property: every strict prefix of a valid stream is "need more bytes",
/// never an error; an oversized length in the header is a typed error
/// before any payload arrives.
#[test]
fn proto_truncation_and_oversize_are_classified() {
    check(200, |g| {
        let mut stream = Vec::new();
        encode(&random_frame(g), &mut stream);
        let cut = g.usize_in(0, stream.len() - 1);
        let mut dec = Decoder::new();
        dec.feed(&stream[..cut]);
        assert_eq!(
            dec.next_frame().expect("prefix of a valid frame"),
            None,
            "truncation is not an error until the stream ends"
        );

        let len = g.u32_in(MAX_PAYLOAD as u32 + 1, u32::from(u16::MAX) + 1) as u16;
        let mut dec = Decoder::new();
        dec.feed(&[MAGIC, 0x01]);
        dec.feed(&len.to_le_bytes());
        assert_eq!(dec.next_frame(), Err(ProtocolError::Oversized { len }));
    });
}

/// Ledger attribution: claims carry a (tenant, connection) tag, vacates
/// clear it, and a reclaim-then-regrant to a new connection re-tags
/// without ever reading as a double grant. This is the unit-level half of
/// the reclaim-after-disconnect regression.
#[test]
fn ledger_attribution_survives_reclaim_regrant() {
    let ledger = Ledger::new(2);
    let tag_a = attribution_tag(1, 7);
    ledger.claim_tagged(0, 3, tag_a);
    assert_eq!(ledger.tag(0), Some(tag_a));
    assert_eq!(split_tag(tag_a), (1, 7));
    assert_eq!(ledger.violations(), 0);

    // Connection 7 dies; the reclaim path vacates through the same hook.
    ledger.vacate(0, 3);
    assert_eq!(ledger.tag(0), None);

    // Regrant to a successor connection (same worker slot, new conn id):
    // attribution must show the successor, and no violation.
    let tag_b = attribution_tag(2, 8);
    ledger.claim_tagged(0, 3, tag_b);
    assert_eq!(ledger.tag(0), Some(tag_b));
    assert_eq!(ledger.violations(), 0);

    // A true double grant is still caught, and keeps the original tag.
    ledger.claim_tagged(0, 4, attribution_tag(0, 9));
    assert_eq!(ledger.violations(), 1);
    assert_eq!(
        ledger.tag(0),
        Some(tag_b),
        "violator must not steal the tag"
    );
}

/// One client, one grant: the minimal happy path over real loopback TCP.
#[test]
fn grants_and_releases_over_loopback() {
    let broker = ShardedBroker::new(4, 4, 2, |w, r| {
        SbusBroker::with_lease(w, r, Duration::from_millis(100))
    });
    let cfg = NetServerConfig {
        tenants: 2,
        ..NetServerConfig::default()
    };
    let server = NetServer::bind(loopback(), broker, cfg).expect("bind");
    let addr = server.local_addr();

    let mut client = NetClient::connect(addr, 0).expect("connect");
    let grant = client
        .acquire(Some(Duration::from_millis(500)))
        .expect("grant");
    assert_eq!(server.ledger().held(), 1);
    let (tenant, _conn) = split_tag(
        server
            .ledger()
            .tag(grant.resource as usize)
            .expect("tagged"),
    );
    assert_eq!(tenant, 0);
    assert!(client.release(grant).expect("release"), "grant was live");
    drop(client);

    let report = server.stop();
    assert_eq!(report.counters.grants, 1);
    assert_eq!(report.counters.releases, 1);
    assert_eq!(report.violations, 0);
    assert_eq!(report.leaked, 0);
    assert_eq!(report.queue_wait.welford.count(), 1);
}

/// A request whose deadline passes while the pool is exhausted comes back
/// as a typed `Expired` rejection — shed before arbitration, not granted
/// late, not leaked.
#[test]
fn deadlines_shed_exhausted_pool_requests() {
    let broker = ShardedBroker::new(4, 1, 1, |w, r| {
        SbusBroker::with_lease(w, r, Duration::from_secs(2))
    });
    let server = NetServer::bind(loopback(), broker, NetServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    let mut holder = NetClient::connect(addr, 0).expect("connect");
    let held = holder
        .acquire(Some(Duration::from_millis(500)))
        .expect("holder wins the only slot");

    let mut late = NetClient::connect(addr, 1).expect("connect");
    match late.acquire(Some(Duration::from_millis(30))) {
        Err(NetError::Rejected(RejectReason::Expired)) => {}
        other => panic!("want Expired rejection, got {other:?}"),
    }

    assert!(holder.release(held).expect("release"));
    let report = server.stop();
    assert_eq!(report.counters.rejected_expired, 1);
    assert_eq!(report.violations, 0);
    assert_eq!(report.leaked, 0);
}

/// Reads the next whole frame from a raw connection.
fn next_frame(stream: &mut TcpStream, dec: &mut Decoder) -> Frame {
    let mut buf = [0u8; 256];
    loop {
        if let Some(f) = dec.next_frame().expect("well-formed reply") {
            return f;
        }
        let n = stream.read(&mut buf).expect("reply before the timeout");
        assert!(n > 0, "server closed the connection");
        dec.feed(&buf[..n]);
    }
}

/// The deadline sweep sheds only what has expired and leaves the rest of a
/// connection's queue in order: of three pipelined requests, only the
/// middle one has a deadline that passes while the pool is exhausted.
#[test]
fn deadline_sweep_sheds_only_the_expired_request_in_order() {
    let broker = ShardedBroker::new(4, 1, 1, |w, r| {
        SbusBroker::with_lease(w, r, Duration::from_secs(2))
    });
    let server = NetServer::bind(loopback(), broker, NetServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    let mut holder = NetClient::connect(addr, 0).expect("connect");
    let held = holder
        .acquire(Some(Duration::from_millis(500)))
        .expect("holder wins the only slot");

    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut out = Vec::new();
    for (req_id, deadline_us) in [(1, 0), (2, 30_000), (3, 0)] {
        let request = Frame::Request {
            req_id,
            tenant: 0,
            deadline_us,
        };
        encode(&request, &mut out);
    }
    raw.write_all(&out).expect("pipeline three requests");
    let mut dec = Decoder::new();

    assert_eq!(
        next_frame(&mut raw, &mut dec),
        Frame::Reject {
            req_id: 2,
            reason: RejectReason::Expired
        }
    );
    assert!(holder.release(held).expect("release"));
    let mut granted = Vec::new();
    for release_id in [4, 5] {
        let Frame::Grant {
            req_id,
            resource,
            generation,
        } = next_frame(&mut raw, &mut dec)
        else {
            panic!("want a grant, got another frame");
        };
        granted.push(req_id);
        out.clear();
        let release = Frame::Release {
            req_id: release_id,
            resource,
            generation,
        };
        encode(&release, &mut out);
        raw.write_all(&out).expect("release");
        assert_eq!(
            next_frame(&mut raw, &mut dec),
            Frame::Released {
                req_id: release_id,
                live: true
            }
        );
    }
    assert_eq!(granted, [1, 3], "survivors are granted in queue order");
    drop(raw);
    drop(holder);

    let report = server.stop();
    assert_eq!(report.counters.rejected_expired, 1);
    assert_eq!(report.counters.grants, 3);
    assert_eq!(report.violations, 0);
    assert_eq!(report.leaked, 0);
}

/// Admission control sheds the lowest tenant class once queue depth
/// breaches the configured bound, while class 0 stays admitted.
#[test]
fn admission_sheds_lowest_class_under_depth_overload() {
    let broker = ShardedBroker::new(6, 1, 1, |w, r| {
        SbusBroker::with_lease(w, r, Duration::from_secs(2))
    });
    let cfg = NetServerConfig {
        tenants: 2,
        max_pending: 1,
        ..NetServerConfig::default()
    };
    let server = NetServer::bind(loopback(), broker, cfg).expect("bind");
    let addr = server.local_addr();

    let mut holder = NetClient::connect(addr, 0).expect("connect");
    let held = holder
        .acquire(Some(Duration::from_millis(500)))
        .expect("holder wins the only slot");

    // Queue one request (admitted at depth 0), putting depth at the bound.
    let mut queued = NetClient::connect(addr, 0).expect("connect");
    let waiter = std::thread::spawn(move || {
        let g = queued.acquire(Some(Duration::from_millis(800)));
        (queued, g)
    });
    std::thread::sleep(Duration::from_millis(30));

    // Now the lowest class must be shed at ingress...
    let mut shed = NetClient::connect(addr, 1).expect("connect");
    match shed.acquire(Some(Duration::from_millis(300))) {
        Err(NetError::Rejected(RejectReason::Shed)) => {}
        other => panic!("want Shed rejection, got {other:?}"),
    }

    // ...and the queued class-0 request still completes once the holder
    // releases.
    assert!(holder.release(held).expect("release"));
    let (mut queued, got) = waiter.join().expect("waiter thread");
    let grant = got.expect("queued class-0 request must be served");
    assert!(queued.release(grant).expect("release"));

    let report = server.stop();
    assert!(report.counters.rejected_shed >= 1);
    assert_eq!(report.counters.grants, 2);
    assert_eq!(report.violations, 0);
    assert_eq!(report.leaked, 0);
}

/// Malformed bytes on the wire are classified, the offending connection
/// is dropped (its grant reclaimed), and other connections keep working.
#[test]
fn malformed_frames_drop_only_the_offender() {
    let broker = ShardedBroker::new(4, 2, 1, |w, r| {
        SbusBroker::with_lease(w, r, Duration::from_millis(80))
    });
    let server = NetServer::bind(loopback(), broker, NetServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    let mut vandal = NetClient::connect(addr, 0).expect("connect");
    let _held = vandal
        .acquire(Some(Duration::from_millis(500)))
        .expect("grant");
    vandal
        .inject_raw(&[0xDE, 0xAD, 0xBE, 0xEF])
        .expect("inject");

    // The server must classify, drop the vandal, and release its grant.
    let deadline = Instant::now() + Duration::from_secs(2);
    while server.ledger().held() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(server.ledger().held(), 0, "vandal's grant reclaimed");

    // A healthy client is untouched.
    let mut healthy = NetClient::connect(addr, 0).expect("connect");
    let g = healthy
        .acquire(Some(Duration::from_millis(500)))
        .expect("healthy client still served");
    assert!(healthy.release(g).expect("release"));

    let report = server.stop();
    assert!(report.counters.protocol_errors >= 1);
    assert_eq!(report.violations, 0);
    assert_eq!(report.leaked, 0);
}

/// The reclaim-after-disconnect double-grant regression, end to end: a
/// connection dies holding the only resource, the reclaim must finish
/// before a successor can be granted, and the ledger must attribute the
/// regrant to the successor connection with zero violations.
#[test]
fn reclaim_after_disconnect_never_double_grants() {
    let broker = ShardedBroker::new(4, 1, 1, |w, r| {
        SbusBroker::with_lease(w, r, Duration::from_millis(50))
    });
    let server = NetServer::bind(loopback(), broker, NetServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    for round in 0..8 {
        let mut doomed = NetClient::connect(addr, 1).expect("connect");
        let _grant = doomed
            .acquire(Some(Duration::from_millis(500)))
            .expect("doomed wins the slot");
        let doomed_tag = server.ledger().tag(0).expect("attributed");
        // Die abruptly mid-grant.
        doomed.shutdown_abrupt();

        // The successor races the reclaim: its request can only be served
        // after the disconnect (or lease) path vacated the slot.
        let mut successor = NetClient::connect(addr, 0).expect("connect");
        let grant = successor
            .acquire_retry(Some(Duration::from_millis(250)), &quick_retry())
            .expect("successor granted after reclaim");
        let successor_tag = server.ledger().tag(0).expect("attributed");
        assert_ne!(
            split_tag(doomed_tag).1,
            split_tag(successor_tag).1,
            "round {round}: regrant must be attributed to the successor connection"
        );
        assert_eq!(
            server.ledger().violations(),
            0,
            "round {round}: reclaim-then-regrant must never read as a double grant"
        );
        assert!(successor.release(grant).is_ok());
    }

    let report = server.stop();
    assert_eq!(report.violations, 0);
    assert_eq!(report.leaked, 0);
    assert!(report.counters.reclaimed_disconnect + report.counters.reclaimed_lease >= 1);
}

/// The headline chaos test: saturated multi-tenant load over loopback
/// with seeded resets, half-open stalls, truncated frames, and byte
/// garbage — plus a reactor restart mid-run. The server must keep serving
/// (grants continue after the restart), reclaim every dead connection's
/// grant within a bounded multiple of the lease, keep the ledger clean,
/// and leak nothing. Surviving clients' stat shards must merge
/// deterministically, bit for bit.
#[test]
fn saturated_chaos_with_reactor_restart_stays_clean() {
    let lease = Duration::from_millis(25);
    let clients = 8usize;
    let broker = ShardedBroker::new(2 * clients, 6, 2, |w, r| {
        SbusBroker::with_lease(w, r, lease)
    });
    let cfg = NetServerConfig {
        tenants: 3,
        lease,
        ..NetServerConfig::default()
    };
    let mut server = NetServer::bind(loopback(), broker, cfg).expect("bind");
    let addr = server.local_addr();

    let window = Duration::from_millis(600);
    let chaos = NetChaosPlan::seeded(
        11,
        clients,
        NetChaosFractions {
            reset: 0.25,
            stall: 0.125,
            trunc: 0.125,
            junk: 0.125,
        },
        (Duration::from_millis(60), Duration::from_millis(220)),
        3 * lease,
    );
    assert!(!chaos.is_empty());
    let load_cfg = NetLoadConfig {
        clients,
        tenants: 3,
        window,
        deadline: Some(Duration::from_millis(60)),
        hold: Duration::from_micros(200),
        seed: 11,
        retry: quick_retry(),
        chaos,
    };

    let (report, restarted_at) = std::thread::scope(|scope| {
        let load = scope.spawn(|| run_net_load(addr, &load_cfg));
        // Restart the reactor mid-chaos: connections drop, grants must be
        // released, the listener survives, clients reconnect and go on.
        std::thread::sleep(Duration::from_millis(300));
        server.restart_reactor();
        let restarted_at = Instant::now();
        (load.join().expect("load"), restarted_at)
    });

    // Bounded reclaim latency: shortly after the run every slot is back.
    let reclaim_deadline = Instant::now() + 20 * lease;
    while server.ledger().held() > 0 && Instant::now() < reclaim_deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        server.ledger().held(),
        0,
        "every dead connection's grant reclaimed within the bound"
    );

    let counters = server.counters();
    assert_eq!(
        counters.reactor_starts, 2,
        "restart spawned a second generation"
    );
    assert!(report.chaos_injected >= 4, "chaos actually executed");
    assert!(
        report.grants > 0 && counters.grants > 0,
        "server kept granting through the chaos"
    );
    // Service continued after the restart: clients reconnected and the
    // second generation accepted them.
    assert!(
        restarted_at.elapsed() >= Duration::from_millis(100),
        "window extends past the restart"
    );
    assert!(
        counters.accepted > load_cfg.clients as u64,
        "reconnects landed on the new reactor generation"
    );

    // Surviving clients: those that made it to the end of the run with
    // recorded grants (every active connection eats one transport error at
    // the restart, so io_errors alone says nothing about survival). Their
    // shards must merge deterministically, bit for bit.
    let survivors: Vec<_> = report
        .shards
        .iter()
        .filter(|s| s.grants > 0)
        .cloned()
        .collect();
    assert!(!survivors.is_empty(), "some clients survived the chaos");
    let m1 = NetLoadReport::merge(survivors.clone(), report.elapsed);
    let m2 = NetLoadReport::merge(survivors.clone(), report.elapsed);
    assert_eq!(m1.latency.count(), m2.latency.count());
    assert_eq!(m1.latency.mean().to_bits(), m2.latency.mean().to_bits());
    assert_eq!(
        m1.latency.sample_variance().to_bits(),
        m2.latency.sample_variance().to_bits()
    );
    assert_eq!(m1.hist.count(), m2.hist.count());
    for i in 0..m1.hist.num_bins() {
        assert_eq!(m1.hist.bin_count(i), m2.hist.bin_count(i), "bin {i}");
    }
    assert_eq!(
        m1.hist.count(),
        m1.latency.count(),
        "hist and moments agree"
    );

    let final_report = server.stop();
    assert_eq!(
        final_report.violations, 0,
        "exclusivity ledger stayed clean"
    );
    assert_eq!(final_report.leaked, 0, "zero leaked slots");
    assert_eq!(
        final_report.available_at_end, 6,
        "every resource grantable again after shutdown"
    );
}

/// Half-open stall specifically: a client that goes silent holding a
/// grant is reclaimed by the lease supervisor, and its late release lands
/// harmlessly stale.
#[test]
fn half_open_stall_is_reclaimed_by_lease() {
    let lease = Duration::from_millis(30);
    let broker = ShardedBroker::new(4, 1, 1, |w, r| SbusBroker::with_lease(w, r, lease));
    let server = NetServer::bind(loopback(), broker, NetServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    let mut sleeper = NetClient::connect(addr, 0).expect("connect");
    let grant = sleeper
        .acquire(Some(Duration::from_millis(500)))
        .expect("grant");

    // Go silent past the lease; the supervisor must evict us.
    std::thread::sleep(4 * lease);
    let mut other = NetClient::connect(addr, 0).expect("connect");
    let regrant = other
        .acquire_retry(Some(Duration::from_millis(300)), &quick_retry())
        .expect("slot reclaimed from the half-open holder");
    assert!(other.release(regrant).expect("release"));

    // The straggler's own release must land stale, not corrupt anything.
    assert!(
        !sleeper.release(grant).expect("stale release acknowledged"),
        "late release after lease reclaim reports not-live"
    );

    let report = server.stop();
    assert!(report.counters.reclaimed_lease >= 1);
    assert!(report.counters.stale_releases >= 1);
    assert_eq!(report.violations, 0);
    assert_eq!(report.leaked, 0);
}

/// Chaos plan event shapes reach the server: a dedicated single-event
/// check per shape, so a regression in one injection path is named, not
/// buried in the big run.
#[test]
fn each_chaos_shape_reclaims_cleanly() {
    for kind in [
        ConnChaos::Reset,
        ConnChaos::Stall(Duration::from_millis(90)),
        ConnChaos::Truncate,
        ConnChaos::Junk,
    ] {
        let lease = Duration::from_millis(30);
        let broker = ShardedBroker::new(4, 2, 1, |w, r| SbusBroker::with_lease(w, r, lease));
        let server = NetServer::bind(loopback(), broker, NetServerConfig::default()).expect("bind");
        let addr = server.local_addr();
        let plan = NetChaosPlan::new().with(NetChaosEvent {
            at: Duration::from_millis(10),
            client: 0,
            kind,
        });
        let cfg = NetLoadConfig {
            clients: 2,
            tenants: 2,
            window: Duration::from_millis(250),
            deadline: Some(Duration::from_millis(60)),
            hold: Duration::from_micros(100),
            seed: 5,
            retry: quick_retry(),
            chaos: plan,
        };
        let report = run_net_load(addr, &cfg);
        assert_eq!(report.chaos_injected, 1, "{kind:?} executed");
        assert!(report.grants > 0, "{kind:?}: grants continued");

        let deadline = Instant::now() + 20 * lease;
        while server.ledger().held() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let final_report = server.stop();
        assert_eq!(final_report.violations, 0, "{kind:?}: ledger clean");
        assert_eq!(final_report.leaked, 0, "{kind:?}: zero leaks");
    }
}
