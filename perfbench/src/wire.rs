//! `wire_grants`: an in-process `NetServer` over a sharded SBUS broker,
//! driven open-loop by one generator thread over two loopback connections.
//!
//! The generator writes pipelined Poisson `Request` frames on schedule
//! whether or not earlier ones were answered, releases every grant the
//! moment it arrives, and times each request from its due time.

use crate::stats::{bisect_capacity, Hist, OpenLoopSample, Tail};
use rsin_broker::net::proto::{encode, Decoder, Frame, RejectReason};
use rsin_broker::net::{NetServer, NetServerConfig, NetServerReport};
use rsin_broker::{Broker, SbusBroker, ShardedBroker};
use rsin_des::SimRng;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The light rate: the reactor is idle most of the time.
pub const LIGHT_RATE: f64 = 2_000.0;
/// The heavy rate, fixed once: about 40% of the capacity measured on a
/// 2-vCPU host (60,000–83,000/s). At 3/4 of capacity the backlog grew
/// without bound whenever the host slowed down.
pub const HEAVY_RATE: f64 = 30_000.0;
/// Capacity is the highest offered rate whose p90 stays within this. The
/// limit is on p90, not p99: on a 2-vCPU virtual machine with ~1% steal
/// time, millisecond preemption stalls sit right at the 99th percentile,
/// so p99 measures the host rather than the server.
pub const LATENCY_LIMIT_US: f64 = 1_000.0;
/// The capacity bisection's bracket: a capacity below the floor reads as
/// the floor.
const BISECT_LO: f64 = 16_000.0;
const BISECT_HI: f64 = 256_000.0;
/// A failing capacity probe is measured again once before it counts:
/// stalls only ever make a rate look worse, never better.
const PROBE_ATTEMPTS: u32 = 2;

/// Loopback connections, one remote worker slot each.
pub const CONNS: usize = 2;
/// Pool size: more slots than connections can hold, so the wire is the
/// limit, not the pool.
const POOL: usize = 8;
const SHARDS: usize = 2;

/// After the last request is due, how long stragglers may take.
const DRAIN: Duration = Duration::from_secs(2);

pub type WireBroker = ShardedBroker<SbusBroker>;

/// The server's broker shape.
pub fn broker() -> WireBroker {
    ShardedBroker::new(CONNS, POOL, SHARDS, SbusBroker::new)
}

struct Conn {
    stream: TcpStream,
    dec: Decoder,
    wbuf: Vec<u8>,
    wstart: usize,
}

/// Why requests went unanswered by a grant.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rejects {
    pub shed: u64,
    pub expired: u64,
    pub busy: u64,
    pub io: u64,
    pub unanswered: u64,
}

impl Rejects {
    pub fn total(&self) -> u64 {
        self.shed + self.expired + self.busy + self.io + self.unanswered
    }

    /// `(reason, count)` pairs, in a fixed order.
    pub fn by_reason(&self) -> [(&'static str, u64); 5] {
        [
            ("shed", self.shed),
            ("expired", self.expired),
            ("busy", self.busy),
            ("io", self.io),
            ("unanswered", self.unanswered),
        ]
    }
}

/// One open-loop window at a fixed rate, summarized when it ends (its
/// histograms are dropped, so the benchmark's own memory stays small).
#[derive(Debug)]
pub struct Window {
    pub rate: f64,
    pub sent: u64,
    /// Due time → grant received, ns: p50, p90 and the tails.
    pub p50_ns: f64,
    pub p90_ns: f64,
    pub tail: Tail,
    pub tail99: Tail,
    /// Due time → written, p99 ns.
    pub lag_p99_ns: f64,
    pub rejects: Rejects,
    /// Requests sent but unanswered when the last one was written.
    pub backlog_at_end: u64,
    /// Offering stopped early because the backlog passed the abort bound.
    pub aborted: bool,
}

impl Window {
    fn new(rate: f64, sent: u64, latency: &Hist, lag: &Hist) -> Window {
        let none = Tail {
            q: 1.0,
            value: f64::INFINITY,
            n: 0,
        };
        let (got, lagged) = (latency.count() > 0, lag.count() > 0);
        let q = |q: f64| {
            if got {
                latency.quantile(q)
            } else {
                f64::INFINITY
            }
        };
        let tail = |cap: f64| if got { latency.tail(cap) } else { none };
        Window {
            rate,
            sent,
            p50_ns: q(0.5),
            p90_ns: q(0.9),
            tail: tail(crate::TAIL_CAP),
            tail99: tail(0.99),
            lag_p99_ns: if lagged {
                lag.tail(0.99).value
            } else {
                f64::INFINITY
            },
            rejects: Rejects::default(),
            backlog_at_end: 0,
            aborted: false,
        }
    }

    /// Backlog bound of "not growing": 1 ms of offered work (at least 16).
    fn backlog_bound(&self) -> f64 {
        (self.rate * 1e-3).max(16.0)
    }
}

/// Median readings over a series of sub-windows at one rate. Medians of
/// per-window readings keep a single stalled window (a preempted vCPU, a
/// noisy neighbour) from deciding the result.
#[derive(Debug, Default)]
pub struct Series {
    pub windows: Vec<Window>,
}

impl Series {
    fn med(&self, f: impl Fn(&Window) -> f64) -> f64 {
        let v: Vec<f64> = self.windows.iter().map(f).collect();
        crate::stats::median(&v)
    }

    /// Median of the windows' p50 latency, µs.
    pub fn p50_us(&self) -> f64 {
        self.med(|w| w.p50_ns) / 1e3
    }

    /// Median of the windows' tail latency, µs — the end-to-end tail
    /// (`cap99 == false`) or the p99 — with the per-window percentile and
    /// the samples of all windows.
    pub fn tail_us(&self, cap99: bool) -> Tail {
        let pick = |w: &Window| if cap99 { w.tail99 } else { w.tail };
        Tail {
            q: pick(&self.windows[0]).q,
            value: self.med(|w| pick(w).value) / 1e3,
            n: self.windows.iter().map(|w| pick(w).n).sum(),
        }
    }

    /// Median of the windows' p99 generator lag, µs.
    pub fn lag_p99_us(&self) -> f64 {
        self.med(|w| w.lag_p99_ns) / 1e3
    }

    pub fn sent(&self) -> u64 {
        self.windows.iter().map(|w| w.sent).sum()
    }

    pub fn rejects(&self) -> Rejects {
        let mut r = Rejects::default();
        for w in &self.windows {
            r.shed += w.rejects.shed;
            r.expired += w.rejects.expired;
            r.busy += w.rejects.busy;
            r.io += w.rejects.io;
            r.unanswered += w.rejects.unanswered;
        }
        r
    }

    /// Median p90 within the limit, nothing refused or aborted, median
    /// backlog bounded by 1 ms of offered work.
    pub fn meets_limit(&self) -> bool {
        self.windows.iter().all(|w| !w.aborted)
            && self.rejects().total() == 0
            && self.med(|w| w.p90_ns) <= LATENCY_LIMIT_US * 1e3
            && self.med(|w| w.backlog_at_end as f64 - w.backlog_bound()) <= 0.0
    }
}

/// What the connections delivered in one pass.
enum Event {
    Granted(u32),
    Rejected(u32, RejectReason),
}

/// A running server plus the generator's connections.
pub struct Wire {
    server: NetServer<WireBroker>,
    conns: Vec<Conn>,
    next_id: u32,
    release_id: u32,
    /// Releases written but not yet acknowledged.
    releases_out: u64,
    broken: bool,
}

impl Wire {
    /// Binds the server on an ephemeral loopback port and connects.
    pub fn start() -> io::Result<Wire> {
        let cfg = NetServerConfig {
            tenants: 1,
            max_pipeline: 1 << 16,
            max_pending: 1 << 20,
            max_write_buf: 1 << 22,
            ..NetServerConfig::default()
        };
        let server = NetServer::bind("127.0.0.1:0".parse().expect("loopback"), broker(), cfg)?;
        let mut conns = Vec::with_capacity(CONNS);
        for _ in 0..CONNS {
            let stream = TcpStream::connect(server.local_addr())?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            conns.push(Conn {
                stream,
                dec: Decoder::new(),
                wbuf: Vec::with_capacity(1 << 16),
                wstart: 0,
            });
        }
        Ok(Wire {
            server,
            conns,
            next_id: 0,
            release_id: 0,
            releases_out: 0,
            broken: false,
        })
    }

    fn request(&mut self, conn: usize, req_id: u32) {
        encode(
            &Frame::Request {
                req_id,
                tenant: 0,
                deadline_us: 0,
            },
            &mut self.conns[conn].wbuf,
        );
    }

    /// One I/O pass over every connection: write what is buffered, read
    /// what arrived, release every grant at once. Returns whether anything
    /// moved; `on` sees each answer with its connection.
    fn pump(&mut self, on: &mut impl FnMut(usize, Event)) -> bool {
        let mut busy = false;
        for (ci, conn) in self.conns.iter_mut().enumerate() {
            self.broken |= flush(conn).is_err();
            match read_some(conn) {
                Ok(got) => busy |= got,
                Err(_) => self.broken = true,
            }
            loop {
                let frame = match conn.dec.next_frame() {
                    Ok(Some(f)) => f,
                    Ok(None) => break,
                    Err(_) => {
                        self.broken = true;
                        break;
                    }
                };
                busy = true;
                match frame {
                    Frame::Grant {
                        req_id,
                        resource,
                        generation,
                    } => {
                        self.release_id = self.release_id.wrapping_add(1);
                        encode(
                            &Frame::Release {
                                req_id: self.release_id,
                                resource,
                                generation,
                            },
                            &mut conn.wbuf,
                        );
                        self.releases_out += 1;
                        on(ci, Event::Granted(req_id));
                    }
                    Frame::Reject { req_id, reason } => on(ci, Event::Rejected(req_id, reason)),
                    Frame::Released { .. } => {
                        self.releases_out = self.releases_out.saturating_sub(1)
                    }
                    Frame::Request { .. } | Frame::Release { .. } => self.broken = true,
                }
            }
            self.broken |= flush(conn).is_err();
        }
        busy
    }

    /// `count` windows of `secs` seconds each at `rate`, window `i` on the
    /// schedule of `seed + i`.
    pub fn series(&mut self, rate: f64, count: u64, secs: f64, seed: u64, probe: bool) -> Series {
        Series {
            windows: (0..count)
                .map(|i| self.window(rate, secs, seed.wrapping_add(i), probe))
                .collect(),
        }
    }

    /// Offers `rate` requests/s for `secs` seconds on a Poisson schedule
    /// drawn from `seed`, then drains. A `probe` window stops offering once
    /// its backlog passes 5 ms of offered work: the rate is past capacity,
    /// and queueing more would only lengthen the drain.
    pub fn window(&mut self, rate: f64, secs: f64, seed: u64, probe: bool) -> Window {
        let n = (rate * secs).ceil().max(1.0) as usize;
        let due = schedule(rate, n, seed);
        let base = self.next_id;
        self.next_id = self.next_id.wrapping_add(n as u32);
        let mut sent_ns = vec![0u64; n];
        let (mut latency, mut lag) = (Hist::default(), Hist::default());
        let mut rejects = Rejects::default();
        let abort_at = if probe {
            (rate * 5e-3).max(64.0) as usize
        } else {
            usize::MAX
        };
        let (mut sent, mut offered, mut answered) = (0usize, n, 0usize);
        let mut backlog_at_end = 0;
        let start = Instant::now() + Duration::from_millis(1);
        let give_up = due[n - 1] + DRAIN.as_nanos() as u64;
        loop {
            let now = ns_after(start);
            let mut busy = false;
            if sent - answered > abort_at && offered == n {
                offered = sent;
                backlog_at_end = (sent - answered) as u64;
            }
            while sent < offered && due[sent] <= now {
                self.request(sent % CONNS, base.wrapping_add(sent as u32));
                sent_ns[sent] = now;
                sent += 1;
                busy = true;
                if sent == n {
                    backlog_at_end = (n - answered) as u64;
                }
            }
            busy |= self.pump(&mut |_, ev| {
                let at = ns_after(start);
                // A straggler from an earlier window was released by the
                // pump like any grant, but is timed by nobody.
                let i = match ev {
                    Event::Granted(id) | Event::Rejected(id, _) => id.wrapping_sub(base) as usize,
                };
                if i >= n {
                    return;
                }
                answered += 1;
                match ev {
                    Event::Granted(_) => {
                        let s = OpenLoopSample {
                            due: start + Duration::from_nanos(due[i]),
                            sent: start + Duration::from_nanos(sent_ns[i]),
                            answered: start + Duration::from_nanos(at),
                        };
                        latency.record(s.latency().as_nanos() as u64);
                        lag.record(s.lag().as_nanos() as u64);
                    }
                    Event::Rejected(_, RejectReason::Shed) => rejects.shed += 1,
                    Event::Rejected(_, RejectReason::Expired) => rejects.expired += 1,
                    Event::Rejected(_, RejectReason::Busy) => rejects.busy += 1,
                    // Refused because the server is stopping: never granted.
                    Event::Rejected(_, RejectReason::Stopping) => rejects.unanswered += 1,
                }
            });
            let done = sent == offered && answered == offered && self.releases_out == 0;
            if done || self.broken || ns_after(start) > give_up {
                break;
            }
            if !busy {
                std::hint::spin_loop();
            }
        }
        let missing = (sent - answered) as u64;
        if self.broken {
            rejects.io += missing;
        } else {
            rejects.unanswered += missing;
        }
        let mut w = Window::new(rate, sent as u64, &latency, &lag);
        w.rejects = rejects;
        w.backlog_at_end = backlog_at_end;
        w.aborted = offered < n;
        w
    }

    /// Saturated grants/s: every connection keeps `depth` requests
    /// outstanding for `secs` seconds (closed loop), then drains.
    pub fn saturated(&mut self, secs: f64, depth: u32) -> f64 {
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(secs);
        let (mut outstanding, mut granted) = (0u64, 0u64);
        for c in 0..CONNS {
            for _ in 0..depth {
                let id = self.next_id;
                self.next_id = self.next_id.wrapping_add(1);
                self.request(c, id);
                outstanding += 1;
            }
        }
        let give_up = end + DRAIN;
        loop {
            let open = Instant::now() < end;
            let mut refill = Vec::new();
            let busy = self.pump(&mut |c, _| {
                outstanding -= 1;
                if open {
                    granted += 1;
                    refill.push(c);
                }
            });
            for c in refill {
                let id = self.next_id;
                self.next_id = self.next_id.wrapping_add(1);
                self.request(c, id);
                outstanding += 1;
            }
            if (!open && outstanding == 0 && self.releases_out == 0)
                || self.broken
                || Instant::now() > give_up
            {
                break;
            }
            if !busy {
                std::hint::spin_loop();
            }
        }
        granted as f64 / secs
    }

    /// Highest rate meeting the limit, by geometric bisection; each probe
    /// is a series of `count` windows of `secs` seconds.
    pub fn capacity(&mut self, steps: u32, count: u64, secs: f64, seed: u64) -> (f64, Vec<Series>) {
        let mut probes = Vec::new();
        let cap = bisect_capacity(BISECT_LO, BISECT_HI, steps, |rate| {
            (0..PROBE_ATTEMPTS).any(|attempt| {
                let seed = seed ^ rate.to_bits() ^ u64::from(attempt);
                let series = self.series(rate, count, secs, seed, true);
                let ok = series.meets_limit();
                probes.push(series);
                ok
            })
        });
        (cap, probes)
    }

    /// Whether a connection failed (I/O or framing) at any point.
    pub fn broken(&self) -> bool {
        self.broken
    }

    /// Closes the connections and stops the server.
    pub fn stop(self) -> NetServerReport {
        drop(self.conns);
        self.server.stop()
    }
}

fn ns_after(start: Instant) -> u64 {
    Instant::now()
        .checked_duration_since(start)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// Poisson due times (ns after the window start) of `n` requests.
pub fn schedule(rate: f64, n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SimRng::new(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += rng.exponential(rate);
            (t * 1e9) as u64
        })
        .collect()
}

fn flush(conn: &mut Conn) -> io::Result<()> {
    while conn.wstart < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wstart..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.wstart += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    conn.wbuf.clear();
    conn.wstart = 0;
    Ok(())
}

/// Reads whatever is available into the decoder; `Ok(true)` if anything
/// arrived.
fn read_some(conn: &mut Conn) -> io::Result<bool> {
    let mut buf = [0u8; 4096];
    let mut got = false;
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                conn.dec.feed(&buf[..n]);
                got = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(got),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// In-process per-frame costs on the generator's own frame stream:
/// `(encode ns, decode ns)` per frame, and whether every frame decoded back
/// to itself.
pub fn codec_costs(n: usize, seed: u64) -> (f64, f64, bool) {
    let frames: Vec<Frame> = schedule(HEAVY_RATE, n, seed)
        .iter()
        .enumerate()
        .map(|(i, _)| Frame::Request {
            req_id: i as u32,
            tenant: 0,
            deadline_us: 0,
        })
        .collect();
    let mut bytes = Vec::with_capacity(n * 16);
    let t0 = Instant::now();
    for f in &frames {
        encode(std::hint::black_box(f), &mut bytes);
    }
    let enc = t0.elapsed().as_nanos() as f64 / n as f64;
    let mut dec = Decoder::new();
    let mut back = Vec::with_capacity(n);
    let t0 = Instant::now();
    dec.feed(&bytes);
    while let Ok(Some(f)) = dec.next_frame() {
        back.push(std::hint::black_box(f));
    }
    let decode = t0.elapsed().as_nanos() as f64 / n as f64;
    (enc, decode, back == frames)
}

/// `try_acquire` + `end_transmission` + `release` on the server's broker
/// shape from one thread: ns per cycle, or `None` if a probe was refused.
pub fn try_acquire_cost(cycles: u32) -> Option<f64> {
    let b = broker();
    let t0 = Instant::now();
    for _ in 0..cycles {
        let g = b.try_acquire(0)?;
        b.end_transmission(0, g);
        b.release(0, g);
    }
    Some(t0.elapsed().as_nanos() as f64 / f64::from(cycles))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_poisson_paced() {
        let a = schedule(10_000.0, 5_000, 3);
        assert_eq!(a, schedule(10_000.0, 5_000, 3));
        assert_ne!(a, schedule(10_000.0, 5_000, 4));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let mean_gap = a[a.len() - 1] as f64 / a.len() as f64;
        assert!((mean_gap - 100_000.0).abs() < 5_000.0, "{mean_gap}");
    }

    #[test]
    fn codec_round_trips_the_frame_stream() {
        let (enc, dec, ok) = codec_costs(1_000, 1);
        assert!(ok && enc > 0.0 && dec > 0.0);
    }

    #[test]
    fn a_light_window_is_served_without_refusals() {
        let mut wire = Wire::start().expect("loopback server");
        let w = wire.window(LIGHT_RATE, 0.1, 5, false);
        assert_eq!(w.sent, 200);
        assert_eq!(w.tail.n, 200, "{:?}", w.rejects);
        assert_eq!(w.rejects.total(), 0);
        assert!(wire.saturated(0.05, 4) > 0.0);
        assert!(!wire.broken());
        let report = wire.stop();
        assert_eq!((report.violations, report.leaked), (0, 0));
    }
}
