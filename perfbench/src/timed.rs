//! Timing decorators for the DES layers, and the DES probe built on them.
//!
//! [`TimedNet`] wraps any [`ResourceNetwork`] and [`TimedDraw`] any
//! [`Draw`]; each times every call it forwards. They change nothing the
//! simulator sees, so a traced `simulate` returns the same `SimReport` bit
//! for bit as an untraced one — the probe checks that on every run.

use rsin_core::{
    simulate, simulate_general, Grant, NetworkCounters, PendingSet, ResourceNetwork, SimOptions,
    SimReport, StageDistributions, SystemConfig, Workload,
};
use rsin_des::{Draw, Exponential, SimRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Per-call time and counts of the network layer (resolver and release).
#[derive(Clone, Copy, Debug, Default)]
pub struct NetTimes {
    pub cycles: u64,
    pub pending_submitted: u64,
    pub grants: u64,
    pub resolver_ns: u64,
    pub releases: u64,
    pub release_ns: u64,
}

/// A [`ResourceNetwork`] that times each call into `inner`.
#[derive(Debug)]
pub struct TimedNet<'a> {
    inner: &'a mut dyn ResourceNetwork,
    pub times: NetTimes,
}

impl<'a> TimedNet<'a> {
    pub fn new(inner: &'a mut dyn ResourceNetwork) -> Self {
        TimedNet {
            inner,
            times: NetTimes::default(),
        }
    }

    fn cycle_done(&mut self, t0: Instant, pending: &[bool], granted: usize) {
        self.times.resolver_ns += ns_since(t0);
        self.times.cycles += 1;
        self.times.pending_submitted += pending.iter().filter(|&&b| b).count() as u64;
        self.times.grants += granted as u64;
    }
}

impl ResourceNetwork for TimedNet<'_> {
    fn processors(&self) -> usize {
        self.inner.processors()
    }

    fn total_resources(&self) -> usize {
        self.inner.total_resources()
    }

    fn request_cycle(&mut self, pending: &[bool], rng: &mut SimRng) -> Vec<Grant> {
        let t0 = Instant::now();
        let out = self.inner.request_cycle(pending, rng);
        self.cycle_done(t0, pending, out.len());
        out
    }

    fn request_cycle_into(&mut self, pending: &[bool], rng: &mut SimRng, out: &mut Vec<Grant>) {
        let t0 = Instant::now();
        self.inner.request_cycle_into(pending, rng, out);
        self.cycle_done(t0, pending, out.len());
    }

    fn request_cycle_pending(
        &mut self,
        pending: PendingSet<'_>,
        rng: &mut SimRng,
        out: &mut Vec<Grant>,
    ) {
        let t0 = Instant::now();
        self.inner.request_cycle_pending(pending, rng, out);
        self.cycle_done(t0, pending.bools, out.len());
    }

    fn end_transmission(&mut self, grant: Grant) {
        let t0 = Instant::now();
        self.inner.end_transmission(grant);
        self.times.release_ns += ns_since(t0);
    }

    fn end_service(&mut self, grant: Grant) {
        let t0 = Instant::now();
        self.inner.end_service(grant);
        self.times.release_ns += ns_since(t0);
        self.times.releases += 1;
    }

    fn take_counters(&mut self) -> NetworkCounters {
        self.inner.take_counters()
    }

    fn fail_resource(&mut self, port: usize) -> bool {
        self.inner.fail_resource(port)
    }

    fn repair_resource(&mut self, port: usize) -> bool {
        self.inner.repair_resource(port)
    }

    fn fail_element(&mut self, element: usize) -> bool {
        self.inner.fail_element(element)
    }

    fn repair_element(&mut self, element: usize) -> bool {
        self.inner.repair_element(element)
    }

    fn fault_elements(&self) -> usize {
        self.inner.fault_elements()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}

/// A [`Draw`] that times each sample drawn from `inner`. `Draw` takes
/// `&self` and must be `Sync`, so the tallies are relaxed atomics (they
/// publish nothing else).
#[derive(Debug)]
pub struct TimedDraw<D> {
    inner: D,
    draws: AtomicU64,
    ns: AtomicU64,
}

impl<D: Draw> TimedDraw<D> {
    pub fn new(inner: D) -> Self {
        TimedDraw {
            inner,
            draws: AtomicU64::new(0),
            ns: AtomicU64::new(0),
        }
    }

    /// `(draws, nanoseconds)` so far.
    pub fn tally(&self) -> (u64, u64) {
        (
            self.draws.load(Ordering::Relaxed),
            self.ns.load(Ordering::Relaxed),
        )
    }
}

impl<D: Draw> Draw for TimedDraw<D> {
    fn draw(&self, rng: &mut SimRng) -> f64 {
        let t0 = Instant::now();
        let v = self.inner.draw(rng);
        self.ns.fetch_add(ns_since(t0), Ordering::Relaxed);
        self.draws.fetch_add(1, Ordering::Relaxed);
        v
    }

    fn mean(&self) -> f64 {
        self.inner.mean()
    }
}

/// One traced simulation: the report plus where its time went.
#[derive(Debug)]
pub struct Traced {
    pub report: SimReport,
    pub wall_ns: u64,
    pub net: NetTimes,
    pub draws: u64,
    pub draw_ns: u64,
}

/// `simulate` through the timing decorators.
pub fn simulate_traced(
    net: &mut dyn ResourceNetwork,
    workload: &Workload,
    opts: &SimOptions,
    rng: &mut SimRng,
) -> Traced {
    let interarrival = TimedDraw::new(Exponential::with_rate(workload.lambda()));
    let transmission = TimedDraw::new(Exponential::with_rate(workload.mu_n()));
    let service = TimedDraw::new(Exponential::with_rate(workload.mu_s()));
    let stages = StageDistributions {
        interarrival: &interarrival,
        transmission: &transmission,
        service: &service,
    };
    let mut timed = TimedNet::new(net);
    let t0 = Instant::now();
    let report = simulate_general(&mut timed, &stages, opts, rng);
    let wall_ns = ns_since(t0);
    let (mut draws, mut draw_ns) = (0, 0);
    for d in [&interarrival, &transmission, &service] {
        let (n, ns) = d.tally();
        draws += n;
        draw_ns += ns;
    }
    Traced {
        report,
        wall_ns,
        net: timed.times,
        draws,
        draw_ns,
    }
}

/// The three network classes the probe simulates, one figure configuration
/// each (Figs. 4, 7 and 12 at `µ_s/µ_n = 0.1`).
pub const CLASSES: [(&str, &str); 3] = [
    ("sbus", "16/16x1x1 SBUS/2"),
    ("xbar", "16/1x16x16 XBAR/2"),
    ("omega", "16/1x16x16 OMEGA/2"),
];

/// The suite's figure ratio for the probe.
const RATIO: f64 = 0.1;

/// Builds the network of a probe class exactly as the figures do.
pub fn build(cfg: &SystemConfig) -> Box<dyn ResourceNetwork> {
    use rsin_core::NetworkKind;
    match cfg.kind() {
        NetworkKind::SharedBus => Box::new(
            rsin_sbus::SharedBusNetwork::from_config(cfg, rsin_sbus::Arbitration::FixedPriority)
                .expect("sbus config"),
        ),
        NetworkKind::Crossbar => Box::new(
            rsin_xbar::CrossbarNetwork::from_config(cfg, rsin_xbar::CrossbarPolicy::FixedPriority)
                .expect("crossbar config"),
        ),
        _ => Box::new(
            rsin_omega::OmegaNetwork::from_config(cfg, rsin_omega::Admission::Simultaneous)
                .expect("omega config"),
        ),
    }
}

/// The ρ points of the figures' grid at which `cfg` is clearly stable (the
/// figures' own guard: offered load below 95% of both the resource pool
/// and the Erlang-B-thinned bus capacity).
pub fn stable_rhos(cfg: &SystemConfig) -> Vec<f64> {
    rsin_bench::figures::rho_grid()
        .into_iter()
        .take_while(|&rho| {
            let w = rsin_bench::figures::workload_at(rho, RATIO);
            let arrival = cfg.processors() as f64 * w.lambda();
            let pool = cfg.total_resources() as f64 * w.mu_s();
            let a = w.mu_n() / w.mu_s();
            let mut b = 1.0;
            for k in 1..=cfg.resources_per_port() {
                b = a * b / (k as f64 + a * b);
            }
            let bus = cfg.total_ports() as f64 * w.mu_n() * (1.0 - b);
            arrival < 0.95 * pool.min(bus)
        })
        .collect()
}

/// Aggregated outcome of the DES probe for one class.
#[derive(Debug, Default)]
pub struct DesProbe {
    pub tasks: u64,
    pub untraced_ns: u64,
    pub traced_ns: u64,
    pub net: NetTimes,
    pub draws: u64,
    pub draw_ns: u64,
    /// Points whose traced report differed from the untraced one.
    pub mismatches: u64,
    pub points: u64,
}

/// Simulates `cfg` over its stable ρ points at the suite's quick preset,
/// `reps` replications each, untraced and then traced with the same seed.
pub fn des_probe(cfg: &SystemConfig, opts: &SimOptions, reps: u64, seed: u64) -> DesProbe {
    let mut out = DesProbe::default();
    for (i, rho) in stable_rhos(cfg).into_iter().enumerate() {
        let w = rsin_bench::figures::workload_at(rho, RATIO);
        for rep in 0..reps {
            let stream = seed ^ ((i as u64) << 32 | rep).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut net = build(cfg);
            let t0 = Instant::now();
            let plain = simulate(net.as_mut(), &w, opts, &mut SimRng::new(stream));
            out.untraced_ns += ns_since(t0);
            let mut net = build(cfg);
            let traced = simulate_traced(net.as_mut(), &w, opts, &mut SimRng::new(stream));
            out.traced_ns += traced.wall_ns;
            out.points += 1;
            if format!("{plain:?}") != format!("{:?}", traced.report) {
                out.mismatches += 1;
            }
            out.tasks += traced.net.releases;
            let n = &mut out.net;
            n.cycles += traced.net.cycles;
            n.pending_submitted += traced.net.pending_submitted;
            n.grants += traced.net.grants;
            n.resolver_ns += traced.net.resolver_ns;
            n.releases += traced.net.releases;
            n.release_ns += traced.net.release_ns;
            out.draws += traced.draws;
            out.draw_ns += traced.draw_ns;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The decorators must be invisible to the simulator: for every network
    /// class, a traced run reports exactly what the untraced run does.
    #[test]
    fn traced_reports_are_bit_identical() {
        let opts = SimOptions {
            warmup_tasks: 200,
            measured_tasks: 2_000,
        };
        for (_, cfg) in CLASSES {
            let cfg: SystemConfig = cfg.parse().expect("probe config");
            let probe = des_probe(&cfg, &opts, 1, 7);
            assert!(probe.points >= 5, "{cfg}: {} points", probe.points);
            assert_eq!(probe.mismatches, 0, "{cfg}");
            assert!(probe.net.grants > 0 && probe.net.grants <= probe.net.pending_submitted);
            assert!(probe.draws > 0 && probe.tasks > 0);
        }
    }

    #[test]
    fn traced_report_matches_simulate_field_by_field() {
        let cfg: SystemConfig = CLASSES[1].1.parse().expect("probe config");
        let w = rsin_bench::figures::workload_at(0.5, RATIO);
        let opts = SimOptions {
            warmup_tasks: 100,
            measured_tasks: 1_000,
        };
        let plain = simulate(build(&cfg).as_mut(), &w, &opts, &mut SimRng::new(3));
        let traced = simulate_traced(build(&cfg).as_mut(), &w, &opts, &mut SimRng::new(3));
        let t = &traced.report;
        assert_eq!(plain.throughput.to_bits(), t.throughput.to_bits());
        assert_eq!(
            plain.mean_queue_length.to_bits(),
            t.mean_queue_length.to_bits()
        );
        assert_eq!(plain.counters, t.counters);
        assert_eq!(format!("{plain:?}"), format!("{t:?}"));
    }
}
