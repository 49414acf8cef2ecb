//! `broker_contended`: each discipline with two workers on one resource,
//! every worker in its own saturated blocking loop over the `Broker` trait.

use crate::stats::Hist;
use rsin_broker::{Broker, OmegaBroker, RunControl, SbusBroker, XbarBroker, XbarPolicy};
use rsin_des::SimRng;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

pub const WORKERS: usize = 2;
pub const RESOURCES: usize = 1;
/// Fixed spin hold per grant, plus up to [`HOLD_JITTER_NS`] drawn from the
/// seed.
const HOLD_NS: u64 = 1_000;
const HOLD_JITTER_NS: f64 = 250.0;

const VACANT: usize = usize::MAX;

/// How long past its window a worker may stay blocked before the run is
/// stopped under it (a wedged discipline, not a slow one).
const STOP_GRACE: Duration = Duration::from_secs(1);

/// The three disciplines, by metric name.
pub const DISCIPLINES: [&str; 3] = ["sbus", "xbar", "omega"];

/// A fresh broker of discipline `d`.
pub fn build(d: &str) -> Box<dyn Broker + Send> {
    match d {
        "sbus" => Box::new(SbusBroker::new(WORKERS, RESOURCES)),
        "xbar" => Box::new(XbarBroker::new(
            WORKERS,
            RESOURCES,
            XbarPolicy::TokenRotation,
        )),
        "omega" => Box::new(OmegaBroker::new(WORKERS, RESOURCES)),
        _ => unreachable!("unknown discipline {d}"),
    }
}

/// Outcome of one contended window.
#[derive(Debug)]
pub struct Contended {
    pub secs: f64,
    pub grants_per_worker: Vec<u64>,
    /// Acquire call → grant, ns.
    pub acquire: Hist,
    /// Acquires that returned without a grant before the window closed.
    pub aborted: u64,
    /// Grants of a resource the audit saw still owned by someone else.
    pub double_grants: u64,
    /// Resources grantable after the workers were joined.
    pub available_at_end: usize,
}

impl Contended {
    pub fn grants(&self) -> u64 {
        self.grants_per_worker.iter().sum()
    }

    pub fn grants_per_sec(&self) -> f64 {
        self.grants() as f64 / self.secs
    }

    /// The smallest worker's share of all grants (1/workers is perfectly
    /// fair).
    pub fn min_worker_share(&self) -> f64 {
        let min = self.grants_per_worker.iter().copied().min().unwrap_or(0);
        min as f64 / self.grants().max(1) as f64
    }
}

fn spin_for(ns: u64) {
    let t0 = Instant::now();
    while (t0.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

/// Runs every worker's acquire → end_transmission → hold → release loop on
/// `b` for `window`, auditing ownership of each resource independently of
/// the broker.
pub fn contend(b: &dyn Broker, window: Duration, seed: u64) -> Contended {
    let owners: Vec<AtomicUsize> = (0..b.resources())
        .map(|_| AtomicUsize::new(VACANT))
        .collect();
    let doubles = AtomicU64::new(0);
    let finished = AtomicUsize::new(0);
    let ctl = RunControl::new();
    let start = Instant::now();
    let end = start + window;
    let per_worker: Vec<(u64, u64, Hist)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..b.workers())
            .map(|who| {
                let (owners, doubles, ctl, finished) = (&owners, &doubles, &ctl, &finished);
                s.spawn(move || {
                    let mut rng = SimRng::new(seed ^ (who as u64 + 1).wrapping_mul(0x9E37_79B9));
                    let (mut grants, mut aborted) = (0u64, 0u64);
                    let mut hist = Hist::default();
                    while Instant::now() < end {
                        let t0 = Instant::now();
                        let Some(g) = b.acquire(who, ctl) else {
                            if !ctl.is_stopped() {
                                aborted += 1;
                            }
                            break;
                        };
                        hist.record(t0.elapsed().as_nanos() as u64);
                        if owners[g.resource].swap(who, Ordering::SeqCst) != VACANT {
                            doubles.fetch_add(1, Ordering::Relaxed);
                        }
                        b.end_transmission(who, g);
                        spin_for(HOLD_NS + (rng.uniform() * HOLD_JITTER_NS) as u64);
                        owners[g.resource].store(VACANT, Ordering::SeqCst);
                        b.release(who, g);
                        grants += 1;
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                    (grants, aborted, hist)
                })
            })
            .collect();
        // A worker blocked in acquire when the window closes is released by
        // its peer's last release; the stop is a safety net, not the exit.
        std::thread::sleep(window);
        while finished.load(Ordering::SeqCst) < b.workers() {
            if start.elapsed() > window + STOP_GRACE {
                ctl.stop();
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let mut acquire = Hist::default();
    let mut aborted = 0;
    let mut grants_per_worker = Vec::new();
    for (g, a, h) in &per_worker {
        grants_per_worker.push(*g);
        aborted += a;
        acquire.merge(h);
    }
    Contended {
        secs: window.as_secs_f64(),
        grants_per_worker,
        acquire,
        aborted,
        double_grants: doubles.into_inner(),
        available_at_end: b.available_resources(),
    }
}

/// One worker's uncontended acquire → end_transmission → release cycle,
/// ns per cycle.
pub fn uncontended_cycle_ns(b: &dyn Broker, cycles: u32) -> f64 {
    let ctl = RunControl::new();
    let t0 = Instant::now();
    for _ in 0..cycles {
        let g = b.acquire(0, &ctl).expect("uncontended acquire");
        b.end_transmission(0, g);
        b.release(0, g);
    }
    t0.elapsed().as_nanos() as f64 / f64::from(cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_discipline_grants_exclusively_and_fairly_enough() {
        for d in DISCIPLINES {
            let b = build(d);
            let c = contend(b.as_ref(), Duration::from_millis(100), 1);
            assert!(c.grants() > 100, "{d}: {} grants", c.grants());
            assert_eq!((c.double_grants, c.aborted), (0, 0), "{d}");
            assert_eq!(c.available_at_end, RESOURCES, "{d}");
            assert_eq!(c.acquire.tail(0.99).n, c.grants());
            assert!(uncontended_cycle_ns(b.as_ref(), 1_000) > 0.0);
        }
    }
}
