//! Replicated simulation runs with confidence intervals.
//!
//! Builds on [`rsin_des::replicate_par`]: each replication constructs a
//! fresh network from a factory, simulates it, and reports the mean
//! normalized queueing delay; the spread across replications gives the 95%
//! interval attached to simulation points on the figures. Replication `i`
//! draws only from `SimRng::new(seed).derive(i)`, so the estimate is a pure
//! function of `(seed, workload, opts, reps)` — independent of the worker
//! count.

use crate::network::ResourceNetwork;
use crate::sim::{simulate, SimOptions};
use crate::workload::Workload;
use rsin_des::{replicate_par, SimRng};

/// A replicated delay estimate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DelayEstimate {
    /// Mean normalized queueing delay (`d·µ_s`) across replications.
    pub normalized_delay: f64,
    /// 95% half-width across replications (0 for a single replication).
    pub half_width: f64,
}

/// Estimates the normalized queueing delay of a network under `workload`
/// with `reps` independent replications run on the default worker count
/// ([`rsin_des::default_jobs`]).
///
/// `factory` must build a fresh, identically configured network for each
/// replication.
///
/// # Panics
///
/// Panics if `reps == 0` (via the replication runner) or if the factory
/// produces a network that violates the simulator's contracts.
pub fn estimate_delay<F>(
    factory: F,
    workload: &Workload,
    opts: &SimOptions,
    seed: u64,
    reps: usize,
) -> DelayEstimate
where
    F: Fn() -> Box<dyn ResourceNetwork> + Sync,
{
    estimate_delay_jobs(
        factory,
        workload,
        opts,
        seed,
        reps,
        rsin_des::default_jobs(),
    )
}

/// [`estimate_delay`] with an explicit worker count. The estimate is
/// bitwise identical for every `jobs` value (replications are collected by
/// index); `jobs <= 1` runs fully inline.
///
/// # Panics
///
/// Panics if `reps == 0` (via the replication runner) or if the factory
/// produces a network that violates the simulator's contracts.
pub fn estimate_delay_jobs<F>(
    factory: F,
    workload: &Workload,
    opts: &SimOptions,
    seed: u64,
    reps: usize,
    jobs: usize,
) -> DelayEstimate
where
    F: Fn() -> Box<dyn ResourceNetwork> + Sync,
{
    let base = SimRng::new(seed);
    let out = replicate_par(&base, reps, 0.95, jobs, |_, mut rng| {
        let mut net = factory();
        let report = simulate(net.as_mut(), workload, opts, &mut rng);
        report.normalized_delay(workload)
    });
    DelayEstimate {
        normalized_delay: out.mean(),
        half_width: out.interval.map_or(0.0, |ci| ci.half_width),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Grant, NetworkCounters, PendingSet};

    /// Trivial infinite-capacity network: every pending processor is granted
    /// instantly, so the queueing delay is exactly zero.
    #[derive(Debug)]
    struct InstantNet {
        p: usize,
    }

    impl ResourceNetwork for InstantNet {
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
            out.extend(
                (0..self.p)
                    .filter(|&i| pending.bools[i])
                    .map(|processor| Grant { processor, port: 0 }),
            );
        }
        fn end_transmission(&mut self, _grant: Grant) {}
        fn end_service(&mut self, _grant: Grant) {}
        fn take_counters(&mut self) -> NetworkCounters {
            NetworkCounters::default()
        }
    }

    #[test]
    fn instant_network_reduces_to_mm1_per_processor() {
        // Even with an infinitely capable network, a processor transmits one
        // task at a time (assumption (f)), so each processor is an M/M/1
        // queue with service rate µ_n: Wq = λ/(µ_n(µ_n−λ))·µ_n = 3/7 here.
        let workload = Workload::new(0.3, 1.0, 1.0).expect("valid");
        let opts = SimOptions {
            warmup_tasks: 2_000,
            measured_tasks: 40_000,
        };
        let est = estimate_delay(|| Box::new(InstantNet { p: 4 }), &workload, &opts, 42, 4);
        let expect = 0.3 / (1.0 - 0.3);
        let rel = (est.normalized_delay - expect).abs() / expect;
        assert!(
            rel < 0.05,
            "delay {} vs M/M/1 Wq {expect}",
            est.normalized_delay
        );
        assert!(est.half_width > 0.0, "replications must spread");
    }

    #[test]
    fn estimate_is_deterministic_for_seed() {
        let workload = Workload::new(0.3, 1.0, 1.0).expect("valid");
        let opts = SimOptions {
            warmup_tasks: 10,
            measured_tasks: 100,
        };
        let run = || {
            estimate_delay(|| Box::new(InstantNet { p: 2 }), &workload, &opts, 7, 2)
                .normalized_delay
        };
        assert_eq!(run(), run());
    }
}
