//! Bit-exact fingerprints of fixed DES runs, for resolver-equivalence
//! checks.
//!
//! The production resolvers are compiled gate evaluators; each network
//! crate keeps its naive scheduler as a test oracle and drives both through
//! [`healthy_fingerprint`] and [`faulted_fingerprint`], which run the same
//! workload, seed, and fault plan every time. Any divergence — an extra RNG
//! draw, a reordered grant, a different winner — changes some word of the
//! fingerprint. The umbrella crate's `bitslice_equivalence` test pins the
//! [`digest`] of each run, so the shipped networks also stay put across
//! changes.

use crate::{
    simulate, simulate_faulty, FaultOptions, ResourceNetwork, SimOptions, SimReport, Workload,
};
use rsin_des::{FaultPlan, FaultTarget, SimRng, StochasticFault};

/// Every statistic `report` records, as raw bits: both delay estimators
/// (count, mean, variance, min, max), the three time averages, the network
/// counters, the task tallies, and the delivered throughput.
#[must_use]
pub fn fingerprint(report: &SimReport) -> Vec<u64> {
    let mut words = Vec::with_capacity(26);
    for s in [&report.queueing_delay, &report.response_time] {
        words.push(s.count());
        words.extend([s.mean(), s.sample_variance(), s.min(), s.max()].map(f64::to_bits));
    }
    let r = report;
    words.extend([r.mean_queue_length, r.throughput, r.measured_time].map(f64::to_bits));
    let c = &r.counters;
    words.extend([
        c.attempts,
        c.rejections,
        c.boxes_traversed,
        c.resource_failures,
        c.resource_repairs,
        c.element_failures,
        c.element_repairs,
    ]);
    words.extend([r.arrivals, r.completions, r.requeues, r.queued_at_end]);
    words.extend([r.in_flight_at_end, r.delivered_throughput.to_bits()]);
    words
}

/// FNV-1a 64 over the little-endian bytes of `words`.
#[must_use]
pub fn digest(words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Fingerprint of a healthy run: load 0.3 per processor, 100 warm-up and
/// 1 500 measured tasks, seed 42.
///
/// # Panics
///
/// Panics if `net` has no processors.
#[must_use]
pub fn healthy_fingerprint(net: &mut dyn ResourceNetwork) -> Vec<u64> {
    let workload = Workload::new(0.3 * net.processors() as f64, 10.0, 1.0).expect("valid workload");
    let opts = SimOptions {
        warmup_tasks: 100,
        measured_tasks: 1_500,
    };
    fingerprint(&simulate(net, &workload, &opts, &mut SimRng::new(42)))
}

/// Outcome of a faulted run: load 0.25 per processor, 50 warm-up and 800
/// measured tasks, seed 7, resource 0 failing stochastically (MTBF 2,
/// MTTR 0.5) and, where the network has fault elements, the middle one too
/// (MTBF 1.5, MTTR 0.8). A stalled run yields the error message.
///
/// # Errors
///
/// The rendered [`SimError`](crate::SimError) when the run stalls.
///
/// # Panics
///
/// Panics if `net` has no processors.
pub fn faulted_fingerprint(net: &mut dyn ResourceNetwork) -> Result<Vec<u64>, String> {
    let mut plan = FaultPlan::new().stochastic(StochasticFault {
        target: FaultTarget::Resource(0),
        mtbf: 2.0,
        mttr: 0.5,
    });
    if net.fault_elements() > 0 {
        plan = plan.stochastic(StochasticFault {
            target: FaultTarget::Element(net.fault_elements() / 2),
            mtbf: 1.5,
            mttr: 0.8,
        });
    }
    let workload =
        Workload::new(0.25 * net.processors() as f64, 10.0, 1.0).expect("valid workload");
    let opts = SimOptions {
        warmup_tasks: 50,
        measured_tasks: 800,
    };
    simulate_faulty(
        net,
        &workload,
        &opts,
        &plan,
        &FaultOptions::default(),
        &mut SimRng::new(7),
    )
    .map(|r| fingerprint(&r))
    .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a_over_le_bytes() {
        assert_eq!(digest(&[]), 0xcbf2_9ce4_8422_2325);
        assert_ne!(digest(&[1]), digest(&[1 << 8]));
    }
}
