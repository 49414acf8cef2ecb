//! Multiple resource types — the paper's stated extension (Sections V and
//! VII).
//!
//! "The algorithms presented in this paper can be extended easily to systems
//! with multiple types of resources. The request and status signals have to
//! be augmented by a type number." Each task requests exactly one resource
//! of one *type*; each output port hosts resources of a single type; status
//! information is kept per type. The open question the paper flags — "the
//! problem on the number and placement of each type of resources in the
//! network is still open" — is exactly what the placement ablation probes.
//!
//! The extension lives inside the one network contract and the one event
//! loop: a [`ResourceNetwork`] reports how many types it hosts
//! ([`ResourceNetwork::resource_types`]) and the type behind each port
//! ([`ResourceNetwork::port_type`]), and reads each pending request's type
//! from [`crate::PendingSet::types`]. This module adds the typed workload
//! and [`simulate_typed`], the entry point that draws each task's type.

use crate::network::ResourceNetwork;
use crate::sim::{simulate_exponential, FaultOptions, SimOptions, SimReport};
use crate::workload::Workload;
use rsin_des::{FaultPlan, SimRng};

/// Workload over typed tasks: arrivals are Poisson per processor; each task
/// requests type `t` with probability `mix[t]`.
#[derive(Clone, Debug, PartialEq)]
pub struct TypedWorkload {
    base: Workload,
    mix: Vec<f64>,
}

impl TypedWorkload {
    /// Builds a typed workload from per-type request probabilities.
    ///
    /// # Errors
    ///
    /// [`crate::ConfigError::Invalid`] if the mix is empty, has negative
    /// entries, or does not sum to 1 (±1e-9).
    pub fn new(base: Workload, mix: Vec<f64>) -> Result<Self, crate::ConfigError> {
        if mix.is_empty() {
            return Err(crate::ConfigError::Invalid {
                what: "type mix must not be empty".into(),
            });
        }
        if mix.iter().any(|&p| !(0.0..=1.0).contains(&p)) {
            return Err(crate::ConfigError::Invalid {
                what: "type probabilities must lie in [0, 1]".into(),
            });
        }
        let total: f64 = mix.iter().sum();
        if (total - 1.0).abs() > 1e-9 {
            return Err(crate::ConfigError::Invalid {
                what: format!("type mix must sum to 1, got {total}"),
            });
        }
        Ok(TypedWorkload { base, mix })
    }

    /// The underlying rate parameters.
    #[must_use]
    pub fn base(&self) -> &Workload {
        &self.base
    }

    /// Number of types.
    #[must_use]
    pub fn types(&self) -> usize {
        self.mix.len()
    }

    /// Samples a task type.
    #[must_use]
    pub fn draw_type(&self, rng: &mut SimRng) -> usize {
        let u = rng.uniform();
        let mut acc = 0.0;
        for (t, &p) in self.mix.iter().enumerate() {
            acc += p;
            if u < acc {
                return t;
            }
        }
        self.mix.len() - 1
    }
}

/// Simulates `net` under a typed `workload`: [`crate::simulate`] with each
/// task requesting a resource type drawn from the workload's mix. The
/// report's [`SimReport::per_type_delay`] splits the delay by type, and
/// [`SimReport::normalized_delay`] takes `workload.base()`.
///
/// # Panics
///
/// Panics if the workload has more types than `net` hosts, or on the
/// structural violations [`crate::simulate`] checks — including a grant
/// that lands on a port of another type than the one requested.
pub fn simulate_typed(
    net: &mut dyn ResourceNetwork,
    workload: &TypedWorkload,
    opts: &SimOptions,
    rng: &mut SimRng,
) -> SimReport {
    assert!(
        workload.types() <= net.resource_types(),
        "workload has more types than the network hosts"
    );
    simulate_exponential(
        net,
        workload.base(),
        Some(workload),
        None,
        opts,
        &FaultPlan::new(),
        &FaultOptions::default(),
        rng,
    )
    .expect("a fault-free run stalls only on a broken network")
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::network::{Grant, PendingSet};
    use rsin_des::stats::Welford;

    /// A trivially typed network: one private server pool per type with
    /// unlimited capacity — zero network delay, so queueing comes only from
    /// the per-processor port. Port `t` hosts type `t`.
    #[derive(Debug)]
    struct TypedInstant {
        p: usize,
        types: usize,
    }

    impl ResourceNetwork for TypedInstant {
        fn processors(&self) -> usize {
            self.p
        }
        fn total_resources(&self) -> usize {
            usize::MAX
        }
        fn resource_types(&self) -> usize {
            self.types
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
            out.extend(
                (0..pending.bools.len())
                    .filter(|&i| pending.bools[i])
                    .map(|i| Grant {
                        processor: i,
                        port: pending.types[i],
                    }),
            );
        }
        fn end_transmission(&mut self, _grant: Grant) {}
        fn end_service(&mut self, _grant: Grant) {}
    }

    fn workload(mix: Vec<f64>) -> TypedWorkload {
        TypedWorkload::new(Workload::new(0.2, 1.0, 1.0).expect("valid"), mix).expect("valid mix")
    }

    #[test]
    fn mix_validation() {
        let base = Workload::new(0.1, 1.0, 1.0).expect("valid");
        assert!(TypedWorkload::new(base, vec![]).is_err());
        assert!(TypedWorkload::new(base, vec![0.5, 0.6]).is_err());
        assert!(TypedWorkload::new(base, vec![-0.1, 1.1]).is_err());
        assert!(TypedWorkload::new(base, vec![0.25, 0.75]).is_ok());
    }

    #[test]
    fn draw_type_respects_mix() {
        let w = workload(vec![0.8, 0.2]);
        let mut rng = SimRng::new(3);
        let n = 50_000;
        let ones = (0..n).filter(|_| w.draw_type(&mut rng) == 1).count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.01, "type-1 fraction {frac}");
    }

    #[test]
    fn typed_simulation_runs_and_reports_per_type() {
        let w = workload(vec![0.5, 0.5]);
        let mut net = TypedInstant { p: 4, types: 2 };
        let mut rng = SimRng::new(5);
        let opts = SimOptions {
            warmup_tasks: 500,
            measured_tasks: 10_000,
        };
        let report = simulate_typed(&mut net, &w, &opts, &mut rng);
        assert_eq!(report.queueing_delay.count(), 10_000);
        let total: u64 = report.per_type_delay.iter().map(Welford::count).sum();
        assert_eq!(total, 10_000);
        assert!(report.per_type_delay[0].count() > 3_000);
        assert!(report.per_type_delay[1].count() > 3_000);
        // Instant network: the only queueing is the processor's own port
        // (M/M/1 with lambda = 0.2, mu_n = 1 → Wq = 0.25).
        let d = report.normalized_delay(w.base());
        assert!((d - 0.25).abs() < 0.05, "delay {d}");
    }

    #[test]
    fn single_type_reduces_to_untyped() {
        let w = workload(vec![1.0]);
        let mut net = TypedInstant { p: 2, types: 1 };
        let mut rng = SimRng::new(7);
        let opts = SimOptions {
            warmup_tasks: 200,
            measured_tasks: 5_000,
        };
        let report = simulate_typed(&mut net, &w, &opts, &mut rng);
        assert_eq!(report.per_type_delay[0].count(), 5_000);
    }
}
