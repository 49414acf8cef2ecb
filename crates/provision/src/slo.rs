//! The SLO evaluator: "does configuration C meet delay target D under
//! traffic profile T?"
//!
//! The evaluator prefers the analytic chains and falls back to simulation
//! only where no chain covers the topology:
//!
//! * **SBUS** partitions are exact shared-bus chains
//!   ([`rsin_queueing::SharedBusChain`]), solved cold through
//!   [`rsin_queueing::solve_shared_bus_cached`], so a point revisited by
//!   this or a later search in the same process is answered verbatim from
//!   the cache.
//! * **XBAR** partitions with `k ≤ 3` output buses are exact small-`m`
//!   chains ([`rsin_queueing::SmallCrossbarChain`]) with π-vector seed
//!   threading.
//! * Everything else — Omega/Cube fabrics, wide crossbars, and the
//!   composite topologies — runs the parallel DES
//!   ([`rsin_core::estimate_delay_jobs`]).
//!
//! The traffic profile is **absolute** (λ, µ_n, µ_s fixed for the whole
//! search). This is what makes the search's monotone pruning sound: under
//! a fixed offered load, adding resources (or ports, or lanes) at the same
//! shape never increases delay. A relative convention (ρ against each
//! candidate's own pool) would re-scale λ per candidate and break that
//! ordering.

use crate::netmodel::{ClusteredXbarNet, MultiLaneOmegaNet};
use crate::topo::CandidateTopology;
use rsin_core::{
    estimate_delay_jobs, ConfigError, NetworkKind, ResourceNetwork, SimOptions, Workload,
};
use rsin_omega::{Admission, OmegaNetwork};
use rsin_queueing::{
    solve_shared_bus_cached, traffic, SharedBusParams, SmallCrossbarChain, SmallCrossbarParams,
    SmallCrossbarSeed, SolveError,
};
use rsin_sbus::{Arbitration, SharedBusNetwork};
use rsin_xbar::{CrossbarNetwork, CrossbarPolicy};
use std::collections::HashMap;

/// Replication seed shared by every DES evaluation (the paper's year, as
/// elsewhere in the workspace).
pub const EVAL_SEED: u64 = 1983;

/// An absolute traffic profile: per-processor arrival rate and the two
/// stage rates, fixed for an entire search.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrafficProfile {
    /// Per-processor task arrival rate λ.
    pub lambda: f64,
    /// Transmission rate µ_n.
    pub mu_n: f64,
    /// Service rate µ_s.
    pub mu_s: f64,
}

impl TrafficProfile {
    /// Builds a profile from explicit rates.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Invalid`] when any rate is non-positive or non-finite.
    pub fn new(lambda: f64, mu_n: f64, mu_s: f64) -> Result<Self, ConfigError> {
        for (v, what) in [
            (lambda, "lambda must be positive and finite"),
            (mu_n, "mu_n must be positive and finite"),
            (mu_s, "mu_s must be positive and finite"),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(ConfigError::Invalid { what: what.into() });
            }
        }
        Ok(TrafficProfile { lambda, mu_n, mu_s })
    }

    /// The paper's reference convention: µ_n = 1, µ_s = `ratio`, and λ set
    /// so that intensity `rho` holds at the reference pool of `R = 2p`
    /// resources (the figures' plotting convention). The resulting λ is
    /// then held fixed across every candidate of the search.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Invalid`] for `rho` outside `(0, 1)`, a bad `ratio`,
    /// or a reference pool `2p` that overflows `u32`.
    pub fn reference(p: u32, rho: f64, ratio: f64) -> Result<Self, ConfigError> {
        if !(rho.is_finite() && rho > 0.0 && rho < 1.0) {
            return Err(ConfigError::Invalid {
                what: format!("traffic intensity must be in (0, 1), got {rho}"),
            });
        }
        if !(ratio.is_finite() && ratio > 0.0) {
            return Err(ConfigError::Invalid {
                what: format!("mu_s/mu_n ratio must be positive and finite, got {ratio}"),
            });
        }
        let Some(reference_pool) = p.checked_mul(2) else {
            return Err(ConfigError::Invalid {
                what: format!("reference resource pool 2*{p} overflows u32"),
            });
        };
        let mu_n = 1.0;
        let mu_s = ratio;
        let lambda = traffic::lambda_for_intensity(p, reference_pool, rho, mu_n, mu_s);
        TrafficProfile::new(lambda, mu_n, mu_s)
    }

    /// The profile as a simulator workload.
    ///
    /// # Panics
    ///
    /// Does not panic: the rates were validated at construction.
    #[must_use]
    pub fn workload(&self) -> Workload {
        Workload::new(self.lambda, self.mu_n, self.mu_s).expect("rates validated at construction")
    }
}

/// Simulation effort for DES evaluations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvalQuality {
    /// Warmup tasks discarded per replication.
    pub warmup: u64,
    /// Measured tasks per replication.
    pub measured: u64,
    /// Independent replications (95% CI).
    pub reps: usize,
    /// Worker threads for the replications (estimates are identical for
    /// every value).
    pub jobs: usize,
}

impl EvalQuality {
    /// Search-loop effort: enough to rank candidates.
    #[must_use]
    pub fn quick(jobs: usize) -> Self {
        EvalQuality {
            warmup: 500,
            measured: 4_000,
            reps: 2,
            jobs,
        }
    }

    /// Confirmation effort: tighter CI for the winners.
    #[must_use]
    pub fn confirm(jobs: usize) -> Self {
        EvalQuality {
            warmup: 2_000,
            measured: 16_000,
            reps: 5,
            jobs,
        }
    }

    pub(crate) fn sim_options(&self) -> SimOptions {
        SimOptions {
            warmup_tasks: self.warmup,
            measured_tasks: self.measured,
        }
    }
}

/// How a delay figure was obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Exact shared-bus matrix-geometric chain.
    SbusChain,
    /// Exact small-`m` crossbar chain.
    XbarChain,
    /// Parallel discrete-event simulation.
    Des,
}

impl Method {
    /// Short token for reports.
    #[must_use]
    pub fn token(&self) -> &'static str {
        match self {
            Method::SbusChain => "sbus-chain",
            Method::XbarChain => "xbar-chain",
            Method::Des => "des",
        }
    }
}

/// A delay figure for one candidate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DelayValue {
    /// Normalized mean queueing delay `d · µ_s`.
    pub normalized_delay: f64,
    /// 95% CI half-width (0 for analytic values).
    pub half_width: f64,
    /// How the figure was obtained.
    pub method: Method,
}

/// Outcome of evaluating one candidate under the profile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DelayOutcome {
    /// The candidate is stable; here is its delay.
    Value(DelayValue),
    /// The offered load meets or exceeds the candidate's capacity (no
    /// steady state; the delay target is unreachable).
    Saturated,
}

impl DelayOutcome {
    /// Whether this outcome meets a normalized-delay target.
    #[must_use]
    pub fn meets(&self, target: f64) -> bool {
        match self {
            DelayOutcome::Value(v) => v.normalized_delay <= target,
            DelayOutcome::Saturated => false,
        }
    }
}

/// Evaluation counters, reported by the search driver.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalCounters {
    /// Candidates answered by an analytic chain.
    pub analytic: u64,
    /// Candidates answered by simulation.
    pub des: u64,
    /// Candidates rejected by the saturation guard without any solve.
    pub guarded: u64,
}

/// The evaluator: dispatches candidates to the cheapest adequate model,
/// threading crossbar warm-start seeds across solves.
#[derive(Debug)]
pub struct Evaluator {
    profile: TrafficProfile,
    quality: EvalQuality,
    /// Crossbar seeds keyed by `(buses, resources_per_bus)` (π vectors
    /// transfer only within one per-level state-space shape).
    xbar_seeds: HashMap<(u32, u32), SmallCrossbarSeed>,
    counters: EvalCounters,
}

impl Evaluator {
    /// Builds an evaluator for one search's profile and effort.
    #[must_use]
    pub fn new(profile: TrafficProfile, quality: EvalQuality) -> Self {
        Evaluator {
            profile,
            quality,
            xbar_seeds: HashMap::new(),
            counters: EvalCounters::default(),
        }
    }

    /// The profile this evaluator holds fixed.
    #[must_use]
    pub fn profile(&self) -> TrafficProfile {
        self.profile
    }

    /// Snapshot of the dispatch counters.
    #[must_use]
    pub fn counters(&self) -> EvalCounters {
        self.counters
    }

    /// Evaluates one candidate's normalized delay under the profile.
    pub fn evaluate(&mut self, topo: &CandidateTopology) -> DelayOutcome {
        if !self.stable_enough(topo) {
            self.counters.guarded += 1;
            return DelayOutcome::Saturated;
        }
        match topo {
            CandidateTopology::Classic(c) if c.kind() == NetworkKind::SharedBus => {
                self.eval_sbus_chain(c.inputs(), c.outputs() * c.resources_per_port())
            }
            CandidateTopology::Classic(c)
                if c.kind() == NetworkKind::Crossbar && c.outputs() <= 3 =>
            {
                self.eval_xbar_chain(c.inputs(), c.outputs(), c.resources_per_port())
            }
            _ => self.eval_des(topo),
        }
    }

    /// Evaluates by DES regardless of analytic coverage — the confirmation
    /// pass for winners found analytically.
    pub fn evaluate_des(&mut self, topo: &CandidateTopology) -> DelayOutcome {
        if !self.stable_enough(topo) {
            self.counters.guarded += 1;
            return DelayOutcome::Saturated;
        }
        self.eval_des(topo)
    }

    /// The saturation guard: the offered load must sit clearly inside both
    /// the transmission and the service capacity. The bound is generous
    /// (real fabrics block below it), so passing the guard does not imply
    /// stability — failing it implies saturation.
    fn stable_enough(&self, topo: &CandidateTopology) -> bool {
        let offered = f64::from(topo.processors()) * self.profile.lambda;
        let transmission = f64::from(max_circuits(topo)) * self.profile.mu_n;
        let service = f64::from(topo.total_resources()) * self.profile.mu_s;
        offered < 0.95 * transmission.min(service)
    }

    fn eval_sbus_chain(&mut self, procs_per_bus: u32, resources_per_bus: u32) -> DelayOutcome {
        let params = SharedBusParams {
            processors: procs_per_bus,
            resources: resources_per_bus,
            lambda: self.profile.lambda,
            mu_n: self.profile.mu_n,
            mu_s: self.profile.mu_s,
        };
        self.counters.analytic += 1;
        match solve_shared_bus_cached(params) {
            Ok(sol) => DelayOutcome::Value(DelayValue {
                normalized_delay: sol.normalized_delay,
                half_width: 0.0,
                method: Method::SbusChain,
            }),
            Err(SolveError::Unstable { .. }) => DelayOutcome::Saturated,
            // NoConvergence should not occur for validated stable points;
            // treat it as saturation rather than crashing a long search.
            Err(_) => DelayOutcome::Saturated,
        }
    }

    fn eval_xbar_chain(&mut self, procs: u32, buses: u32, resources_per_bus: u32) -> DelayOutcome {
        let params = SmallCrossbarParams {
            processors: procs,
            buses,
            resources_per_bus,
            lambda: self.profile.lambda,
            mu_n: self.profile.mu_n,
            mu_s: self.profile.mu_s,
        };
        self.counters.analytic += 1;
        let chain = match SmallCrossbarChain::new(params) {
            Ok(c) => c,
            Err(SolveError::Unstable { .. }) => return DelayOutcome::Saturated,
            Err(_) => return DelayOutcome::Saturated,
        };
        let key = (buses, resources_per_bus);
        let seed = self.xbar_seeds.get(&key);
        match chain.solve_seeded(seed) {
            Ok((sol, next_seed)) => {
                self.xbar_seeds.insert(key, next_seed);
                DelayOutcome::Value(DelayValue {
                    normalized_delay: sol.normalized_delay,
                    half_width: 0.0,
                    method: Method::XbarChain,
                })
            }
            Err(_) => DelayOutcome::Saturated,
        }
    }

    fn eval_des(&mut self, topo: &CandidateTopology) -> DelayOutcome {
        self.counters.des += 1;
        let workload = self.profile.workload();
        let opts = self.quality.sim_options();
        let topo = *topo;
        let est = estimate_delay_jobs(
            move || build_network(&topo),
            &workload,
            &opts,
            EVAL_SEED,
            self.quality.reps,
            self.quality.jobs,
        );
        DelayOutcome::Value(DelayValue {
            normalized_delay: est.normalized_delay,
            half_width: est.half_width,
            method: Method::Des,
        })
    }
}

/// Upper bound on simultaneously held circuits — the transmission-side
/// capacity the saturation guard checks against.
fn max_circuits(topo: &CandidateTopology) -> u32 {
    match topo {
        CandidateTopology::Classic(c) => match c.kind() {
            // One transmission per bus at a time.
            NetworkKind::SharedBus => c.networks(),
            _ => c.networks() * c.inputs().min(c.outputs()),
        },
        CandidateTopology::Clustered(c) => c.core_size(),
        CandidateTopology::MultiLane(m) => m.networks() * m.size(),
    }
}

/// Builds the DES model of a candidate.
///
/// # Panics
///
/// Panics if the candidate's kind and its validated dimensions disagree
/// (impossible for values produced by the `topo` constructors).
#[must_use]
pub fn build_network(topo: &CandidateTopology) -> Box<dyn ResourceNetwork> {
    match topo {
        CandidateTopology::Classic(c) => match c.kind() {
            NetworkKind::SharedBus => Box::new(
                SharedBusNetwork::from_config(c, Arbitration::FixedPriority).expect("kind checked"),
            ),
            NetworkKind::Crossbar => Box::new(
                CrossbarNetwork::from_config(c, CrossbarPolicy::FixedPriority)
                    .expect("kind checked"),
            ),
            NetworkKind::Omega | NetworkKind::Cube => Box::new(
                OmegaNetwork::from_config(c, Admission::Simultaneous).expect("kind checked"),
            ),
        },
        CandidateTopology::Clustered(c) => Box::new(ClusteredXbarNet::new(*c)),
        CandidateTopology::MultiLane(m) => Box::new(MultiLaneOmegaNet::new(*m)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::classic;

    fn quick_eval(p: u32, rho: f64, ratio: f64) -> Evaluator {
        let profile = TrafficProfile::reference(p, rho, ratio).expect("valid profile");
        Evaluator::new(profile, EvalQuality::quick(1))
    }

    #[test]
    fn analytic_dispatch_covers_sbus_and_small_xbar() {
        let mut ev = quick_eval(16, 0.2, 0.1);
        let sbus = classic(16, 16, NetworkKind::SharedBus, 1, 1, 2).expect("valid");
        let xbar = classic(16, 8, NetworkKind::Crossbar, 2, 2, 2).expect("valid");
        assert!(matches!(
            ev.evaluate(&sbus),
            DelayOutcome::Value(DelayValue {
                method: Method::SbusChain,
                ..
            })
        ));
        assert!(matches!(
            ev.evaluate(&xbar),
            DelayOutcome::Value(DelayValue {
                method: Method::XbarChain,
                ..
            })
        ));
        assert_eq!(ev.counters().analytic, 2);
        assert_eq!(ev.counters().des, 0);
    }

    #[test]
    fn des_fallback_covers_omega_and_composites() {
        let mut ev = quick_eval(16, 0.2, 0.1);
        let omega = classic(16, 1, NetworkKind::Omega, 16, 16, 2).expect("valid");
        match ev.evaluate(&omega) {
            DelayOutcome::Value(v) => {
                assert_eq!(v.method, Method::Des);
                assert!(v.normalized_delay >= 0.0);
            }
            DelayOutcome::Saturated => panic!("moderate load must be stable"),
        }
        assert_eq!(ev.counters().des, 1);
    }

    #[test]
    fn saturation_guard_rejects_hopeless_candidates() {
        let mut ev = quick_eval(16, 0.3, 0.1);
        // One bus, one resource for 16 processors at rho=0.3 of a 32-pool:
        // hopeless, and the guard must say so without a solve.
        let tiny = classic(16, 1, NetworkKind::SharedBus, 16, 1, 1).expect("valid");
        assert_eq!(ev.evaluate(&tiny), DelayOutcome::Saturated);
        assert_eq!(ev.counters().guarded, 1);
        assert!(!DelayOutcome::Saturated.meets(f64::INFINITY));
    }

    #[test]
    fn delay_is_monotone_in_resources_at_fixed_shape() {
        // The pruning premise, checked on the exact chain: more resources
        // per bus never raises delay under a fixed absolute profile.
        let mut ev = quick_eval(16, 0.3, 0.1);
        let mut last = f64::INFINITY;
        for r in [2u32, 4, 8] {
            let cfg = classic(16, 16, NetworkKind::SharedBus, 1, 1, r).expect("valid");
            match ev.evaluate(&cfg) {
                DelayOutcome::Value(v) => {
                    assert!(
                        v.normalized_delay <= last + 1e-12,
                        "delay rose from {last} to {} at r={r}",
                        v.normalized_delay
                    );
                    last = v.normalized_delay;
                }
                DelayOutcome::Saturated => panic!("reference load must be feasible at r={r}"),
            }
        }
    }
}
