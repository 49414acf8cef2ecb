//! The search driver: guided coordinate descent over the configuration
//! axes, with monotone pruning and a Pareto frontier output.
//!
//! The space factors into **shapes** (a family plus its structural
//! dimensions — partition count, fabric size, output buses, lanes) times
//! the **resource axis** `r`. Under a fixed absolute traffic profile,
//! delay is monotone nonincreasing in `r` at a fixed shape, so the driver
//! descends each shape's `r` axis by binary search: `O(log r_max)`
//! evaluations find the cheapest feasible `r`, and every unevaluated
//! config below the highest observed failure is *pruned* — inferred
//! infeasible without a solve. The pruned set is reported (and sampled
//! into [`SearchReport::pruned_examples`]) so its soundness is testable.
//!
//! The descent first scans for the shape's floor: the smallest `r` the
//! saturation guard admits, found with no solve. Every `r` below it is
//! pruned, and the floor is evaluated first; a shape that meets the target
//! there is settled by that one evaluation. Only otherwise does the binary
//! search run, over the midpoints it would visit without the floor, which
//! make fewer evaluations than a search over the range above it. The same
//! monotonicity spares the shape's largest `r`, its most expensive chain:
//! it is solved only when the first midpoint fails, since a passing
//! midpoint already proves it feasible.
//!
//! The output is not just an argmin: every shape's cheapest feasible
//! configuration becomes a candidate, and the driver reports the Pareto
//! frontier of (cost, delay) — the configs for which no cheaper candidate
//! is also faster. The winner (cheapest feasible, ties to lower delay) can
//! be confirmed by an independent DES run with CI-based tolerance and
//! optionally re-checked with one resource port failed.

use crate::cost::CostModel;
use crate::slo::{
    build_network, DelayOutcome, DelayValue, EvalCounters, EvalQuality, Evaluator, TrafficProfile,
    EVAL_SEED,
};
use crate::topo::{classic, CandidateTopology, ClusteredXbar, MultiLaneOmega};
use rsin_core::{simulate_faulty, ConfigError, FaultOptions, NetworkKind};
use rsin_des::{replicate_par, FaultPlan, FaultTarget, SimRng, SimTime};
use std::collections::BTreeSet;

/// A topology family the search can explore.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// Partitioned shared buses (analytic).
    Sbus,
    /// Partitioned crossbars (analytic for `k ≤ 3`, DES beyond).
    Xbar,
    /// Partitioned Omega fabrics (DES).
    Omega,
    /// Partitioned indirect binary n-cubes (DES).
    Cube,
    /// Clustered crossbars feeding an Omega core (DES).
    Clustered,
    /// Multi-lane Omega fabrics (DES).
    MultiLane,
}

impl Family {
    /// Every family, in report order.
    pub const ALL: [Family; 6] = [
        Family::Sbus,
        Family::Xbar,
        Family::Omega,
        Family::Cube,
        Family::Clustered,
        Family::MultiLane,
    ];

    /// Short token (CLI value and report label).
    #[must_use]
    pub fn token(&self) -> &'static str {
        match self {
            Family::Sbus => "sbus",
            Family::Xbar => "xbar",
            Family::Omega => "omega",
            Family::Cube => "cube",
            Family::Clustered => "clx",
            Family::MultiLane => "mlomega",
        }
    }
}

impl std::str::FromStr for Family {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "sbus" => Ok(Family::Sbus),
            "xbar" => Ok(Family::Xbar),
            "omega" => Ok(Family::Omega),
            "cube" => Ok(Family::Cube),
            "clx" => Ok(Family::Clustered),
            "mlomega" => Ok(Family::MultiLane),
            other => Err(ConfigError::Invalid {
                what: format!(
                    "unknown family {other:?} (expected sbus|xbar|omega|cube|clx|mlomega)"
                ),
            }),
        }
    }
}

/// What to search: the load point, the SLO, the families, the budget.
#[derive(Clone, Debug)]
pub struct SearchSpec {
    /// Processor count `p` (fixed per search).
    pub processors: u32,
    /// Traffic intensity at the reference pool `R = 2p`.
    pub rho: f64,
    /// Service/transmission ratio `µ_s/µ_n`.
    pub ratio: f64,
    /// SLO: maximum acceptable normalized queueing delay `d · µ_s`.
    pub target: f64,
    /// Largest `r` the descent may reach per shape.
    pub max_resources_per_port: u32,
    /// Families to explore.
    pub families: Vec<Family>,
    /// Unit prices.
    pub cost_model: CostModel,
    /// Simulation effort for search-loop DES evaluations.
    pub quality: EvalQuality,
    /// Independent DES confirmation of the winner (`None` skips it).
    pub confirm: Option<EvalQuality>,
    /// Re-check the winner with one resource port failed.
    pub fault_recheck: bool,
}

impl SearchSpec {
    /// A spec with workspace defaults: every family, `r ≤ 64`, quick
    /// search quality, DES confirmation on, fault recheck off.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Invalid`] for a zero `p`, a `rho` outside `(0, 1)`,
    /// a bad `ratio`, or a non-positive `target` (validated here so the
    /// search itself cannot fail late on bad numbers).
    pub fn new(processors: u32, rho: f64, ratio: f64, target: f64) -> Result<Self, ConfigError> {
        if processors == 0 {
            return Err(ConfigError::Invalid {
                what: "need at least one processor".into(),
            });
        }
        // Validates rho/ratio ranges and the 2p reference pool.
        TrafficProfile::reference(processors, rho, ratio)?;
        if !(target.is_finite() && target > 0.0) {
            return Err(ConfigError::Invalid {
                what: format!("delay target must be positive and finite, got {target}"),
            });
        }
        Ok(SearchSpec {
            processors,
            rho,
            ratio,
            target,
            max_resources_per_port: 64,
            families: Family::ALL.to_vec(),
            cost_model: CostModel::default(),
            quality: EvalQuality::quick(rsin_des::default_jobs()),
            confirm: Some(EvalQuality::confirm(rsin_des::default_jobs())),
            fault_recheck: false,
        })
    }
}

/// One feasible configuration the search produced.
#[derive(Clone, Copy, Debug)]
pub struct Candidate {
    /// The configuration.
    pub topo: CandidateTopology,
    /// Its cost under the spec's model.
    pub cost: f64,
    /// Its delay, as evaluated during the search.
    pub delay: DelayValue,
}

/// An independent DES check of the winner.
#[derive(Clone, Copy, Debug)]
pub struct Confirmation {
    /// DES normalized delay.
    pub normalized_delay: f64,
    /// 95% CI half-width of the DES estimate.
    pub half_width: f64,
    /// Whether the DES value meets the target within tolerance
    /// (`target + half_width + 5%` relative slack).
    pub meets_target: bool,
    /// Whether the DES value agrees with the search's figure within
    /// tolerance (`half_width + 5%` relative slack).
    pub agrees_with_search: bool,
}

/// Everything a search run learned.
#[derive(Clone, Debug)]
pub struct SearchReport {
    /// Processor count searched.
    pub processors: u32,
    /// The SLO target.
    pub target: f64,
    /// Pareto frontier of (cost, delay), cheapest first.
    pub frontier: Vec<Candidate>,
    /// Cheapest feasible configuration (ties broken by lower delay).
    pub winner: Option<Candidate>,
    /// Independent DES check of the winner, when requested.
    pub confirmation: Option<Confirmation>,
    /// DES check of the winner with one resource port failed, when
    /// requested (informational: the SLO is not re-enforced degraded).
    pub degraded: Option<Confirmation>,
    /// Configurations in the enumerated space.
    pub total_configs: u64,
    /// Configurations actually evaluated.
    pub evaluated: u64,
    /// Configurations inferred infeasible by monotonicity, including every
    /// `r` below a shape's saturation-guard floor (never solved).
    pub pruned_infeasible: u64,
    /// Feasible-but-dominated configurations skipped above the descent's
    /// stopping point, including each feasible shape's largest `r` when a
    /// smaller `r` proved it feasible first.
    pub pruned_dominated: u64,
    /// A sample of the pruned-infeasible set, for soundness auditing.
    pub pruned_examples: Vec<CandidateTopology>,
    /// Evaluator dispatch counters.
    pub eval: EvalCounters,
}

impl SearchReport {
    /// Fraction of the space never evaluated (pruned either way).
    #[must_use]
    pub fn pruned_fraction(&self) -> f64 {
        if self.total_configs == 0 {
            0.0
        } else {
            (self.total_configs - self.evaluated) as f64 / self.total_configs as f64
        }
    }
}

/// One structural shape; `r` is the remaining free axis.
#[derive(Clone, Copy, Debug)]
enum Shape {
    Classic {
        networks: u32,
        kind: NetworkKind,
        inputs: u32,
        outputs: u32,
    },
    Clustered {
        clusters: u32,
        cluster_inputs: u32,
        uplinks: u32,
    },
    MultiLane {
        networks: u32,
        size: u32,
        lanes: u32,
    },
}

impl Shape {
    fn at_r(&self, p: u32, r: u32) -> Option<CandidateTopology> {
        match *self {
            Shape::Classic {
                networks,
                kind,
                inputs,
                outputs,
            } => classic(p, networks, kind, inputs, outputs, r).ok(),
            Shape::Clustered {
                clusters,
                cluster_inputs,
                uplinks,
            } => ClusteredXbar::new(clusters, cluster_inputs, uplinks, r)
                .ok()
                .map(CandidateTopology::Clustered),
            Shape::MultiLane {
                networks,
                size,
                lanes,
            } => MultiLaneOmega::new(networks, size, lanes, r)
                .ok()
                .map(CandidateTopology::MultiLane),
        }
    }
}

fn divisors(p: u32) -> Vec<u32> {
    let mut out = Vec::new();
    let mut d = 1u32;
    while u64::from(d) * u64::from(d) <= u64::from(p) {
        if p.is_multiple_of(d) {
            out.push(d);
            if d != p / d {
                out.push(p / d);
            }
        }
        d += 1;
    }
    out.sort_unstable();
    out
}

/// Output-bus ladder for crossbar shapes: the analytically covered counts
/// plus power-of-two steps, capped so wide fabrics stay enumerable.
const XBAR_OUTPUTS: [u32; 7] = [1, 2, 3, 4, 8, 16, 32];

/// Lane ladder for multi-lane Omega shapes.
const LANES: [u32; 3] = [1, 2, 4];

fn shapes_for(family: Family, p: u32) -> Vec<Shape> {
    let mut shapes = Vec::new();
    match family {
        Family::Sbus => {
            for i in divisors(p) {
                shapes.push(Shape::Classic {
                    networks: i,
                    kind: NetworkKind::SharedBus,
                    inputs: p / i,
                    outputs: 1,
                });
            }
        }
        Family::Xbar => {
            for i in divisors(p) {
                let j = p / i;
                for k in XBAR_OUTPUTS {
                    if k <= j.saturating_mul(2) {
                        shapes.push(Shape::Classic {
                            networks: i,
                            kind: NetworkKind::Crossbar,
                            inputs: j,
                            outputs: k,
                        });
                    }
                }
            }
        }
        Family::Omega | Family::Cube => {
            let kind = if family == Family::Omega {
                NetworkKind::Omega
            } else {
                NetworkKind::Cube
            };
            for i in divisors(p) {
                let j = p / i;
                if j.is_power_of_two() && j >= 2 {
                    shapes.push(Shape::Classic {
                        networks: i,
                        kind,
                        inputs: j,
                        outputs: j,
                    });
                }
            }
        }
        Family::Clustered => {
            for c in divisors(p) {
                let jc = p / c;
                let mut u = 1u32;
                while u <= jc && u <= 64 {
                    if let Some(core) = c.checked_mul(u) {
                        if core.is_power_of_two() && core >= 2 && core <= p {
                            shapes.push(Shape::Clustered {
                                clusters: c,
                                cluster_inputs: jc,
                                uplinks: u,
                            });
                        }
                    }
                    u *= 2;
                }
            }
        }
        Family::MultiLane => {
            for i in divisors(p) {
                let size = p / i;
                if size.is_power_of_two() && size >= 2 {
                    for lanes in LANES {
                        shapes.push(Shape::MultiLane {
                            networks: i,
                            size,
                            lanes,
                        });
                    }
                }
            }
        }
    }
    shapes
}

/// Result of descending one shape's `r` axis.
struct Descent {
    candidate: Option<Candidate>,
    evaluated: u64,
    total: u64,
    inferred_fail: Vec<u32>,
    inferred_dominated: u64,
}

/// The smallest `r` in `[r_lo, r_cap]` that `feasible` accepts, or `None`,
/// given that every `r < r_lo` is infeasible.
///
/// `feasible` must be monotone in `r`, so the feasible region is an
/// interval `[min_r, r_cap]`. The floor `r_lo` is probed first and, if it
/// passes, is the exact answer. Otherwise a binary search over `[1, r_cap]`
/// locates the edge, answering every `r ≤ r_lo` infeasible without a probe,
/// so its probes above the floor are those of a search that ignores the
/// floor, in the same order. `r_cap` is probed only when the answer
/// depends on it: after the first midpoint fails. A passing midpoint
/// already proves `r_cap` feasible.
fn min_feasible_r(r_lo: u32, r_cap: u32, mut feasible: impl FnMut(u32) -> bool) -> Option<u32> {
    if feasible(r_lo) {
        return Some(r_lo);
    }
    let mut feasible = |r: u32| r > r_lo && feasible(r);
    let (mut lo, mut hi) = (1u32, r_cap);
    let mut cap_feasible = false;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if feasible(mid) {
            hi = mid;
        } else if cap_feasible || feasible(r_cap) {
            lo = mid + 1;
        } else {
            return None;
        }
        cap_feasible = true;
    }
    (cap_feasible || feasible(r_cap)).then_some(lo)
}

/// Searches the minimum feasible `r` of one shape.
///
/// Feasibility is monotone in `r`; constructibility (checked dimension
/// products) is anti-monotone, so the feasible region is an interval
/// `[min_r, r_cap]`. The saturation guard admits an interval too, from
/// the floor `r_lo` up, and a scan of it finds `r_lo` with no solve.
/// [`min_feasible_r`] then settles a shape that meets the target at its
/// floor with that one evaluation, and otherwise binary-searches with
/// `O(log r_max)` evaluations; `r_cap`, the shape's largest chain, is
/// solved only if the first midpoint fails. A shape the guard rejects at
/// `r_cap` has no floor and is settled by that one check.
fn descend_r(
    shape: &Shape,
    p: u32,
    r_max: u32,
    target: f64,
    cost_model: &CostModel,
    ev: &mut Evaluator,
) -> Descent {
    // Largest constructible r (dimension products are monotone in r).
    let mut r_cap = r_max;
    while r_cap >= 1 && shape.at_r(p, r_cap).is_none() {
        r_cap /= 2;
    }
    if r_cap == 0 {
        return Descent {
            candidate: None,
            evaluated: 0,
            total: 0,
            inferred_fail: Vec::new(),
            inferred_dominated: 0,
        };
    }
    let mut touched: BTreeSet<u32> = BTreeSet::new();
    let mut results: Vec<(u32, DelayOutcome)> = Vec::new();
    let mut eval_at = |r: u32, ev: &mut Evaluator| -> bool {
        let topo = shape.at_r(p, r).expect("r <= r_cap is constructible");
        let out = ev.evaluate(&topo);
        touched.insert(r);
        let ok = out.meets(target);
        results.push((r, out));
        ok
    };
    // Service capacity grows with r and circuit capacity does not depend
    // on it, so the guard fails every r below its floor.
    let r_lo = (1..=r_cap).find(|&r| {
        let topo = shape.at_r(p, r).expect("r <= r_cap is constructible");
        ev.stable_enough(&topo)
    });
    let min_r = match r_lo {
        Some(r_lo) => min_feasible_r(r_lo, r_cap, |r| eval_at(r, ev)),
        None => {
            // Counted as a guarded evaluation, as every guard rejection is.
            eval_at(r_cap, ev);
            None
        }
    };
    // Every r below the first feasible one fails; every r above it passes.
    let edge = min_r.unwrap_or(r_cap + 1);
    let inferred_fail: Vec<u32> = (1..edge).filter(|r| !touched.contains(r)).collect();
    let inferred_dominated = (edge + 1..=r_cap).filter(|r| !touched.contains(r)).count() as u64;
    let candidate = min_r.map(|min_r| {
        let delay = results
            .iter()
            .find_map(|(r, out)| match out {
                DelayOutcome::Value(v) if *r == min_r => Some(*v),
                _ => None,
            })
            .expect("the minimal feasible r was evaluated with a value");
        let topo = shape.at_r(p, min_r).expect("constructible");
        Candidate {
            cost: cost_model.cost(&topo),
            topo,
            delay,
        }
    });
    Descent {
        candidate,
        evaluated: touched.len() as u64,
        total: u64::from(r_cap),
        inferred_fail,
        inferred_dominated,
    }
}

/// The Pareto frontier of (cost, delay): cheapest first, each strictly
/// faster than every cheaper candidate.
fn pareto_frontier(mut candidates: Vec<Candidate>) -> Vec<Candidate> {
    candidates.sort_by(|a, b| {
        a.cost.total_cmp(&b.cost).then(
            a.delay
                .normalized_delay
                .total_cmp(&b.delay.normalized_delay),
        )
    });
    let mut frontier: Vec<Candidate> = Vec::new();
    for c in candidates {
        let dominated = frontier
            .iter()
            .any(|f| f.delay.normalized_delay <= c.delay.normalized_delay);
        if !dominated {
            frontier.push(c);
        }
    }
    frontier
}

fn confirm_winner(
    winner: &Candidate,
    profile: TrafficProfile,
    quality: EvalQuality,
    target: f64,
) -> Confirmation {
    let mut confirm_ev = Evaluator::new(profile, quality);
    match confirm_ev.evaluate_des(&winner.topo) {
        DelayOutcome::Value(v) => {
            let slack = v.half_width + 0.05 * winner.delay.normalized_delay.max(target);
            Confirmation {
                normalized_delay: v.normalized_delay,
                half_width: v.half_width,
                meets_target: v.normalized_delay <= target + slack,
                agrees_with_search: (v.normalized_delay - winner.delay.normalized_delay).abs()
                    <= slack,
            }
        }
        DelayOutcome::Saturated => Confirmation {
            normalized_delay: f64::INFINITY,
            half_width: 0.0,
            meets_target: false,
            agrees_with_search: false,
        },
    }
}

/// DES delay of the winner with one resource port held failed for the
/// whole run.
fn degraded_check(
    winner: &Candidate,
    profile: TrafficProfile,
    quality: EvalQuality,
    target: f64,
) -> Confirmation {
    let workload = profile.workload();
    let opts = quality.sim_options();
    let plan = FaultPlan::new().fail_at(SimTime::new(0.0), FaultTarget::Resource(0));
    let fopts = FaultOptions::default();
    let base = SimRng::new(EVAL_SEED ^ 0x00FA);
    let topo = winner.topo;
    let out = replicate_par(&base, quality.reps, 0.95, quality.jobs, |_, mut rng| {
        let mut net = build_network(&topo);
        match simulate_faulty(net.as_mut(), &workload, &opts, &plan, &fopts, &mut rng) {
            Ok(rep) => rep.normalized_delay(&workload),
            Err(_) => f64::INFINITY,
        }
    });
    let delay = out.mean();
    let half_width = out.interval.map_or(0.0, |ci| ci.half_width);
    let slack = half_width + 0.05 * winner.delay.normalized_delay.max(target);
    Confirmation {
        normalized_delay: delay,
        half_width,
        meets_target: delay <= target + slack,
        agrees_with_search: (delay - winner.delay.normalized_delay).abs() <= slack,
    }
}

/// Runs a full provisioning search.
///
/// # Errors
///
/// [`ConfigError::Invalid`] for an invalid spec (bad rates, empty family
/// list, zero resource budget, invalid cost model).
pub fn search(spec: &SearchSpec) -> Result<SearchReport, ConfigError> {
    if spec.families.is_empty() {
        return Err(ConfigError::Invalid {
            what: "need at least one family to search".into(),
        });
    }
    if spec.max_resources_per_port == 0 {
        return Err(ConfigError::Invalid {
            what: "need a positive resource budget".into(),
        });
    }
    if !spec.cost_model.is_valid() {
        return Err(ConfigError::Invalid {
            what: "cost model prices must be finite and non-negative".into(),
        });
    }
    let profile = TrafficProfile::reference(spec.processors, spec.rho, spec.ratio)?;
    if !(spec.target.is_finite() && spec.target > 0.0) {
        return Err(ConfigError::Invalid {
            what: format!(
                "delay target must be positive and finite, got {}",
                spec.target
            ),
        });
    }
    let mut ev = Evaluator::new(profile, spec.quality);
    let mut candidates = Vec::new();
    let mut total_configs = 0u64;
    let mut evaluated = 0u64;
    let mut pruned_infeasible = 0u64;
    let mut pruned_dominated = 0u64;
    let mut pruned_examples: Vec<CandidateTopology> = Vec::new();
    let mut families = spec.families.clone();
    families.dedup();
    for family in families {
        for shape in shapes_for(family, spec.processors) {
            let d = descend_r(
                &shape,
                spec.processors,
                spec.max_resources_per_port,
                spec.target,
                &spec.cost_model,
                &mut ev,
            );
            total_configs += d.total;
            evaluated += d.evaluated;
            pruned_infeasible += d.inferred_fail.len() as u64;
            pruned_dominated += d.inferred_dominated;
            // Keep a small spread of pruned configs per shape for auditing.
            for &r in d.inferred_fail.iter().rev().take(2) {
                if pruned_examples.len() < 16 {
                    if let Some(t) = shape.at_r(spec.processors, r) {
                        pruned_examples.push(t);
                    }
                }
            }
            candidates.extend(d.candidate);
        }
    }
    let frontier = pareto_frontier(candidates);
    // Cheapest feasible overall; the frontier is cost-sorted, and its
    // first entry has the lowest cost (ties resolved to lower delay by
    // the frontier's sort).
    let winner = frontier.first().copied();
    let confirmation = match (&winner, spec.confirm) {
        (Some(w), Some(q)) => Some(confirm_winner(w, profile, q, spec.target)),
        _ => None,
    };
    let degraded = match (&winner, spec.fault_recheck) {
        (Some(w), true) => Some(degraded_check(
            w,
            profile,
            spec.confirm.unwrap_or(spec.quality),
            spec.target,
        )),
        _ => None,
    };
    Ok(SearchReport {
        processors: spec.processors,
        target: spec.target,
        frontier,
        winner,
        confirmation,
        degraded,
        total_configs,
        evaluated,
        pruned_infeasible,
        pruned_dominated,
        pruned_examples,
        eval: ev.counters(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::Method;

    fn sbus_spec(p: u32, rho: f64, ratio: f64, target: f64) -> SearchSpec {
        let mut spec = SearchSpec::new(p, rho, ratio, target).expect("valid spec");
        spec.families = vec![Family::Sbus];
        spec.confirm = None;
        spec.max_resources_per_port = 16;
        spec
    }

    #[test]
    fn divisors_are_complete_and_sorted() {
        assert_eq!(divisors(16), vec![1, 2, 4, 8, 16]);
        assert_eq!(divisors(1), vec![1]);
        assert_eq!(divisors(12), vec![1, 2, 3, 4, 6, 12]);
    }

    #[test]
    fn sbus_search_finds_a_partitioned_winner_on_the_reference_grid() {
        // Self-calibrating acceptance check near the paper's p=16, R=32
        // point: take the delay of the known-good fully partitioned
        // 16/16x1x1 SBUS/2 system as the SLO. The single shared bus is
        // far slower at this load (Fig. 4's separation), so the winner
        // must be a multi-bus SBUS config at least as cheap as the
        // reference.
        let profile = TrafficProfile::reference(16, 0.3, 0.1).expect("valid");
        let mut ev = Evaluator::new(profile, EvalQuality::quick(1));
        let reference = classic(16, 16, NetworkKind::SharedBus, 1, 1, 2).expect("valid");
        let DelayOutcome::Value(ref_delay) = ev.evaluate(&reference) else {
            panic!("reference config must be stable at rho=0.3");
        };
        let target = ref_delay.normalized_delay * 1.05;
        let spec = sbus_spec(16, 0.3, 0.1, target);
        let report = search(&spec).expect("search runs");
        let winner = report.winner.expect("a feasible config exists");
        assert_eq!(winner.topo.family_token(), "SBUS");
        assert!(winner.delay.normalized_delay <= target);
        assert!(
            winner.cost <= spec.cost_model.cost(&reference),
            "winner {} costs {} > reference {}",
            winner.topo,
            winner.cost,
            spec.cost_model.cost(&reference)
        );
        let CandidateTopology::Classic(cfg) = winner.topo else {
            panic!("SBUS family yields classic configs");
        };
        assert!(
            cfg.networks() > 1,
            "a single bus cannot meet the partitioned reference's delay"
        );
        // Everything went through the analytic chain.
        assert_eq!(report.eval.des, 0);
        assert!(report.evaluated > 0);
        assert!(report.pruned_fraction() > 0.0, "binary search must prune");
    }

    #[test]
    fn pruned_examples_are_actually_infeasible() {
        // Monotone-pruning soundness: every config the search skipped as
        // inferred-infeasible must really fail the SLO when evaluated.
        let profile = TrafficProfile::reference(16, 0.3, 0.1).expect("valid");
        let mut ev = Evaluator::new(profile, EvalQuality::quick(1));
        let reference = classic(16, 16, NetworkKind::SharedBus, 1, 1, 4).expect("valid");
        let DelayOutcome::Value(ref_delay) = ev.evaluate(&reference) else {
            panic!("reference config must be stable");
        };
        // A tight target forces failures low on each r axis.
        let target = ref_delay.normalized_delay * 1.01;
        let spec = sbus_spec(16, 0.3, 0.1, target);
        let report = search(&spec).expect("search runs");
        assert!(
            !report.pruned_examples.is_empty(),
            "a tight target must prune something"
        );
        let mut audit = Evaluator::new(profile, EvalQuality::quick(1));
        for topo in &report.pruned_examples {
            assert!(
                !audit.evaluate(topo).meets(target),
                "pruned config {topo} actually meets the SLO"
            );
        }
    }

    /// The probe order `min_feasible_r` replaced: a binary search over
    /// `[1, r_cap]` that probes `r_cap` after the first failing midpoint and
    /// knows nothing of the guard's floor.
    fn min_feasible_r_without_floor(
        r_cap: u32,
        mut feasible: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        let (mut lo, mut hi) = (1u32, r_cap);
        let mut cap_feasible = false;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if feasible(mid) {
                hi = mid;
            } else if cap_feasible || feasible(r_cap) {
                lo = mid + 1;
            } else {
                return None;
            }
            cap_feasible = true;
        }
        (cap_feasible || feasible(r_cap)).then_some(lo)
    }

    #[test]
    fn r_axis_search_settles_at_the_floor_and_keeps_the_old_midpoints() {
        for r_cap in 1..=64u32 {
            for r_lo in 1..=r_cap {
                // Feasible from threshold t on, and never below the floor;
                // t = r_cap + 1 is a hopeless shape.
                for t in 1..=r_cap + 1 {
                    let feasible = |r: u32| r >= t.max(r_lo);
                    let mut probes = Vec::new();
                    let got = min_feasible_r(r_lo, r_cap, |r| {
                        probes.push(r);
                        feasible(r)
                    });
                    let mut oracle_probes = Vec::new();
                    let want = min_feasible_r_without_floor(r_cap, |r| {
                        oracle_probes.push(r);
                        feasible(r)
                    });
                    let case = format!(
                        "r_cap {r_cap}, r_lo {r_lo}, threshold {t}: \
                         {probes:?} vs {oracle_probes:?}"
                    );
                    assert_eq!(got, want, "{case}");
                    let edge = t.max(r_lo);
                    assert_eq!(got, (edge <= r_cap).then_some(edge), "{case}");
                    let mut want_probes = vec![r_lo];
                    if t > r_lo {
                        want_probes.extend(oracle_probes.iter().filter(|&&r| r > r_lo));
                    }
                    assert_eq!(probes, want_probes, "{case}");
                    if let Some(pass) = probes.iter().position(|&r| r < r_cap && r >= edge) {
                        assert!(
                            !probes[pass..].contains(&r_cap),
                            "r_cap probed after a smaller r passed: {case}"
                        );
                    }
                    let set: BTreeSet<u32> = probes.iter().copied().collect();
                    assert_eq!(set.len(), probes.len(), "an r probed twice: {case}");
                }
            }
        }
    }

    #[test]
    fn skipped_cap_solves_are_actually_feasible() {
        // The descent no longer solves r_cap once a smaller r passes; it
        // infers r_cap feasible by monotonicity. Audit that inference:
        // every shape with a candidate meets the SLO at its r_cap.
        let spec = sbus_spec(16, 0.3, 0.1, 1.0);
        let profile = TrafficProfile::reference(16, 0.3, 0.1).expect("valid");
        let mut search_ev = Evaluator::new(profile, spec.quality);
        let (mut audited, mut skipped) = (0, 0);
        for shape in shapes_for(Family::Sbus, 16) {
            let d = descend_r(
                &shape,
                16,
                spec.max_resources_per_port,
                spec.target,
                &spec.cost_model,
                &mut search_ev,
            );
            let Some(c) = d.candidate else { continue };
            // The axis holds r = 1..=r_cap.
            let r_cap = u32::try_from(d.total).expect("r_cap fits u32");
            let cap = shape.at_r(16, r_cap).expect("constructible");
            let mut fresh = Evaluator::new(profile, EvalQuality::quick(1));
            assert!(
                fresh.evaluate(&cap).meets(spec.target),
                "{cap} misses the SLO, yet {} was feasible",
                c.topo
            );
            audited += 1;
            // A minimum at or below the first midpoint means r_cap was
            // never solved during the descent.
            if c.topo.resources_per_port() <= 1 + (r_cap - 1) / 2 {
                skipped += 1;
            }
        }
        assert_eq!(
            audited, 5,
            "every p = 16 SBUS shape meets d·µs <= 1 somewhere"
        );
        assert!(skipped >= 1, "no shape skipped its r_cap solve");
    }

    #[test]
    fn frontier_is_pareto_and_cost_sorted() {
        let spec = sbus_spec(16, 0.3, 0.1, 5.0);
        let report = search(&spec).expect("search runs");
        let f = &report.frontier;
        assert!(!f.is_empty());
        for w in f.windows(2) {
            assert!(w[0].cost <= w[1].cost, "frontier must be cost-sorted");
            assert!(
                w[0].delay.normalized_delay > w[1].delay.normalized_delay,
                "paying more must buy strictly lower delay on the frontier"
            );
        }
        assert!(report.winner.is_some());
    }

    #[test]
    fn confirmation_checks_the_winner_by_des() {
        let mut spec = sbus_spec(8, 0.3, 0.1, 2.0);
        spec.confirm = Some(EvalQuality {
            warmup: 200,
            measured: 2_000,
            reps: 3,
            jobs: 1,
        });
        spec.fault_recheck = true;
        let report = search(&spec).expect("search runs");
        let conf = report.confirmation.expect("confirmation requested");
        assert!(conf.half_width >= 0.0);
        assert!(
            conf.agrees_with_search,
            "DES {} vs analytic {} disagree beyond tolerance",
            conf.normalized_delay,
            report.winner.expect("winner").delay.normalized_delay
        );
        let degraded = report.degraded.expect("fault recheck requested");
        // One failed port costs capacity, so degraded delay can only be
        // worse than or close to the healthy figure.
        assert!(degraded.normalized_delay + 1e-9 >= conf.normalized_delay - conf.half_width);
    }

    #[test]
    fn winner_method_tokens_are_stable() {
        assert_eq!(Method::SbusChain.token(), "sbus-chain");
        assert_eq!("clx".parse::<Family>().expect("ok"), Family::Clustered);
        assert!("bogus".parse::<Family>().is_err());
    }

    #[test]
    fn spec_validation_rejects_nonsense() {
        assert!(SearchSpec::new(0, 0.3, 0.1, 1.0).is_err());
        assert!(SearchSpec::new(16, 1.5, 0.1, 1.0).is_err());
        assert!(SearchSpec::new(16, 0.3, -0.1, 1.0).is_err());
        assert!(SearchSpec::new(16, 0.3, 0.1, 0.0).is_err());
        let mut spec = SearchSpec::new(16, 0.3, 0.1, 1.0).expect("valid");
        spec.families.clear();
        assert!(search(&spec).is_err());
        let mut spec2 = SearchSpec::new(16, 0.3, 0.1, 1.0).expect("valid");
        spec2.max_resources_per_port = 0;
        assert!(search(&spec2).is_err());
    }
}
