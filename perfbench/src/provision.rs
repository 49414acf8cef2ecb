//! `provision_search` legs, and the probes of the analytic queueing layer
//! they and the figures stand on.

use rsin_bench::manifest::fnv1a64;
use rsin_bench::provision_bench::frontier_csv;
use rsin_provision::{
    search, EvalQuality, Evaluator, Family, SearchReport, SearchSpec, TrafficProfile,
};
use rsin_queueing::{
    SharedBusChain, SharedBusParams, SmallCrossbarChain, SmallCrossbarParams, SolveError,
};
use std::time::Instant;

/// Recorded frontier-CSV digests, one line per leg.
const DIGESTS: &str = include_str!("../digests/provision.txt");

/// The load point of every leg: the `provision` command's defaults.
const RHO: f64 = 0.3;
const RATIO: f64 = 0.1;
const TARGET: f64 = 1.0;

/// One search leg.
#[derive(Clone, Copy, Debug)]
pub struct Leg {
    pub name: &'static str,
    pub processors: u32,
    pub families: &'static [Family],
    pub max_r: u32,
}

/// The measured legs. The `p16` leg (`sbus,xbar`, max r 16) is left out:
/// one of its crossbar chains alone runs about a minute; the queueing probe
/// times that chain instead.
pub const LEGS: [Leg; 2] = [
    Leg {
        name: "p8",
        processors: 8,
        families: &[Family::Sbus, Family::Xbar, Family::Omega],
        max_r: 16,
    },
    Leg {
        name: "p1024",
        processors: 1024,
        families: &[Family::Sbus],
        max_r: 64,
    },
];

/// The leg's search spec on one worker, DES confirmation on or off.
pub fn spec(leg: &Leg, confirm: bool) -> SearchSpec {
    let mut spec = SearchSpec::new(leg.processors, RHO, RATIO, TARGET).expect("valid leg");
    spec.families = leg.families.to_vec();
    spec.max_resources_per_port = leg.max_r;
    spec.quality = EvalQuality::quick(1);
    spec.confirm = confirm.then(|| EvalQuality::confirm(1));
    spec
}

/// A finished leg.
#[derive(Debug)]
pub struct LegRun {
    pub secs: f64,
    pub report: SearchReport,
    pub csv_digest: u64,
}

impl LegRun {
    /// The winner was confirmed by DES to meet the target.
    pub fn confirmed(&self) -> bool {
        self.report.confirmation.is_some_and(|c| c.meets_target)
    }
}

pub fn run_leg(spec: &SearchSpec) -> LegRun {
    let t0 = Instant::now();
    let report = search(spec).expect("leg spec validated at construction");
    let secs = t0.elapsed().as_secs_f64();
    let csv_digest = fnv1a64(frontier_csv(&report).as_bytes());
    LegRun {
        secs,
        report,
        csv_digest,
    }
}

/// The recorded frontier digest of a leg.
pub fn recorded(leg: &str) -> Option<u64> {
    DIGESTS.lines().find_map(|line| {
        let (name, hex) = line.split_once(' ')?;
        (name == leg).then(|| u64::from_str_radix(hex.trim(), 16).ok())?
    })
}

/// Seconds for DES to re-evaluate a leg's winner at confirmation effort,
/// and whether it met the target.
pub fn confirm_winner(leg: &Leg, report: &SearchReport) -> Option<(f64, bool)> {
    let winner = report.winner?;
    let profile = TrafficProfile::reference(leg.processors, RHO, RATIO).expect("valid leg");
    let mut eval = Evaluator::new(profile, EvalQuality::confirm(1));
    let t0 = Instant::now();
    let outcome = eval.evaluate_des(&winner.topo);
    Some((t0.elapsed().as_secs_f64(), outcome.meets(TARGET)))
}

/// Cold shared-bus chain solves over the Figs. 4 and 5 grid: `(solves,
/// seconds)`. Bypasses the process-wide cache on purpose.
pub fn sbus_grid_solves() -> (u64, f64) {
    const SERIES: [(u32, u32); 6] = [(16, 32), (8, 16), (2, 4), (1, 2), (1, 3), (1, 4)];
    let mut solves = 0;
    let mut secs = 0.0;
    for ratio in [0.1, 1.0] {
        for (procs, res) in SERIES {
            for rho in rsin_bench::figures::rho_grid() {
                let w = rsin_bench::figures::workload_at(rho, ratio);
                let params = SharedBusParams {
                    processors: procs,
                    resources: res,
                    lambda: w.lambda(),
                    mu_n: w.mu_n(),
                    mu_s: w.mu_s(),
                };
                let t0 = Instant::now();
                let ok = SharedBusChain::new(params).and_then(|c| c.solve()).is_ok();
                secs += t0.elapsed().as_secs_f64();
                if !ok {
                    break; // saturated: the figure's curve ends here
                }
                solves += 1;
            }
        }
    }
    (solves, secs)
}

/// Crossbar chain shapes `(p of the leg, procs, buses, r)` that the `p8`
/// and `p16` searches solve with `k ≤ 3` buses: each full-width shape at
/// one `r` its descent visits, and for `16x3` the `r = 3` chain that runs
/// into the iteration cap.
pub const XBAR_SHAPES: [(u32, u32, u32, u32); 6] = [
    (8, 8, 1, 8),
    (8, 8, 2, 4),
    (8, 8, 3, 4),
    (16, 16, 1, 16),
    (16, 16, 2, 8),
    (16, 16, 3, 3),
];

/// One cold crossbar chain solve under its leg's profile: `(seconds,
/// converged)`. An unstable chain counts as converged (the search treats
/// it as saturated by design, not by failure).
pub fn xbar_chain_solve(leg_p: u32, procs: u32, buses: u32, r: u32) -> (f64, bool) {
    let profile = TrafficProfile::reference(leg_p, RHO, RATIO).expect("valid leg");
    let params = SmallCrossbarParams {
        processors: procs,
        buses,
        resources_per_bus: r,
        lambda: profile.lambda,
        mu_n: profile.mu_n,
        mu_s: profile.mu_s,
    };
    let t0 = Instant::now();
    let result = SmallCrossbarChain::new(params).and_then(|c| c.solve());
    let secs = t0.elapsed().as_secs_f64();
    (
        secs,
        !matches!(result, Err(SolveError::NoConvergence { .. })),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_leg_has_a_recorded_digest() {
        for leg in LEGS {
            assert!(recorded(leg.name).is_some(), "{}", leg.name);
        }
        assert!(recorded("p3").is_none());
    }
}
