//! Configuration design: sizing a shared-bus system to a delay target.
//!
//! The paper frames its results as a designer's guide ("the performance
//! results we have obtained can guide the designers in selecting the
//! appropriate configuration") and cites Briggs et al.'s PUMPS throughput
//! analysis for choosing resource counts. This module answers the two
//! concrete sizing questions the exact chain makes cheap:
//!
//! * the **fewest resources** per bus that meet a normalized-delay target;
//! * the **fewest partitions** of a processor pool that meet the target with
//!   a fixed total resource budget.

use crate::error::SolveError;
use crate::mm1::Mm1;
use crate::sbus::{SharedBusChain, SharedBusParams};

/// Result of a sizing search.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sizing {
    /// The chosen parameter (resources per bus, or partitions).
    pub chosen: u32,
    /// Normalized delay achieved at the chosen size.
    pub achieved: f64,
}

/// Finds the smallest `r` (resources on one bus of `processors`) whose
/// normalized queueing delay is at most `target`, searching `1..=max_r`.
///
/// # Errors
///
/// [`SolveError::BadParameter`] if no `r ≤ max_r` meets the target (the bus
/// itself may be the bottleneck, in which case adding resources cannot
/// help — the Fig. 5 regime).
pub fn min_resources_for_delay(
    processors: u32,
    lambda: f64,
    mu_n: f64,
    mu_s: f64,
    target: f64,
    max_r: u32,
) -> Result<Sizing, SolveError> {
    if !(target.is_finite() && target > 0.0) {
        return Err(SolveError::BadParameter {
            what: "delay target must be positive",
        });
    }
    // Fast infeasibility check: with infinitely many resources the bus is an
    // M/M/1 queue, a lower bound on delay for every finite r. If even that
    // misses the target, no resource count can help (the Fig. 5 regime).
    match Mm1::new(processors as f64 * lambda, mu_n) {
        Ok(bus) => {
            if bus.mean_wait_in_queue() * mu_s > target {
                return Err(SolveError::BadParameter {
                    what: "the bus alone exceeds the delay target; add buses, not resources",
                });
            }
        }
        Err(_) => {
            return Err(SolveError::BadParameter {
                what: "the bus is saturated; no resource count can stabilize it",
            });
        }
    }
    for r in 1..=max_r {
        let params = SharedBusParams {
            processors,
            resources: r,
            lambda,
            mu_n,
            mu_s,
        };
        let sol = match SharedBusChain::new(params).and_then(|c| c.solve()) {
            Ok(sol) => sol,
            Err(SolveError::Unstable { .. }) => continue,
            Err(e) => return Err(e),
        };
        if sol.normalized_delay <= target {
            return Ok(Sizing {
                chosen: r,
                achieved: sol.normalized_delay,
            });
        }
    }
    Err(SolveError::BadParameter {
        what: "no resource count within the budget meets the delay target",
    })
}

/// Finds the smallest number of equal partitions of `processors` processors
/// and `total_resources` resources (both must divide evenly) whose
/// normalized delay meets `target`.
///
/// # Errors
///
/// [`SolveError::BadParameter`] if no divisor configuration meets the
/// target.
pub fn min_partitions_for_delay(
    processors: u32,
    total_resources: u32,
    lambda: f64,
    mu_n: f64,
    mu_s: f64,
    target: f64,
) -> Result<Sizing, SolveError> {
    if !(target.is_finite() && target > 0.0) {
        return Err(SolveError::BadParameter {
            what: "delay target must be positive",
        });
    }
    for parts in 1..=processors {
        if !processors.is_multiple_of(parts) || !total_resources.is_multiple_of(parts) {
            continue;
        }
        let params = SharedBusParams {
            processors: processors / parts,
            resources: total_resources / parts,
            lambda,
            mu_n,
            mu_s,
        };
        let sol = match SharedBusChain::new(params).and_then(|c| c.solve()) {
            Ok(sol) => sol,
            Err(SolveError::Unstable { .. }) => continue,
            Err(e) => return Err(e),
        };
        if sol.normalized_delay <= target {
            return Ok(Sizing {
                chosen: parts,
                achieved: sol.normalized_delay,
            });
        }
    }
    Err(SolveError::BadParameter {
        what: "no partitioning meets the delay target",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_demanding_targets_need_more_resources() {
        let (p, lam, mu_n, mu_s) = (1, 0.8, 10.0, 1.0);
        let loose = min_resources_for_delay(p, lam, mu_n, mu_s, 0.5, 32).expect("feasible");
        let tight = min_resources_for_delay(p, lam, mu_n, mu_s, 0.05, 32).expect("feasible");
        assert!(tight.chosen >= loose.chosen);
        assert!(tight.achieved <= 0.05);
        assert!(loose.achieved <= 0.5);
    }

    #[test]
    fn sizing_is_minimal() {
        let s = min_resources_for_delay(1, 0.8, 10.0, 1.0, 0.1, 32).expect("feasible");
        assert!(s.chosen >= 1);
        if s.chosen > 1 {
            // One fewer resource must miss the target (or be unstable).
            let worse = SharedBusChain::new(SharedBusParams {
                processors: 1,
                resources: s.chosen - 1,
                lambda: 0.8,
                mu_n: 10.0,
                mu_s: 1.0,
            })
            .and_then(|c| c.solve());
            match worse {
                Ok(sol) => assert!(sol.normalized_delay > 0.1),
                Err(SolveError::Unstable { .. }) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    }

    #[test]
    fn bus_bound_targets_are_infeasible() {
        // mu_s/mu_n = 1: the bus saturates; no resource count can push the
        // delay near zero.
        let err = min_resources_for_delay(16, 0.06, 1.0, 1.0, 0.001, 64);
        assert!(matches!(err, Err(SolveError::BadParameter { .. })));
    }

    #[test]
    fn partitioning_search_prefers_fewest_partitions() {
        // 16 processors, 32 resources, ratio 0.1: one partition saturates
        // (the single bus), but a small number of partitions suffices.
        let s = min_partitions_for_delay(16, 32, 0.05, 10.0, 1.0, 0.05).expect("feasible");
        assert!(s.chosen >= 1 && 16 % s.chosen == 0);
        assert!(s.achieved <= 0.05);
    }

    #[test]
    fn rejects_bad_target() {
        assert!(min_resources_for_delay(1, 0.1, 1.0, 1.0, 0.0, 8).is_err());
        assert!(min_partitions_for_delay(4, 8, 0.1, 1.0, 1.0, -1.0).is_err());
    }
}
