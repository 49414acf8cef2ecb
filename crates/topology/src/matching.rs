//! Processor-to-resource matching through a blocking network.
//!
//! Section II of the paper shows that in an 8×8 Omega network with
//! processors {0, 1, 2} requesting and resources {0, 1, 2} free, some
//! processor→resource mappings allocate all three resources while others can
//! allocate at most two: the *scheduler* determines the achievable resource
//! utilization, which motivates distributed scheduling that can search
//! alternate resources when a path is blocked.
//!
//! This module provides the centralized baselines:
//!
//! * [`max_allocation`] — exhaustive branch-and-bound over ordered mappings
//!   (the paper's "`(x choose y)·y!` mappings" enumeration), optimal but
//!   exponential: practical only when few processors request simultaneously.
//! * [`greedy_allocation`] — first-fit heuristic, linear in requests ×
//!   resources; what a simple hardware allocator would do.
//!
//! All three hold their circuits in a one-lane [`LinkFabric`], as the
//! simulated networks do.

use crate::multistage::{LinkFabric, Multistage};

/// The outcome of a matching attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Allocation {
    /// Chosen (processor, resource-port) pairs, conflict-free by
    /// construction.
    pub pairs: Vec<(usize, usize)>,
}

impl Allocation {
    /// Number of granted requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether nothing was granted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// Checks that a specific mapping is realizable (no shared links).
///
/// # Panics
///
/// Panics if any port index is out of range for the network.
#[must_use]
pub fn mapping_is_conflict_free(net: &dyn Multistage, pairs: &[(usize, usize)]) -> bool {
    let mut held = LinkFabric::new(net, 1, 1);
    pairs.iter().all(|&(s, d)| {
        let route = net.route(s, d);
        let free = held.route_free(0, &route);
        if free {
            held.claim(0, &route);
        }
        free
    })
}

/// Exhaustive optimal matching: the maximum number of requesting processors
/// that can be simultaneously connected to distinct free resource ports.
///
/// Runs a branch-and-bound over assignment choices (including "skip this
/// requester"), pruning branches that cannot beat the incumbent. Complexity
/// grows like the paper's `(x choose y)·y!`, so keep `requesters` and
/// `free_ports` small (≤ 8 is instant).
///
/// # Panics
///
/// Panics if any port index is out of range.
#[must_use]
pub fn max_allocation(
    net: &dyn Multistage,
    requesters: &[usize],
    free_ports: &[usize],
) -> Allocation {
    struct Search<'a> {
        net: &'a dyn Multistage,
        requesters: &'a [usize],
        free_ports: &'a [usize],
        used: Vec<bool>,
        held: LinkFabric,
        pairs: Vec<(usize, usize)>,
        best: Vec<(usize, usize)>,
    }

    impl Search<'_> {
        fn recurse(&mut self, i: usize) {
            if self.pairs.len() + (self.requesters.len() - i) <= self.best.len() {
                return; // cannot beat incumbent
            }
            if i == self.requesters.len() {
                if self.pairs.len() > self.best.len() {
                    self.best = self.pairs.clone();
                }
                return;
            }
            let src = self.requesters[i];
            for j in 0..self.free_ports.len() {
                if self.used[j] {
                    continue;
                }
                let route = self.net.route(src, self.free_ports[j]);
                if !self.held.route_free(0, &route) {
                    continue;
                }
                self.used[j] = true;
                self.held.claim(0, &route);
                self.pairs.push((src, self.free_ports[j]));
                self.recurse(i + 1);
                self.pairs.pop();
                self.held.release(0, &route);
                self.used[j] = false;
            }
            // Also consider leaving this requester unserved.
            self.recurse(i + 1);
        }
    }

    let mut search = Search {
        net,
        requesters,
        free_ports,
        used: vec![false; free_ports.len()],
        held: LinkFabric::new(net, 1, 1),
        pairs: Vec::new(),
        best: Vec::new(),
    };
    search.recurse(0);
    Allocation { pairs: search.best }
}

/// First-fit greedy matching: requesters in order, each taking the first
/// free resource port whose route does not conflict with routes already
/// granted.
///
/// # Panics
///
/// Panics if any port index is out of range.
#[must_use]
pub fn greedy_allocation(
    net: &dyn Multistage,
    requesters: &[usize],
    free_ports: &[usize],
) -> Allocation {
    let mut used = vec![false; free_ports.len()];
    let mut held = LinkFabric::new(net, 1, 1);
    let mut pairs = Vec::new();
    for &src in requesters {
        for (j, &port) in free_ports.iter().enumerate() {
            if used[j] {
                continue;
            }
            let route = net.route(src, port);
            if !held.route_free(0, &route) {
                continue;
            }
            used[j] = true;
            held.claim(0, &route);
            pairs.push((src, port));
            break;
        }
    }
    Allocation { pairs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multistage::{CubeTopology, OmegaTopology, Route};

    /// Whether some two of `pairs`' routes share a link, by pairwise scan.
    fn pairwise_conflict(net: &dyn Multistage, pairs: &[(usize, usize)]) -> bool {
        let routes: Vec<Route> = pairs.iter().map(|&(s, d)| net.route(s, d)).collect();
        (0..routes.len())
            .any(|i| (i + 1..routes.len()).any(|j| routes[i].conflicts_with(&routes[j])))
    }

    /// The held-link fabric must decide exactly as the pairwise route scan:
    /// for whole mappings, and for first-fit matching step by step.
    #[test]
    fn fabric_matches_the_pairwise_route_oracle() {
        let mut seed = 0x3a7cu64;
        let mut next = move |n: usize| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as usize % n
        };
        let nets: [Box<dyn Multistage>; 4] = [
            Box::new(OmegaTopology::new(8).expect("8x8")),
            Box::new(OmegaTopology::new(16).expect("16x16")),
            Box::new(CubeTopology::new(8).expect("8x8")),
            Box::new(CubeTopology::new(16).expect("16x16")),
        ];
        for net in &nets {
            let n = net.size();
            for _ in 0..300 {
                let pairs: Vec<(usize, usize)> =
                    (0..1 + next(5)).map(|_| (next(n), next(n))).collect();
                assert_eq!(
                    mapping_is_conflict_free(net.as_ref(), &pairs),
                    !pairwise_conflict(net.as_ref(), &pairs),
                    "{pairs:?}"
                );
                let requesters: Vec<usize> = (0..n).filter(|_| next(2) == 0).collect();
                let free: Vec<usize> = (0..n).filter(|_| next(2) == 0).collect();
                let mut want: Vec<(usize, usize)> = Vec::new();
                for &src in &requesters {
                    let taken = |port| want.iter().any(|&(_, d)| d == port);
                    if let Some(&port) = free.iter().find(|&&port| {
                        let mut with = want.clone();
                        with.push((src, port));
                        !taken(port) && !pairwise_conflict(net.as_ref(), &with)
                    }) {
                        want.push((src, port));
                    }
                }
                assert_eq!(
                    greedy_allocation(net.as_ref(), &requesters, &free).pairs,
                    want
                );
            }
        }
    }

    /// The paper's Section II example: 8×8 Omega, processors 0,1,2
    /// requesting, resources 0,1,2 available.
    #[test]
    fn paper_section2_good_mappings_allocate_all_three() {
        let net = OmegaTopology::new(8).expect("8x8");
        for mapping in [
            [(0, 0), (1, 1), (2, 2)],
            [(0, 1), (1, 0), (2, 2)],
            [(0, 2), (1, 0), (2, 1)],
            [(0, 2), (1, 1), (2, 0)],
        ] {
            assert!(
                mapping_is_conflict_free(&net, &mapping),
                "paper says {mapping:?} is realizable"
            );
        }
    }

    #[test]
    fn paper_section2_bad_mappings_block() {
        let net = OmegaTopology::new(8).expect("8x8");
        for mapping in [[(0, 0), (1, 2), (2, 1)], [(0, 1), (1, 2), (2, 0)]] {
            assert!(
                !mapping_is_conflict_free(&net, &mapping),
                "paper says {mapping:?} blocks"
            );
        }
    }

    #[test]
    fn optimal_matching_finds_all_three() {
        let net = OmegaTopology::new(8).expect("8x8");
        let alloc = max_allocation(&net, &[0, 1, 2], &[0, 1, 2]);
        assert_eq!(alloc.len(), 3, "a full allocation exists per the paper");
        assert!(mapping_is_conflict_free(&net, &alloc.pairs));
    }

    #[test]
    fn bad_mapping_order_limits_greedy_but_not_optimal() {
        // Greedy in identity order happens to succeed here; force the bad
        // case by offering resources in an order that leads greedy astray.
        let net = OmegaTopology::new(8).expect("8x8");
        // With resources offered as [0, 2, 1]: P0 takes 0, P1 takes 2
        // (0 is used), P2 tries 1 — the paper's blocked mapping
        // {(0,0),(1,2),(2,1)}.
        let greedy = greedy_allocation(&net, &[0, 1, 2], &[0, 2, 1]);
        let optimal = max_allocation(&net, &[0, 1, 2], &[0, 2, 1]);
        assert_eq!(optimal.len(), 3);
        assert!(greedy.len() <= optimal.len());
    }

    #[test]
    fn empty_inputs_give_empty_allocation() {
        let net = OmegaTopology::new(8).expect("8x8");
        assert!(max_allocation(&net, &[], &[0, 1]).is_empty());
        assert!(greedy_allocation(&net, &[0, 1], &[]).is_empty());
    }

    #[test]
    fn more_requesters_than_resources() {
        let net = OmegaTopology::new(8).expect("8x8");
        let alloc = max_allocation(&net, &[0, 1, 2, 3, 4], &[6, 7]);
        assert!(alloc.len() <= 2);
        assert!(!alloc.is_empty());
        assert!(mapping_is_conflict_free(&net, &alloc.pairs));
    }

    #[test]
    fn greedy_never_produces_conflicts() {
        let net = OmegaTopology::new(16).expect("16x16");
        let alloc = greedy_allocation(&net, &[0, 3, 5, 9, 12], &[1, 2, 8, 10, 15]);
        assert!(mapping_is_conflict_free(&net, &alloc.pairs));
    }

    #[test]
    fn optimal_at_least_as_good_as_greedy_random_cases() {
        let net = OmegaTopology::new(8).expect("8x8");
        // Deterministic pseudo-random subsets.
        let mut seed = 12345u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as usize
        };
        for _ in 0..50 {
            let reqs: Vec<usize> = (0..8).filter(|_| next() % 2 == 0).collect();
            let free: Vec<usize> = (0..8).filter(|_| next() % 2 == 0).collect();
            let g = greedy_allocation(&net, &reqs, &free);
            let o = max_allocation(&net, &reqs, &free);
            assert!(
                o.len() >= g.len(),
                "optimal {} < greedy {}",
                o.len(),
                g.len()
            );
            assert!(o.len() <= reqs.len().min(free.len()));
        }
    }
}
