//! Exact Markov chain for multiple shared buses with *very small* `m`
//! (Section IV).
//!
//! "A Markovian analysis similar to that of the single bus is difficult due
//! to the extensive number of states. For a system with m buses and r
//! resources on each bus, the number of states in each stage is (r+1)^m.
//! The analysis method shown in the last section can only be applied when m
//! is very small." This module is that analysis: the state is
//!
//! ```text
//! ( ℓ queued , t_1..t_m transmitting flags , s_1..s_m busy resources )
//! ```
//!
//! with `(r+1)^m · 2^m` states per queue level, built on the generic sparse
//! [`Ctmc`](crate::Ctmc) solver with a finite queue cap.
//!
//! One modelling note: the chain pools all queued tasks, i.e. it assumes a
//! queued task may be dispatched to any free bus. That is exact when the
//! queue never holds two tasks of the same processor — a good approximation
//! for `p ≫ m` at moderate load, and exactly the regime the paper's
//! crossbar figures study (p = 16, m ≤ 4 buses per partition). Dispatch is
//! fixed-priority (lowest bus index), matching the hardware's asymmetric
//! wave.

use crate::error::SolveError;
use crate::markov::Ctmc;

/// Largest bus count the exact chain accepts.
const MAX_BUSES: usize = 3;

/// Parameters of the small-`m` crossbar chain.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SmallCrossbarParams {
    /// Number of processors (sets the aggregate arrival rate `pλ`).
    pub processors: u32,
    /// Number of buses `m` (keep ≤ 3; the state space is `(2(r+1))^m` per
    /// level).
    pub buses: u32,
    /// Resources per bus `r`.
    pub resources_per_bus: u32,
    /// Per-processor arrival rate `λ`.
    pub lambda: f64,
    /// Transmission rate `µ_n`.
    pub mu_n: f64,
    /// Service rate `µ_s`.
    pub mu_s: f64,
}

/// Steady-state metrics of the small-`m` crossbar chain.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SmallCrossbarSolution {
    /// Mean delay from arrival until a bus is granted (the paper's `d`).
    pub mean_queue_delay: f64,
    /// `d · µ_s`.
    pub normalized_delay: f64,
    /// Mean number of queued tasks.
    pub mean_queue_length: f64,
    /// Mean fraction of buses transmitting.
    pub bus_utilization: f64,
    /// Mean fraction of busy resources.
    pub resource_utilization: f64,
    /// Queue levels carried by the truncation.
    pub levels: usize,
}

/// A warm-start seed for [`SmallCrossbarChain::solve_seeded`]: the
/// stationary distribution of a previously solved truncation, plus the
/// state-space shape it was solved on (seeds never transfer across chains
/// with a different per-level structure).
#[derive(Clone, Debug)]
pub struct SmallCrossbarSeed {
    buses: u32,
    resources_per_bus: u32,
    l0_count: usize,
    per_level: usize,
    pi: Vec<f64>,
}

/// The exact chain for `m ∈ {1, 2, 3}` buses.
#[derive(Clone, Copy, Debug)]
pub struct SmallCrossbarChain {
    params: SmallCrossbarParams,
}

impl SmallCrossbarChain {
    /// Validates parameters and builds the model.
    ///
    /// # Errors
    ///
    /// [`SolveError::BadParameter`] for zero counts, non-positive rates, or
    /// `m > 3` (state-space blowup — use simulation, as the paper does);
    /// [`SolveError::Unstable`] when the offered load exceeds the aggregate
    /// bus-pipeline capacity.
    pub fn new(params: SmallCrossbarParams) -> Result<Self, SolveError> {
        if params.processors == 0 || params.buses == 0 || params.resources_per_bus == 0 {
            return Err(SolveError::BadParameter {
                what: "counts must be positive",
            });
        }
        if params.buses as usize > MAX_BUSES {
            return Err(SolveError::BadParameter {
                what: "the exact chain is only practical for m <= 3 (the paper's point)",
            });
        }
        for (v, what) in [
            (params.lambda, "lambda must be positive and finite"),
            (params.mu_n, "mu_n must be positive and finite"),
            (params.mu_s, "mu_s must be positive and finite"),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(SolveError::BadParameter { what });
            }
        }
        let chain = SmallCrossbarChain { params };
        let cap = chain.saturation_throughput();
        if chain.arrival_rate() >= cap {
            return Err(SolveError::Unstable {
                utilization: chain.arrival_rate() / cap,
            });
        }
        Ok(chain)
    }

    /// Aggregate arrival rate `pλ`.
    #[must_use]
    pub fn arrival_rate(&self) -> f64 {
        self.params.processors as f64 * self.params.lambda
    }

    /// Aggregate saturation throughput: `m` independent bus pipelines.
    #[must_use]
    pub fn saturation_throughput(&self) -> f64 {
        let a = self.params.mu_n / self.params.mu_s;
        let mut b = 1.0;
        for k in 1..=self.params.resources_per_bus {
            b = a * b / (k as f64 + a * b);
        }
        self.params.buses as f64 * self.params.mu_n * (1.0 - b)
    }

    /// Solves the truncated chain, growing the queue cap until the delay
    /// stabilizes. Every truncation is solved cold; this is the library's
    /// reference path (see [`SmallCrossbarChain::solve_seeded`] for the
    /// warm-started one).
    ///
    /// # Errors
    ///
    /// Propagates solver errors; [`SolveError::NoConvergence`] if the delay
    /// never stabilizes within the level budget.
    pub fn solve(&self) -> Result<SmallCrossbarSolution, SolveError> {
        let mut levels = 24usize;
        let mut last: Option<SmallCrossbarSolution> = None;
        while levels <= 1536 {
            let sol = self.solve_truncated(levels)?;
            if let Some(prev) = last {
                let diff = (sol.mean_queue_delay - prev.mean_queue_delay).abs();
                // Stabilized when the doubling changes d by less than either
                // a relative 1e-6 or the iterative solver's own absolute
                // noise floor.
                if diff < 1e-6 * sol.mean_queue_delay.max(1e-300) || diff < 1e-10 {
                    return Ok(sol);
                }
            }
            last = Some(sol);
            levels *= 2;
        }
        Err(SolveError::NoConvergence {
            iterations: 1536,
            residual: f64::NAN,
        })
    }

    /// [`SmallCrossbarChain::solve`] warm-started: each truncation's
    /// Gauss–Seidel solve is seeded with the previous (smaller) truncation's
    /// π — a smaller truncation's states are exactly a prefix of a larger
    /// one's numbering — and the first truncation with `seed` when given
    /// (e.g. the solution of a neighboring rho-grid point). The growth
    /// ladder and stopping rule match [`SmallCrossbarChain::solve`], so the
    /// result agrees with the cold solve up to the CTMC solver's `1e-12`
    /// convergence noise.
    ///
    /// Returns the solution together with a seed for the next solve. A seed
    /// from a chain of a different shape is ignored.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SmallCrossbarChain::solve`].
    pub fn solve_seeded(
        &self,
        seed: Option<&SmallCrossbarSeed>,
    ) -> Result<(SmallCrossbarSolution, SmallCrossbarSeed), SolveError> {
        let mut levels = 24usize;
        let mut last: Option<(SmallCrossbarSolution, SmallCrossbarSeed)> = None;
        while levels <= 1536 {
            let (sol, new_seed) = {
                let prev_seed = last.as_ref().map(|(_, s)| s).or(seed);
                self.solve_truncated_inner(levels, prev_seed)?
            };
            if let Some((prev, _)) = &last {
                let diff = (sol.mean_queue_delay - prev.mean_queue_delay).abs();
                if diff < 1e-6 * sol.mean_queue_delay.max(1e-300) || diff < 1e-10 {
                    return Ok((sol, new_seed));
                }
            }
            last = Some((sol, new_seed));
            levels *= 2;
        }
        Err(SolveError::NoConvergence {
            iterations: 1536,
            residual: f64::NAN,
        })
    }

    /// Solves with a fixed queue cap.
    ///
    /// # Errors
    ///
    /// Propagates [`SolveError::NoConvergence`] from the CTMC solver.
    pub fn solve_truncated(&self, levels: usize) -> Result<SmallCrossbarSolution, SolveError> {
        self.solve_truncated_inner(levels, None).map(|(sol, _)| sol)
    }

    fn solve_truncated_inner(
        &self,
        levels: usize,
        seed: Option<&SmallCrossbarSeed>,
    ) -> Result<(SmallCrossbarSolution, SmallCrossbarSeed), SolveError> {
        let m = self.params.buses as usize;
        let r = self.params.resources_per_bus as usize;
        let lam = self.arrival_rate();
        let (mu_n, mu_s) = (self.params.mu_n, self.params.mu_s);

        // Enumerate only the *reachable* states. Two structural facts prune
        // the naive (2(r+1))^m product: a transmitting bus always has a free
        // resource reserved (t_j ⇒ s_j < r), and a nonempty queue coexists
        // only with "no bus dispatchable" (dispatch opportunities are
        // consumed the instant they appear). Without this pruning the
        // truncated chain acquires disconnected zero-outflow states and the
        // balance system turns singular. A sub-state is a fixed-size array
        // pair; buses at index ≥ m stay idle and empty.
        let mut subs: Vec<([bool; MAX_BUSES], [usize; MAX_BUSES])> = Vec::new();
        {
            let mut t = [false; MAX_BUSES];
            let mut s_vec = [0usize; MAX_BUSES];
            loop {
                if (0..m).all(|j| !t[j] || s_vec[j] < r) {
                    subs.push((t, s_vec));
                }
                // Mixed-radix increment over (t_j, s_j).
                let mut j = 0;
                loop {
                    if j == m {
                        break;
                    }
                    if !t[j] {
                        t[j] = true;
                        break;
                    }
                    t[j] = false;
                    if s_vec[j] < r {
                        s_vec[j] += 1;
                        break;
                    }
                    s_vec[j] = 0;
                    j += 1;
                }
                if j == m {
                    break;
                }
            }
        }
        // Fixed-priority dispatch: the first bus that is idle with a free
        // resource.
        let dispatch =
            |t: &[bool], s: &[usize]| -> Option<usize> { (0..m).find(|&j| !t[j] && s[j] < r) };
        let queue_ok: Vec<bool> = subs.iter().map(|(t, s)| dispatch(t, s).is_none()).collect();
        let key = |t: &[bool], s: &[usize]| -> usize {
            let mut k = 0;
            for j in 0..m {
                k = k * 2 * (r + 1) + (s[j] * 2 + usize::from(t[j]));
            }
            k
        };
        // Dense key table over the full (2(r+1))^m product; unreachable
        // keys hold `usize::MAX`.
        let keys = (2 * (r + 1))
            .checked_pow(m as u32)
            .expect("the (2(r+1))^m key space overflows usize");
        let mut sub_of_key = vec![usize::MAX; keys];
        for (i, (t, s)) in subs.iter().enumerate() {
            sub_of_key[key(t, s)] = i;
        }
        let sub_index = |t: &[bool], s: &[usize]| -> usize { sub_of_key[key(t, s)] };
        // Dense state numbering: level-0 states first (all subs), then for
        // each level ≥ 1 only the queue-compatible subs.
        let l0_count = subs.len();
        let mut queued_pos = vec![usize::MAX; subs.len()];
        let mut per_level = 0;
        for (sub, _) in queue_ok.iter().enumerate().filter(|(_, &ok)| ok) {
            queued_pos[sub] = per_level;
            per_level += 1;
        }
        let n_states = l0_count + levels * per_level;
        let idx = |l: usize, sub: usize| -> usize {
            if l == 0 {
                sub
            } else {
                assert!(queue_ok[sub], "queued level holds a dispatchable sub-state");
                l0_count + (l - 1) * per_level + queued_pos[sub]
            }
        };

        // The moves out of a sub-state as (level step, target sub-state,
        // rate), in the order they enter the generator: the arrival, then
        // per bus a transmission completion and a service completion. They
        // depend on the level only through whether the queue is empty.
        let moves = |t: [bool; MAX_BUSES], s: [usize; MAX_BUSES], queued: bool| {
            let mut out: Vec<(isize, usize, f64)> = Vec::with_capacity(2 * m + 1);
            // Arrival.
            match dispatch(&t, &s) {
                Some(j) if !queued => {
                    let mut t2 = t;
                    t2[j] = true;
                    out.push((0, sub_index(&t2, &s), lam));
                }
                _ => out.push((1, sub_index(&t, &s), lam)),
            }
            for j in 0..m {
                // Transmission completion on bus j.
                if t[j] {
                    let mut t2 = t;
                    let mut s2 = s;
                    t2[j] = false;
                    s2[j] += 1;
                    out.push(match dispatch(&t2, &s2) {
                        Some(k) if queued => {
                            let mut t3 = t2;
                            t3[k] = true;
                            (-1, sub_index(&t3, &s2), mu_n)
                        }
                        _ => (0, sub_index(&t2, &s2), mu_n),
                    });
                }
                // Service completion on bus j.
                if s[j] > 0 {
                    let mut s2 = s;
                    s2[j] -= 1;
                    out.push(if queued && !t[j] {
                        // The freed resource makes bus j dispatchable.
                        let mut t2 = t;
                        t2[j] = true;
                        (-1, sub_index(&t2, &s2), s[j] as f64 * mu_s)
                    } else {
                        (0, sub_index(&t, &s2), s[j] as f64 * mu_s)
                    });
                }
            }
            out
        };

        let mut c = Ctmc::new(n_states);
        for (sub, &(t, s)) in subs.iter().enumerate() {
            for (step, sub2, rate) in moves(t, s, false) {
                c.add(idx(0, sub), idx(step as usize, sub2), rate);
            }
        }
        // Every level ≥ 1 is stamped from one template; the top level
        // drops the arrival.
        let template: Vec<(usize, isize, usize, f64)> = subs
            .iter()
            .enumerate()
            .filter(|&(sub, _)| queue_ok[sub])
            .flat_map(|(sub, &(t, s))| {
                moves(t, s, true)
                    .into_iter()
                    .map(move |(step, sub2, rate)| (sub, step, sub2, rate))
            })
            .collect();
        for l in 1..=levels {
            for &(sub, step, sub2, rate) in &template {
                if l < levels || step != 1 {
                    c.add(idx(l, sub), idx(l.wrapping_add_signed(step), sub2), rate);
                }
            }
        }

        // A seed from a smaller truncation of the same chain maps onto the
        // prefix of this one's state numbering (level-0 subs first, then the
        // queued subs per level); the missing tail levels start at zero. The
        // shape is checked alongside the counts: distinct `m × r` shapes
        // (e.g. 2×2 and 3×1) can coincide in state-space dimensions while
        // numbering entirely different states.
        let guess: Option<Vec<f64>> = seed
            .filter(|s| {
                s.buses == self.params.buses
                    && s.resources_per_bus == self.params.resources_per_bus
                    && s.l0_count == l0_count
                    && s.per_level == per_level
            })
            .map(|s| {
                let mut g = vec![0.0_f64; n_states];
                let shared = s.pi.len().min(n_states);
                g[..shared].copy_from_slice(&s.pi[..shared]);
                g
            });
        let pi = c.solve_with_guess(guess.as_deref(), 1e-12, 100_000)?;
        let mut mean_queue = 0.0;
        let mut buses_busy = 0.0;
        let mut res_busy = 0.0;
        for l in 0..=levels {
            for (sub, (t, s)) in subs.iter().enumerate() {
                if l > 0 && !queue_ok[sub] {
                    continue;
                }
                let p = pi[idx(l, sub)];
                if p == 0.0 {
                    continue;
                }
                mean_queue += l as f64 * p;
                buses_busy += p * t.iter().filter(|&&b| b).count() as f64;
                res_busy += p * s.iter().sum::<usize>() as f64;
            }
        }
        let d = mean_queue / lam;
        let sol = SmallCrossbarSolution {
            mean_queue_delay: d,
            normalized_delay: d * mu_s,
            mean_queue_length: mean_queue,
            bus_utilization: buses_busy / m as f64,
            resource_utilization: res_busy / (m * r) as f64,
            levels,
        };
        Ok((
            sol,
            SmallCrossbarSeed {
                buses: self.params.buses,
                resources_per_bus: self.params.resources_per_bus,
                l0_count,
                per_level,
                pi,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sbus::{SharedBusChain, SharedBusParams};

    #[test]
    fn m_equals_one_reduces_to_shared_bus_chain() {
        for (p, r, lam, mu_n, mu_s) in [(4, 2, 0.05, 1.0, 0.5), (8, 3, 0.02, 1.0, 0.2)] {
            let xc = SmallCrossbarChain::new(SmallCrossbarParams {
                processors: p,
                buses: 1,
                resources_per_bus: r,
                lambda: lam,
                mu_n,
                mu_s,
            })
            .expect("stable")
            .solve()
            .expect("solves");
            let sb = SharedBusChain::new(SharedBusParams {
                processors: p,
                resources: r,
                lambda: lam,
                mu_n,
                mu_s,
            })
            .expect("stable")
            .solve()
            .expect("solves");
            let rel =
                (xc.mean_queue_delay - sb.mean_queue_delay).abs() / sb.mean_queue_delay.max(1e-12);
            assert!(
                rel < 1e-6,
                "m=1 crossbar {} vs shared bus {}",
                xc.mean_queue_delay,
                sb.mean_queue_delay
            );
        }
    }

    #[test]
    fn two_buses_beat_one_at_equal_total_resources() {
        let one = SmallCrossbarChain::new(SmallCrossbarParams {
            processors: 8,
            buses: 1,
            resources_per_bus: 4,
            lambda: 0.08,
            mu_n: 1.0,
            mu_s: 1.0,
        })
        .expect("stable")
        .solve()
        .expect("solves");
        let two = SmallCrossbarChain::new(SmallCrossbarParams {
            processors: 8,
            buses: 2,
            resources_per_bus: 2,
            lambda: 0.08,
            mu_n: 1.0,
            mu_s: 1.0,
        })
        .expect("stable")
        .solve()
        .expect("solves");
        assert!(
            two.mean_queue_delay < one.mean_queue_delay,
            "2 buses {} must beat 1 bus {}",
            two.mean_queue_delay,
            one.mean_queue_delay
        );
    }

    #[test]
    fn utilizations_are_flow_determined() {
        let chain = SmallCrossbarChain::new(SmallCrossbarParams {
            processors: 8,
            buses: 2,
            resources_per_bus: 2,
            lambda: 0.05,
            mu_n: 1.0,
            mu_s: 0.5,
        })
        .expect("stable");
        let sol = chain.solve().expect("solves");
        let lam = chain.arrival_rate();
        // Buses carry Λ at rate µ_n spread over m buses.
        assert!((sol.bus_utilization - lam / 2.0).abs() < 1e-6);
        // Resources carry Λ at rate µ_s spread over m·r resources.
        assert!((sol.resource_utilization - lam / (4.0 * 0.5)).abs() < 1e-6);
    }

    #[test]
    fn rejects_large_m_and_unstable_loads() {
        assert!(matches!(
            SmallCrossbarChain::new(SmallCrossbarParams {
                processors: 8,
                buses: 4,
                resources_per_bus: 1,
                lambda: 0.01,
                mu_n: 1.0,
                mu_s: 1.0,
            }),
            Err(SolveError::BadParameter { .. })
        ));
        assert!(matches!(
            SmallCrossbarChain::new(SmallCrossbarParams {
                processors: 8,
                buses: 2,
                resources_per_bus: 1,
                lambda: 1.0,
                mu_n: 1.0,
                mu_s: 1.0,
            }),
            Err(SolveError::Unstable { .. })
        ));
    }
}
