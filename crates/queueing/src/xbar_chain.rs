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
//! with at most `(r+1)^m · 2^m` states per queue level and a finite queue
//! cap.
//!
//! The generator is held by stage, as the paper describes it: level 0 (the
//! empty queue) holds every reachable sub-state, and every level ≥ 1 holds
//! the same queue-compatible sub-states with the same moves. It is built
//! once per chain as a *boundary block* (the incoming rows of level 0, and
//! level 1's transitions from level 0) plus one *level template* (the
//! incoming rows of one queued level, laid out `prev | same | next` by
//! source level). Every truncation of the 24 → 1536 level ladder reads
//! these two blocks, so a truncation allocates only its π; no storage grows
//! with the level count. The rows feed the crate's one Gauss–Seidel loop,
//! and every row adds its terms in the order a flat edge list built level
//! by level would, so results are bit-identical to that layout (a test-only
//! copy of the flat builder checks this).
//!
//! One modelling note: the chain pools all queued tasks, i.e. it assumes a
//! queued task may be dispatched to any free bus. That is exact when the
//! queue never holds two tasks of the same processor — a good approximation
//! for `p ≫ m` at moderate load, and exactly the regime the paper's
//! crossbar figures study (p = 16, m ≤ 4 buses per partition). Dispatch is
//! fixed-priority (lowest bus index), matching the hardware's asymmetric
//! wave.

use crate::error::SolveError;
use crate::markov::{gauss_seidel, Block, Csr, Rows};

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
    /// stabilizes: 24, 48, … up to 1536 queue levels, until a doubling
    /// moves the delay by less than `1e-6` relative (or `1e-10` absolute).
    /// Each truncation's Gauss–Seidel solve starts from the previous
    /// truncation's π — a smaller truncation's states are exactly a prefix
    /// of a larger one's numbering — and the first from uniform, so the
    /// answer depends only on the parameters.
    ///
    /// # Errors
    ///
    /// Propagates solver errors; [`SolveError::NoConvergence`] if the delay
    /// never stabilizes within the level budget.
    pub fn solve(&self) -> Result<SmallCrossbarSolution, SolveError> {
        let gen = LevelGenerator::new(self);
        let mut levels = 24usize;
        let mut last: Option<(SmallCrossbarSolution, Vec<f64>)> = None;
        while levels <= 1536 {
            let prev = last.as_ref().map(|(_, pi)| pi.as_slice());
            let (sol, pi) = self.solve_rung(&gen, levels, prev, MAX_SWEEPS)?;
            if let Some((prev, _)) = &last {
                let diff = (sol.mean_queue_delay - prev.mean_queue_delay).abs();
                // Stabilized when the doubling changes d by less than either
                // a relative 1e-6 or the iterative solver's own absolute
                // noise floor.
                if diff < 1e-6 * sol.mean_queue_delay.max(1e-300) || diff < 1e-10 {
                    return Ok(sol);
                }
            }
            last = Some((sol, pi));
            levels *= 2;
        }
        Err(SolveError::NoConvergence {
            iterations: 1536,
            residual: f64::NAN,
        })
    }

    /// Solves with a fixed queue cap, from the uniform distribution.
    ///
    /// # Errors
    ///
    /// Propagates [`SolveError::NoConvergence`] from the CTMC solver.
    ///
    /// # Panics
    ///
    /// Panics if `levels == 0`: the chain needs a queue level for arrivals
    /// that find no dispatchable bus.
    pub fn solve_truncated(&self, levels: usize) -> Result<SmallCrossbarSolution, SolveError> {
        let gen = LevelGenerator::new(self);
        self.solve_rung(&gen, levels, None, MAX_SWEEPS)
            .map(|(sol, _)| sol)
    }

    /// Solves the truncation at `levels` queue levels over `gen`, starting
    /// from `prev`, the π of a smaller truncation of this chain, when given.
    /// Returns the solution and its π.
    fn solve_rung(
        &self,
        gen: &LevelGenerator,
        levels: usize,
        prev: Option<&[f64]>,
        max_sweeps: usize,
    ) -> Result<(SmallCrossbarSolution, Vec<f64>), SolveError> {
        assert!(levels > 0, "a truncation needs at least one queue level");
        let rows = Truncation { gen, levels };
        // `prev` is the prefix of this truncation's state numbering (level-0
        // subs first, then the queued subs per level); the missing tail
        // levels start at zero.
        let guess = prev.map(|prev| {
            let mut g = vec![0.0_f64; rows.num_states()];
            g[..prev.len()].copy_from_slice(prev);
            g
        });
        let pi = gauss_seidel(&rows, guess.as_deref(), 1e-12, max_sweeps)?;
        Ok((self.solution(gen, &pi, levels), pi))
    }

    /// The metrics of a stationary distribution over `levels` queue levels,
    /// summed in state order.
    fn solution(&self, gen: &LevelGenerator, pi: &[f64], levels: usize) -> SmallCrossbarSolution {
        let params = &self.params;
        let (l0_count, per_level) = (gen.l0_count(), gen.per_level());
        let mut mean_queue = 0.0;
        let mut buses_busy = 0.0;
        let mut res_busy = 0.0;
        let mut add = |l: usize, p: f64, sub: usize| {
            if p != 0.0 {
                mean_queue += l as f64 * p;
                buses_busy += p * gen.busy[sub];
                res_busy += p * gen.resources[sub];
            }
        };
        for (sub, &p) in pi[..l0_count].iter().enumerate() {
            add(0, p, sub);
        }
        for (l, level) in pi[l0_count..].chunks_exact(per_level).enumerate() {
            for (&p, &sub) in level.iter().zip(&gen.queued) {
                add(l + 1, p, sub);
            }
        }
        let (m, r) = (params.buses as usize, params.resources_per_bus as usize);
        let d = mean_queue / self.arrival_rate();
        SmallCrossbarSolution {
            mean_queue_delay: d,
            normalized_delay: d * params.mu_s,
            mean_queue_length: mean_queue,
            bus_utilization: buses_busy / m as f64,
            resource_utilization: res_busy / (m * r) as f64,
            levels,
        }
    }
}

/// Gauss–Seidel sweep cap of every truncation.
const MAX_SWEEPS: usize = 100_000;

/// A move out of a sub-state: `step` queue levels up (`1`), down (`-1`) or
/// along (`0`), to sub-state `to`.
#[derive(Clone, Copy, Debug)]
struct Move {
    /// Source: a sub-state index on level 0, a queued position above it.
    from: usize,
    step: isize,
    to: usize,
    rate: f64,
}

/// The moves of `moves` that step `step` queue levels, in order.
fn steps(moves: &[Move], step: isize) -> impl Iterator<Item = &Move> + Clone {
    moves.iter().filter(move |mv| mv.step == step)
}

/// The crossbar chain's generator by queue level, built once per chain and
/// shared by every truncation of its ladder.
///
/// State numbering is level-0 sub-states first, then per level `l ≥ 1` its
/// queued positions at `l0_count + (l − 1) · per_level`. Every row lists
/// its incoming transitions by source level, then source state, then move
/// order — the order a flat edge list built level by level would hold —
/// so every sum a solve forms adds its terms in that order.
#[derive(Debug)]
struct LevelGenerator {
    /// Rows `0..l0_count`: the level-0 states' incoming transitions (from
    /// level 0, then level 1). Rows `l0_count..`: a level-1 position's
    /// incoming transitions from level 0. Sources are absolute state
    /// indices.
    boundary: Csr,
    /// Outflow rate of each level-0 state.
    l0_out: Vec<f64>,
    /// One row per queued position, laid out `prev | same | next` by source
    /// level; a source is its offset from the previous level's first state.
    template: Csr,
    /// Where each template row's `same` part begins.
    same: Vec<usize>,
    /// Where each template row's `next` part begins.
    next: Vec<usize>,
    /// Outflow rate of each queued position below the top level.
    out: Vec<f64>,
    /// Outflow rate of each queued position on the top level, which has
    /// no arrival.
    top_out: Vec<f64>,
    /// The sub-state of each queued position.
    queued: Vec<usize>,
    /// Transmitting buses per sub-state.
    busy: Vec<f64>,
    /// Busy resources per sub-state.
    resources: Vec<f64>,
}

impl LevelGenerator {
    fn new(chain: &SmallCrossbarChain) -> Self {
        let params = &chain.params;
        let m = params.buses as usize;
        let r = params.resources_per_bus as usize;
        let lam = chain.arrival_rate();
        let (mu_n, mu_s) = (params.mu_n, params.mu_s);

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
        // Levels ≥ 1 hold only the queue-compatible subs, in sub order.
        let queued: Vec<usize> = (0..subs.len())
            .filter(|&sub| {
                let (t, s) = &subs[sub];
                dispatch(t, s).is_none()
            })
            .collect();
        let mut queued_pos = vec![usize::MAX; subs.len()];
        for (pos, &sub) in queued.iter().enumerate() {
            queued_pos[sub] = pos;
        }
        let pos = |sub: usize| -> usize {
            let p = queued_pos[sub];
            assert!(
                p != usize::MAX,
                "queued level holds a dispatchable sub-state"
            );
            p
        };

        // The moves out of a sub-state, in the order they enter the
        // generator: the arrival, then per bus a transmission completion and
        // a service completion. They depend on the level only through
        // whether the queue is empty.
        let moves = |from: usize, sub: usize, queued: bool, out: &mut Vec<Move>| {
            let (t, s) = subs[sub];
            let mut push = |step: isize, to: usize, rate: f64| {
                out.push(Move {
                    from,
                    step,
                    to,
                    rate,
                });
            };
            // Arrival.
            match dispatch(&t, &s) {
                Some(j) if !queued => {
                    let mut t2 = t;
                    t2[j] = true;
                    push(0, sub_index(&t2, &s), lam);
                }
                _ => push(1, sub_index(&t, &s), lam),
            }
            for j in 0..m {
                // Transmission completion on bus j.
                if t[j] {
                    let mut t2 = t;
                    let mut s2 = s;
                    t2[j] = false;
                    s2[j] += 1;
                    match dispatch(&t2, &s2) {
                        Some(k) if queued => {
                            let mut t3 = t2;
                            t3[k] = true;
                            push(-1, sub_index(&t3, &s2), mu_n);
                        }
                        _ => push(0, sub_index(&t2, &s2), mu_n),
                    }
                }
                // Service completion on bus j.
                if s[j] > 0 {
                    let mut s2 = s;
                    s2[j] -= 1;
                    if queued && !t[j] {
                        // The freed resource makes bus j dispatchable.
                        let mut t2 = t;
                        t2[j] = true;
                        push(-1, sub_index(&t2, &s2), s[j] as f64 * mu_s);
                    } else {
                        push(0, sub_index(&t, &s2), s[j] as f64 * mu_s);
                    }
                }
            }
        };
        let (l0_count, per_level) = (subs.len(), queued.len());
        let mut l0_moves = Vec::new();
        for sub in 0..l0_count {
            moves(sub, sub, false, &mut l0_moves);
        }
        let mut level_moves = Vec::new();
        for (p, &sub) in queued.iter().enumerate() {
            moves(p, sub, true, &mut level_moves);
        }
        // Outflow rates, each summed from 0.0 in move order; the top level
        // drops the arrival (its only upward move).
        let outflow = |count: usize, moves: &[Move], keep: fn(&Move) -> bool| {
            let mut out = vec![0.0_f64; count];
            for mv in moves.iter().filter(|mv| keep(mv)) {
                out[mv.from] += mv.rate;
            }
            out
        };
        let l0_out = outflow(l0_count, &l0_moves, |_| true);
        let out = outflow(per_level, &level_moves, |_| true);
        let top_out = outflow(per_level, &level_moves, |mv| mv.step != 1);

        // Level 0 moves along or up; a queued position up, along or down.
        let boundary = Csr::by_row(
            l0_count + per_level,
            steps(&l0_moves, 0)
                .map(|mv| (mv.to, mv.from, mv.rate))
                .chain(steps(&level_moves, -1).map(|mv| (mv.to, l0_count + mv.from, mv.rate)))
                .chain(steps(&l0_moves, 1).map(|mv| (l0_count + pos(mv.to), mv.from, mv.rate))),
        );
        let template = Csr::by_row(
            per_level,
            steps(&level_moves, 1)
                .map(|mv| (pos(mv.to), mv.from, mv.rate))
                .chain(steps(&level_moves, 0).map(|mv| (pos(mv.to), per_level + mv.from, mv.rate)))
                .chain(
                    steps(&level_moves, -1)
                        .map(|mv| (pos(mv.to), 2 * per_level + mv.from, mv.rate)),
                ),
        );
        let split = |bound: usize| -> Vec<usize> {
            (0..per_level)
                .map(|p| {
                    let (lo, hi) = (template.start[p], template.start[p + 1]);
                    lo + template.from[lo..hi].partition_point(|&o| (o as usize) < bound)
                })
                .collect()
        };
        let (same, next) = (split(per_level), split(2 * per_level));
        LevelGenerator {
            boundary,
            l0_out,
            same,
            next,
            template,
            out,
            top_out,
            queued,
            busy: subs
                .iter()
                .map(|(t, _)| t.iter().filter(|&&b| b).count() as f64)
                .collect(),
            resources: subs
                .iter()
                .map(|(_, s)| s.iter().sum::<usize>() as f64)
                .collect(),
        }
    }

    fn l0_count(&self) -> usize {
        self.l0_out.len()
    }

    fn per_level(&self) -> usize {
        self.queued.len()
    }
}

/// The chain truncated at `levels` queue levels, as balance rows over a
/// shared [`LevelGenerator`].
struct Truncation<'a> {
    gen: &'a LevelGenerator,
    levels: usize,
}

impl Truncation<'_> {
    /// Transitions stored for these rows.
    #[cfg(test)]
    fn stored_entries(&self) -> usize {
        self.gen.boundary.from.len() + self.gen.template.from.len()
    }
}

impl Rows for Truncation<'_> {
    fn num_states(&self) -> usize {
        self.gen.l0_count() + self.levels * self.gen.per_level()
    }

    fn for_each_block(&self, mut visit: impl FnMut(Block<'_>)) {
        let gen = self.gen;
        let (l0_count, per_level, levels) = (gen.l0_count(), gen.per_level(), self.levels);
        let template = &gen.template;
        let (lo, hi) = (&template.start[..per_level], &template.start[1..]);
        visit(Block {
            first: 0,
            repeat: 1,
            out_rate: &gen.l0_out,
            head: gen.boundary.rows(0..l0_count, 0),
            tail: None,
        });
        // The top level has no level above it: its rows end where the
        // `next` part would begin, and its outflow drops the arrival.
        let (out_1, end_1) = if levels == 1 {
            (&gen.top_out, &gen.next[..])
        } else {
            (&gen.out, hi)
        };
        // Level 1's `prev` is level 0, which is not a queued level: its
        // sources come from the boundary block. A template source is an
        // offset from the previous level's first state, which for level 1
        // is `l0_count - per_level`.
        visit(Block {
            first: l0_count,
            repeat: 1,
            out_rate: out_1,
            head: gen.boundary.rows(l0_count..l0_count + per_level, 0),
            tail: Some(template.runs(&gen.same, end_1, l0_count - per_level)),
        });
        if levels >= 2 {
            // Levels 2..levels-1: one template, repeated level by level.
            let first = l0_count + per_level;
            visit(Block {
                first,
                repeat: levels - 2,
                out_rate: &gen.out,
                head: template.runs(lo, hi, l0_count),
                tail: None,
            });
            visit(Block {
                first: first + (levels - 2) * per_level,
                repeat: 1,
                out_rate: &gen.top_out,
                head: template.runs(lo, &gen.next, l0_count + (levels - 2) * per_level),
                tail: None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markov::Ctmc;
    use crate::sbus::{SharedBusChain, SharedBusParams};
    use crate::traffic;
    use rsin_minicheck::{check, Gen};

    /// The flat generator the level-structured one replaced: every
    /// truncation expanded into a `Ctmc` edge list, level-0 states first,
    /// then every level stamped from one template of moves.
    struct FlatChain {
        ctmc: Ctmc,
        subs: Vec<([bool; MAX_BUSES], [usize; MAX_BUSES])>,
        queue_ok: Vec<bool>,
        queued_pos: Vec<usize>,
        l0_count: usize,
        per_level: usize,
    }

    impl FlatChain {
        fn idx(&self, l: usize, sub: usize) -> usize {
            if l == 0 {
                sub
            } else {
                assert!(
                    self.queue_ok[sub],
                    "queued level holds a dispatchable sub-state"
                );
                self.l0_count + (l - 1) * self.per_level + self.queued_pos[sub]
            }
        }
    }

    fn flat_chain(chain: &SmallCrossbarChain, levels: usize) -> FlatChain {
        let m = chain.params.buses as usize;
        let r = chain.params.resources_per_bus as usize;
        let lam = chain.arrival_rate();
        let (mu_n, mu_s) = (chain.params.mu_n, chain.params.mu_s);
        let mut subs: Vec<([bool; MAX_BUSES], [usize; MAX_BUSES])> = Vec::new();
        {
            let mut t = [false; MAX_BUSES];
            let mut s_vec = [0usize; MAX_BUSES];
            loop {
                if (0..m).all(|j| !t[j] || s_vec[j] < r) {
                    subs.push((t, s_vec));
                }
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
        let mut sub_of_key = vec![usize::MAX; (2 * (r + 1)).pow(m as u32)];
        for (i, (t, s)) in subs.iter().enumerate() {
            sub_of_key[key(t, s)] = i;
        }
        let sub_index = |t: &[bool], s: &[usize]| -> usize { sub_of_key[key(t, s)] };
        let l0_count = subs.len();
        let mut queued_pos = vec![usize::MAX; subs.len()];
        let mut per_level = 0;
        for (sub, _) in queue_ok.iter().enumerate().filter(|(_, &ok)| ok) {
            queued_pos[sub] = per_level;
            per_level += 1;
        }
        let moves = |t: [bool; MAX_BUSES], s: [usize; MAX_BUSES], queued: bool| {
            let mut out: Vec<(isize, usize, f64)> = Vec::with_capacity(2 * m + 1);
            match dispatch(&t, &s) {
                Some(j) if !queued => {
                    let mut t2 = t;
                    t2[j] = true;
                    out.push((0, sub_index(&t2, &s), lam));
                }
                _ => out.push((1, sub_index(&t, &s), lam)),
            }
            for j in 0..m {
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
                if s[j] > 0 {
                    let mut s2 = s;
                    s2[j] -= 1;
                    out.push(if queued && !t[j] {
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
        let mut flat = FlatChain {
            ctmc: Ctmc::new(l0_count + levels * per_level),
            subs: subs.clone(),
            queue_ok: queue_ok.clone(),
            queued_pos,
            l0_count,
            per_level,
        };
        let mut edges = Vec::new();
        for (sub, &(t, s)) in subs.iter().enumerate() {
            for (step, sub2, rate) in moves(t, s, false) {
                edges.push((flat.idx(0, sub), flat.idx(step as usize, sub2), rate));
            }
        }
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
                    edges.push((
                        flat.idx(l, sub),
                        flat.idx(l.wrapping_add_signed(step), sub2),
                        rate,
                    ));
                }
            }
        }
        for (from, to, rate) in edges {
            flat.ctmc.add(from, to, rate);
        }
        flat
    }

    /// One truncation solved on the flat generator, started as
    /// [`SmallCrossbarChain::solve_rung`] starts it.
    fn flat_rung(
        chain: &SmallCrossbarChain,
        levels: usize,
        prev: Option<&[f64]>,
        max_sweeps: usize,
    ) -> Result<(SmallCrossbarSolution, Vec<f64>), SolveError> {
        let flat = flat_chain(chain, levels);
        let guess = prev.map(|prev| {
            let mut g = vec![0.0_f64; flat.ctmc.num_states()];
            g[..prev.len()].copy_from_slice(prev);
            g
        });
        let pi = gauss_seidel(&flat.ctmc.incoming(), guess.as_deref(), 1e-12, max_sweeps)?;
        let mut mean_queue = 0.0;
        let mut buses_busy = 0.0;
        let mut res_busy = 0.0;
        for l in 0..=levels {
            for (sub, (t, s)) in flat.subs.iter().enumerate() {
                if l > 0 && !flat.queue_ok[sub] {
                    continue;
                }
                let p = pi[flat.idx(l, sub)];
                if p == 0.0 {
                    continue;
                }
                mean_queue += l as f64 * p;
                buses_busy += p * t.iter().filter(|&&b| b).count() as f64;
                res_busy += p * s.iter().sum::<usize>() as f64;
            }
        }
        let m = chain.params.buses as usize;
        let r = chain.params.resources_per_bus as usize;
        let d = mean_queue / chain.arrival_rate();
        let sol = SmallCrossbarSolution {
            mean_queue_delay: d,
            normalized_delay: d * chain.params.mu_s,
            mean_queue_length: mean_queue,
            bus_utilization: buses_busy / m as f64,
            resource_utilization: res_busy / (m * r) as f64,
            levels,
        };
        Ok((sol, pi))
    }

    /// The π-chained ladder as it stood beside the flat generator.
    fn flat_solve(chain: &SmallCrossbarChain) -> Result<SmallCrossbarSolution, SolveError> {
        let mut levels = 24usize;
        let mut last: Option<(SmallCrossbarSolution, Vec<f64>)> = None;
        while levels <= 1536 {
            let prev = last.as_ref().map(|(_, pi)| pi.as_slice());
            let (sol, pi) = flat_rung(chain, levels, prev, MAX_SWEEPS)?;
            if let Some((prev, _)) = &last {
                let diff = (sol.mean_queue_delay - prev.mean_queue_delay).abs();
                if diff < 1e-6 * sol.mean_queue_delay.max(1e-300) || diff < 1e-10 {
                    return Ok(sol);
                }
            }
            last = Some((sol, pi));
            levels *= 2;
        }
        Err(SolveError::NoConvergence {
            iterations: 1536,
            residual: f64::NAN,
        })
    }

    fn solution_bits(s: &SmallCrossbarSolution) -> Vec<u64> {
        vec![
            s.mean_queue_delay.to_bits(),
            s.normalized_delay.to_bits(),
            s.mean_queue_length.to_bits(),
            s.bus_utilization.to_bits(),
            s.resource_utilization.to_bits(),
            s.levels as u64,
        ]
    }

    fn solution_and_pi_bits((sol, pi): &(SmallCrossbarSolution, Vec<f64>)) -> Vec<u64> {
        let mut bits = solution_bits(sol);
        bits.extend(pi.iter().map(|p| p.to_bits()));
        bits
    }

    /// Outcomes compared bit for bit; errors by their fields' bits.
    fn assert_same<T>(
        what: &str,
        got: &Result<T, SolveError>,
        want: &Result<T, SolveError>,
        bits: impl Fn(&T) -> Vec<u64>,
    ) {
        match (got, want) {
            (Ok(a), Ok(b)) => assert!(bits(a) == bits(b), "{what}: results differ"),
            (
                Err(SolveError::NoConvergence {
                    iterations: i,
                    residual: r,
                }),
                Err(SolveError::NoConvergence {
                    iterations: j,
                    residual: s,
                }),
            ) => assert!(
                i == j && r.to_bits() == s.to_bits(),
                "{what}: NoConvergence {i}/{r} vs {j}/{s}"
            ),
            (a, b) => panic!(
                "{what}: outcomes differ: {:?} vs {:?}",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }

    /// A stable chain with `m` buses and `r` resources per bus, at 5–50 %
    /// of its saturation throughput.
    fn random_chain(g: &mut Gen, m: u32, r: u32) -> SmallCrossbarChain {
        let mut params = SmallCrossbarParams {
            processors: g.u32_in(1, 17),
            buses: m,
            resources_per_bus: r,
            lambda: 1.0,
            mu_n: g.f64_in(0.5, 2.0),
            mu_s: g.f64_in(0.05, 1.0),
        };
        let cap = SmallCrossbarChain { params }.saturation_throughput();
        params.lambda = g.f64_in(0.05, 0.5) * cap / f64::from(params.processors);
        SmallCrossbarChain::new(params).expect("stable by construction")
    }

    #[test]
    fn level_rows_match_flat_oracle_bit_for_bit() {
        check(24, |g| {
            let (m, r) = (g.u32_in(1, 4), g.u32_in(1, 5));
            let chain = random_chain(g, m, r);
            let gen = LevelGenerator::new(&chain);

            // One truncation, often with a sweep cap too small to converge,
            // started from uniform or from a smaller truncation's π.
            let levels = g.usize_in(1, 40);
            let prev = if g.bool() {
                flat_rung(&chain, g.usize_in(1, levels + 1), None, MAX_SWEEPS)
                    .ok()
                    .map(|(_, pi)| pi)
            } else {
                None
            };
            let cap = if g.bool() {
                g.usize_in(1, 60)
            } else {
                MAX_SWEEPS
            };
            assert_same(
                "rung",
                &chain.solve_rung(&gen, levels, prev.as_deref(), cap),
                &flat_rung(&chain, levels, prev.as_deref(), cap),
                solution_and_pi_bits,
            );
            assert_same("solve", &chain.solve(), &flat_solve(&chain), solution_bits);
        });
    }

    /// The generator stores the transitions that touch level 0 and one
    /// level's template, whatever the truncation: nothing grows with the
    /// level count.
    #[test]
    fn stored_entries_do_not_grow_with_levels() {
        let chain = SmallCrossbarChain::new(SmallCrossbarParams {
            processors: 8,
            buses: 3,
            resources_per_bus: 16,
            lambda: traffic::lambda_for_intensity(8, 16, 0.3, 1.0, 0.1),
            mu_n: 1.0,
            mu_s: 0.1,
        })
        .expect("stable");
        let gen = LevelGenerator::new(&chain);
        let mut stored = Vec::new();
        for levels in [24, 48] {
            let flat = flat_chain(&chain, levels);
            let (l0, per) = (flat.l0_count, flat.per_level);
            let level2 = l0 + per..l0 + 2 * per;
            let (mut touching_level0, mut template) = (0, 0);
            for t in flat.ctmc.transitions() {
                touching_level0 += usize::from(t.from < l0 || t.to < l0);
                template += usize::from(level2.contains(&t.from));
            }
            let rows = Truncation { gen: &gen, levels };
            assert_eq!(rows.stored_entries(), touching_level0 + template);
            stored.push(rows.stored_entries());
        }
        assert_eq!(stored[0], stored[1]);
    }

    #[test]
    fn m_equals_one_reduces_to_shared_bus_chain() {
        // The last point is the p8 provisioning profile (rho = 0.3 against
        // 16 resources) at its winner, `8/1x8x1 XBAR/6`: the same chain as
        // the p1024 frontier's `128x8x1 SBUS/6`.
        let p8_lambda = traffic::lambda_for_intensity(8, 16, 0.3, 1.0, 0.1);
        for (p, r, lam, mu_n, mu_s, bound) in [
            (4, 2, 0.05, 1.0, 0.5, 1e-9),
            (8, 3, 0.02, 1.0, 0.2, 1e-9),
            (8, 6, p8_lambda, 1.0, 0.1, 1e-7),
        ] {
            let xc = SmallCrossbarChain::new(SmallCrossbarParams {
                processors: p,
                buses: 1,
                resources_per_bus: r,
                lambda: lam,
                mu_n,
                mu_s,
            })
            .expect("stable");
            let sol = xc.solve().expect("solves");
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
                (sol.mean_queue_delay - sb.mean_queue_delay).abs() / sb.mean_queue_delay.max(1e-12);
            assert!(
                rel < bound,
                "m=1 crossbar {} vs shared bus {} at p = {p}, r = {r}: relative error {rel:e}",
                sol.mean_queue_delay,
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
