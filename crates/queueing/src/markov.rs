//! Sparse continuous-time Markov chains and steady-state solvers.
//!
//! The paper solves the shared-bus chain by expressing stage probabilities in
//! terms of elementary states and, as a cross-check, by solving all
//! `(r+1)(q+1)` balance equations simultaneously. This module provides the
//! general machinery: a sparse generator built transition-by-transition, a
//! Gauss–Seidel balance-equation solver for large chains, and a dense
//! Gaussian-elimination solver used to validate the iterative one on small
//! chains. The Gauss–Seidel loop reads its generator through [`Rows`], so
//! the crossbar chain's level-structured generator runs the same sweep.

use crate::error::SolveError;
use crate::linalg::{solve_linear, Mat};
use std::ops::Range;

/// A transition of a CTMC: `from --rate--> to`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Transition {
    /// Source state index.
    pub from: usize,
    /// Destination state index.
    pub to: usize,
    /// Transition rate (must be positive).
    pub rate: f64,
}

/// A sparse CTMC generator under construction.
///
/// The generator is held flat: one insertion-ordered edge list with `u32`
/// state indices, plus the running outflow rate of every state. Before a
/// solve it is turned into compressed rows of incoming transitions by a
/// stable counting sort, so every row keeps insertion order and every sum
/// the solvers form (inflows, outflow rates) adds its terms in the order
/// the transitions were added — results do not depend on the layout.
///
/// # Examples
///
/// A two-state flip-flop with rates 1 and 2 has stationary distribution
/// (2/3, 1/3):
///
/// ```
/// use rsin_queueing::Ctmc;
///
/// let mut c = Ctmc::new(2);
/// c.add(0, 1, 1.0);
/// c.add(1, 0, 2.0);
/// let pi = c.solve()?;
/// assert!((pi[0] - 2.0 / 3.0).abs() < 1e-9);
/// # Ok::<(), rsin_queueing::SolveError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Ctmc {
    n: usize,
    /// Every transition, in insertion order.
    edges: Vec<Edge>,
    /// Total outflow rate per state.
    out_rate: Vec<f64>,
}

/// One stored transition.
#[derive(Clone, Copy, Debug)]
struct Edge {
    from: u32,
    to: u32,
    rate: f64,
}

/// Incoming transitions in compressed rows: row `k` is
/// `from[start[k]..start[k + 1]]` with matching `rate`s.
#[derive(Debug)]
pub(crate) struct Csr {
    pub(crate) start: Vec<usize>,
    pub(crate) from: Vec<u32>,
    pub(crate) rate: Vec<f64>,
}

impl Csr {
    /// `(row, source, rate)` entries in compressed rows, by a stable counting
    /// sort: each row keeps the order its entries arrive in.
    ///
    /// # Panics
    ///
    /// Panics if a row is out of range or a source does not fit `u32`.
    pub(crate) fn by_row(
        rows: usize,
        entries: impl Iterator<Item = (usize, usize, f64)> + Clone,
    ) -> Csr {
        let mut start = vec![0usize; rows + 1];
        for (row, _, _) in entries.clone() {
            start[row + 1] += 1;
        }
        for k in 0..rows {
            start[k + 1] += start[k];
        }
        let mut next = start[..rows].to_vec();
        let mut from = vec![0u32; start[rows]];
        let mut rate = vec![0.0_f64; start[rows]];
        for (row, src, q) in entries {
            let k = &mut next[row];
            from[*k] = u32::try_from(src).expect("a stored source index fits u32");
            rate[*k] = q;
            *k += 1;
        }
        Csr { start, from, rate }
    }

    /// Rows `rows` whole, sources offset by `base`.
    pub(crate) fn rows(&self, rows: Range<usize>, base: usize) -> Runs<'_> {
        self.runs(
            &self.start[rows.start..rows.end],
            &self.start[rows.start + 1..=rows.end],
            base,
        )
    }

    /// Entries `lo[k]..hi[k]` as row `k`, sources offset by `base`.
    pub(crate) fn runs<'a>(&'a self, lo: &'a [usize], hi: &'a [usize], base: usize) -> Runs<'a> {
        assert_eq!(lo.len(), hi.len(), "every row needs both ends");
        Runs {
            lo,
            hi,
            base,
            from: &self.from,
            rate: &self.rate,
        }
    }
}

/// Rows of incoming transitions cut from a [`Csr`]: row `k` is entries
/// `lo[k]..hi[k]`, with sources `base + from[i]`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Runs<'a> {
    lo: &'a [usize],
    hi: &'a [usize],
    base: usize,
    from: &'a [u32],
    rate: &'a [f64],
}

impl<'a> Runs<'a> {
    /// The terms `π_i q_ij` of row `k`, in stored order, with every source
    /// moved `shift` states on.
    fn terms<'p>(
        self,
        k: usize,
        shift: usize,
        pi: &'p [f64],
    ) -> impl Iterator<Item = f64> + use<'a, 'p> {
        let (lo, hi) = (self.lo[k], self.hi[k]);
        let base = self.base + shift;
        self.from[lo..hi]
            .iter()
            .zip(&self.rate[lo..hi])
            .map(move |(&i, &q)| pi[base + i as usize] * q)
    }
}

/// Consecutive states whose balance rows share one layout, `repeat` times
/// over: with `n = out_rate.len()`, state `first + c · n + k` of copy `c`
/// has total outflow `out_rate[k]`, and its incoming transitions are row
/// `k` of `head`, then row `k` of `tail`, every source moved `c · n` states
/// on.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Block<'a> {
    pub(crate) first: usize,
    pub(crate) repeat: usize,
    pub(crate) out_rate: &'a [f64],
    pub(crate) head: Runs<'a>,
    pub(crate) tail: Option<Runs<'a>>,
}

impl Block<'_> {
    /// `Σ π_i q_ij` into row `k` of the copy moved `shift` states on, added
    /// in row order from `-0.0`.
    fn inflow(&self, k: usize, shift: usize, pi: &[f64]) -> f64 {
        match self.tail {
            None => self.head.terms(k, shift, pi).sum(),
            Some(tail) => self
                .head
                .terms(k, shift, pi)
                .chain(tail.terms(k, shift, pi))
                .sum(),
        }
    }
}

/// A CTMC generator as the balance-equation solvers read it: blocks of
/// rows covering every state once, in state order.
pub(crate) trait Rows {
    /// Number of states.
    fn num_states(&self) -> usize;

    /// Calls `visit` on every block, in increasing state order.
    fn for_each_block(&self, visit: impl FnMut(Block<'_>));
}

/// The incoming rows of a flat generator: one block.
struct Incoming<'a> {
    csr: Csr,
    out_rate: &'a [f64],
}

impl Rows for Incoming<'_> {
    fn num_states(&self) -> usize {
        self.out_rate.len()
    }

    fn for_each_block(&self, mut visit: impl FnMut(Block<'_>)) {
        visit(Block {
            first: 0,
            repeat: 1,
            out_rate: self.out_rate,
            head: self.csr.rows(0..self.out_rate.len(), 0),
            tail: None,
        });
    }
}

/// Damped Gauss–Seidel on the balance equations `π_j · out_j = Σ π_i q_ij`:
/// the one sweep every iterative steady-state solve in this crate runs.
///
/// The sweep starts from `guess` when it has the right length, finite
/// non-negative entries and positive mass (normalised to sum 1), and from
/// the uniform distribution otherwise. It stops when one sweep moves no
/// entry of π by `tol` or more, relative to Σπ.
///
/// # Errors
///
/// [`SolveError::NoConvergence`] when `max_sweeps` sweeps do not meet `tol`
/// (with the final balance residual), or when π loses all its mass.
pub(crate) fn gauss_seidel(
    rows: &impl Rows,
    guess: Option<&[f64]>,
    tol: f64,
    max_sweeps: usize,
) -> Result<Vec<f64>, SolveError> {
    let n = rows.num_states();
    if n == 1 {
        return Ok(vec![1.0]);
    }
    let mut pi = match guess {
        Some(g)
            if g.len() == n
                && g.iter().all(|v| v.is_finite() && *v >= 0.0)
                && g.iter().sum::<f64>() > 0.0 =>
        {
            let total: f64 = g.iter().sum();
            g.iter().map(|v| v / total).collect()
        }
        _ => vec![1.0 / n as f64; n],
    };
    for sweep in 0..max_sweeps {
        let mut max_delta = 0.0_f64;
        // Σπ after the sweep, added in index order from `-0.0`: term for
        // term the sum `pi.iter().sum()` would form.
        let mut total = -0.0_f64;
        rows.for_each_block(|block| match block.tail {
            // The tail test is hoisted out of the row loop: the loop is
            // latency-bound, and a branch per row slows it measurably.
            None => relax(
                &mut pi,
                &block,
                &mut max_delta,
                &mut total,
                |k, shift, pi| block.head.terms(k, shift, pi).sum(),
            ),
            Some(tail) => relax(
                &mut pi,
                &block,
                &mut max_delta,
                &mut total,
                |k, shift, pi| {
                    block
                        .head
                        .terms(k, shift, pi)
                        .chain(tail.terms(k, shift, pi))
                        .sum()
                },
            ),
        });
        if total <= 0.0 {
            return Err(SolveError::NoConvergence {
                iterations: sweep,
                residual: f64::INFINITY,
            });
        }
        for p in &mut pi {
            *p /= total;
        }
        if max_delta / total < tol {
            return Ok(pi);
        }
    }
    Err(SolveError::NoConvergence {
        iterations: max_sweeps,
        residual: balance_residual(rows, &pi),
    })
}

/// One Gauss–Seidel pass over the states of `block`, in order, with
/// `inflow(k, shift, π)` the inflow into row `k` of the copy moved `shift`
/// states on. Tracks the largest move of any entry in `max_delta` and adds
/// each new entry to `total`.
fn relax(
    pi: &mut [f64],
    block: &Block<'_>,
    max_delta: &mut f64,
    total: &mut f64,
    inflow: impl Fn(usize, usize, &[f64]) -> f64,
) {
    // Damped Gauss–Seidel: the undamped sweep can oscillate on chains with
    // strong same-level cycles (e.g. the shared-bus chain's
    // N_{1,r-1} → N_{0,r} transitions); under-relaxation restores
    // convergence at a modest cost.
    let omega = 0.9;
    let n = block.out_rate.len();
    for shift in (0..block.repeat).map(|c| c * n) {
        for (k, &out_rate) in block.out_rate.iter().enumerate() {
            let j = block.first + shift + k;
            if out_rate == 0.0 {
                // A zero-outflow state cannot carry stationary mass in an
                // irreducible chain; pinning it to zero avoids silently
                // parking probability on disconnected artifacts.
                *max_delta = max_delta.max(pi[j]);
                pi[j] = 0.0;
            } else {
                let next = (1.0 - omega) * pi[j] + omega * inflow(k, shift, pi) / out_rate;
                *max_delta = max_delta.max((next - pi[j]).abs());
                pi[j] = next;
            }
            *total += pi[j];
        }
    }
}

/// Maximum absolute balance residual `|Σ π_i q_ij − π_j · out_j|` of `pi`.
fn balance_residual(rows: &impl Rows, pi: &[f64]) -> f64 {
    let mut worst = 0.0_f64;
    rows.for_each_block(|block| {
        let n = block.out_rate.len();
        for shift in (0..block.repeat).map(|c| c * n) {
            for (k, &out_rate) in block.out_rate.iter().enumerate() {
                let j = block.first + shift + k;
                worst = worst.max((block.inflow(k, shift, pi) - pi[j] * out_rate).abs());
            }
        }
    });
    worst
}

impl Ctmc {
    /// Creates a chain with `n` states and no transitions.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or if `n` exceeds `u32::MAX` (state indices are
    /// stored as `u32`).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "chain needs at least one state");
        assert!(
            u32::try_from(n).is_ok(),
            "chain has {n} states, but state indices are stored as u32 (at most {} states)",
            u32::MAX
        );
        Ctmc {
            n,
            edges: Vec::new(),
            out_rate: vec![0.0; n],
        }
    }

    /// Number of states.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.n
    }

    /// Adds a transition `from --rate--> to`. Parallel transitions between
    /// the same pair accumulate.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices, self-loops, or non-positive rates.
    pub fn add(&mut self, from: usize, to: usize, rate: f64) {
        assert!(from < self.n && to < self.n, "state index out of range");
        assert!(from != to, "self-loops have no effect in a CTMC");
        assert!(
            rate.is_finite() && rate > 0.0,
            "rate must be positive, got {rate}"
        );
        // Both indices are below `n`, which `new` bounds by `u32::MAX`.
        self.edges.push(Edge {
            from: from as u32,
            to: to as u32,
            rate,
        });
        self.out_rate[from] += rate;
    }

    /// Iterates over all transitions, in insertion order.
    pub fn transitions(&self) -> impl Iterator<Item = Transition> + '_ {
        self.edges.iter().map(|e| Transition {
            from: e.from as usize,
            to: e.to as usize,
            rate: e.rate,
        })
    }

    /// The incoming rows, by a stable counting sort of the edge list on
    /// the destination state.
    pub(crate) fn incoming(&self) -> impl Rows + '_ {
        let entries = self
            .edges
            .iter()
            .map(|e| (e.to as usize, e.from as usize, e.rate));
        Incoming {
            csr: Csr::by_row(self.n, entries),
            out_rate: &self.out_rate,
        }
    }

    /// Solves for the stationary distribution with Gauss–Seidel on the
    /// balance equations, using default tolerances.
    ///
    /// # Errors
    ///
    /// [`SolveError::NoConvergence`] if the residual does not drop below
    /// `1e-12` within 100 000 sweeps (reducible or pathological chains).
    pub fn solve(&self) -> Result<Vec<f64>, SolveError> {
        self.solve_with(1e-12, 100_000)
    }

    /// Solves with explicit tolerance and sweep cap. See [`Ctmc::solve`].
    ///
    /// # Errors
    ///
    /// [`SolveError::NoConvergence`] when the residual stays above `tol`.
    pub fn solve_with(&self, tol: f64, max_sweeps: usize) -> Result<Vec<f64>, SolveError> {
        gauss_seidel(&self.incoming(), None, tol, max_sweeps)
    }

    /// Solves by dense Gaussian elimination on `πQ = 0` with the
    /// normalization constraint replacing the last column.
    ///
    /// Intended for small chains (n ≲ 500) as a cross-check of
    /// [`Ctmc::solve`].
    ///
    /// # Errors
    ///
    /// [`SolveError::NoConvergence`] if the system is singular beyond the
    /// normalization deficiency (reducible chain).
    pub fn solve_dense(&self) -> Result<Vec<f64>, SolveError> {
        let mut q_t = Mat::zeros(self.n, self.n);
        for t in self.transitions() {
            q_t[(t.to, t.from)] += t.rate;
            q_t[(t.from, t.from)] -= t.rate;
        }
        dense_stationary(q_t)
    }

    /// Maximum absolute balance-equation residual of a candidate
    /// distribution — a direct measure of solution quality.
    #[must_use]
    pub fn balance_residual(&self, pi: &[f64]) -> f64 {
        assert_eq!(pi.len(), self.n, "distribution length mismatch");
        balance_residual(&self.incoming(), pi)
    }

    /// Expected value of `f` under a stationary distribution.
    #[must_use]
    pub fn expectation(&self, pi: &[f64], mut f: impl FnMut(usize) -> f64) -> f64 {
        assert_eq!(pi.len(), self.n, "distribution length mismatch");
        pi.iter().enumerate().map(|(s, &p)| p * f(s)).sum()
    }
}

/// Solves `πQ = 0` given `Qᵀ`: the last row is replaced by the
/// normalization constraint, `A x = e_last` is solved by [`solve_linear`],
/// and rounding noise below zero is clamped before renormalizing.
fn dense_stationary(mut q_t: Mat) -> Result<Vec<f64>, SolveError> {
    let n = q_t.n_rows;
    q_t.a[(n - 1) * n..].fill(1.0);
    let mut e_last = vec![0.0_f64; n];
    e_last[n - 1] = 1.0;
    let mut x = solve_linear(&q_t, &e_last).ok_or(SolveError::NoConvergence {
        iterations: 0,
        residual: f64::INFINITY,
    })?;
    // Numerical noise can make tiny entries slightly negative.
    for v in &mut x {
        if *v < 0.0 && *v > -1e-9 {
            *v = 0.0;
        }
    }
    let total: f64 = x.iter().sum();
    for v in &mut x {
        *v /= total;
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsin_minicheck::{check, Gen};

    /// The nested-vector generator `Ctmc` replaced, with its Gauss–Seidel
    /// and residual verbatim: the reference the flat layout must match bit
    /// for bit.
    struct NestedCtmc {
        out: Vec<Vec<(usize, f64)>>,
        inc: Vec<Vec<(usize, f64)>>,
        out_rate: Vec<f64>,
    }

    impl NestedCtmc {
        fn new(n: usize) -> Self {
            NestedCtmc {
                out: vec![Vec::new(); n],
                inc: vec![Vec::new(); n],
                out_rate: vec![0.0; n],
            }
        }

        fn add(&mut self, from: usize, to: usize, rate: f64) {
            self.out[from].push((to, rate));
            self.inc[to].push((from, rate));
            self.out_rate[from] += rate;
        }

        fn solve_with_guess(
            &self,
            guess: Option<&[f64]>,
            tol: f64,
            max_sweeps: usize,
        ) -> Result<Vec<f64>, SolveError> {
            let n = self.out.len();
            if n == 1 {
                return Ok(vec![1.0]);
            }
            let mut pi = match guess {
                Some(g)
                    if g.len() == n
                        && g.iter().all(|v| v.is_finite() && *v >= 0.0)
                        && g.iter().sum::<f64>() > 0.0 =>
                {
                    let total: f64 = g.iter().sum();
                    g.iter().map(|v| v / total).collect()
                }
                _ => vec![1.0 / n as f64; n],
            };
            let omega = 0.9;
            for sweep in 0..max_sweeps {
                let mut max_delta = 0.0_f64;
                for j in 0..n {
                    if self.out_rate[j] == 0.0 {
                        max_delta = max_delta.max(pi[j]);
                        pi[j] = 0.0;
                        continue;
                    }
                    let inflow: f64 = self.inc[j].iter().map(|&(i, q)| pi[i] * q).sum();
                    let next = (1.0 - omega) * pi[j] + omega * inflow / self.out_rate[j];
                    max_delta = max_delta.max((next - pi[j]).abs());
                    pi[j] = next;
                }
                let total: f64 = pi.iter().sum();
                if total <= 0.0 {
                    return Err(SolveError::NoConvergence {
                        iterations: sweep,
                        residual: f64::INFINITY,
                    });
                }
                for p in &mut pi {
                    *p /= total;
                }
                if max_delta / total < tol {
                    return Ok(pi);
                }
            }
            Err(SolveError::NoConvergence {
                iterations: max_sweeps,
                residual: self.balance_residual(&pi),
            })
        }

        fn balance_residual(&self, pi: &[f64]) -> f64 {
            (0..self.out.len())
                .map(|j| {
                    let inflow: f64 = self.inc[j].iter().map(|&(i, q)| pi[i] * q).sum();
                    (inflow - pi[j] * self.out_rate[j]).abs()
                })
                .fold(0.0, f64::max)
        }

        /// `Qᵀ` assembled source state by source state.
        fn dense_transposed(&self) -> Mat {
            let n = self.out.len();
            let mut a = Mat::zeros(n, n);
            for (from, outs) in self.out.iter().enumerate() {
                for &(to, rate) in outs {
                    a[(to, from)] += rate;
                    a[(from, from)] -= rate;
                }
            }
            a
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Solver outcomes compared bit for bit (errors by their fields' bits).
    fn same_outcome(a: &Result<Vec<f64>, SolveError>, b: &Result<Vec<f64>, SolveError>) -> bool {
        match (a, b) {
            (Ok(x), Ok(y)) => bits(x) == bits(y),
            (
                Err(SolveError::NoConvergence {
                    iterations: i,
                    residual: r,
                }),
                Err(SolveError::NoConvergence {
                    iterations: j,
                    residual: s,
                }),
            ) => i == j && r.to_bits() == s.to_bits(),
            _ => false,
        }
    }

    /// A random chain built into both layouts: interleaved source states,
    /// parallel transitions, and sometimes one state with no outflow.
    fn random_pair(g: &mut Gen) -> (Ctmc, NestedCtmc) {
        let n = g.usize_in(2, 12);
        let sink = g.bool().then(|| g.usize_in(0, n));
        let mut flat = Ctmc::new(n);
        let mut nested = NestedCtmc::new(n);
        let mut added: Vec<(usize, usize)> = Vec::new();
        for _ in 0..g.usize_in(n, 4 * n) {
            let (from, to) = if !added.is_empty() && g.usize_in(0, 4) == 0 {
                // A parallel transition with its own rate.
                added[g.usize_in(0, added.len())]
            } else {
                let from = g.usize_in(0, n);
                (from, (from + g.usize_in(1, n)) % n)
            };
            if Some(from) == sink {
                continue;
            }
            let rate = g.f64_in(0.05, 5.0);
            flat.add(from, to, rate);
            nested.add(from, to, rate);
            added.push((from, to));
        }
        (flat, nested)
    }

    #[test]
    fn flat_generator_matches_nested_reference_bit_for_bit() {
        check(256, |g| {
            let (flat, nested) = random_pair(g);
            let n = flat.num_states();
            let guess = match g.usize_in(0, 3) {
                0 => None,
                1 => Some(g.vec_f64(0.0, 1.0, n, n + 1)),
                // Wrong length: both fall back to the uniform start.
                _ => Some(vec![1.0; n + 1]),
            };
            let max_sweeps = g.usize_in(1, 3000);
            let got = gauss_seidel(&flat.incoming(), guess.as_deref(), 1e-12, max_sweeps);
            let want = nested.solve_with_guess(guess.as_deref(), 1e-12, max_sweeps);
            assert!(same_outcome(&got, &want), "{got:?} vs {want:?}");

            let probe = g.vec_f64(0.0, 1.0, n, n + 1);
            assert_eq!(
                flat.balance_residual(&probe).to_bits(),
                nested.balance_residual(&probe).to_bits()
            );

            let got = flat.solve_dense();
            let want = dense_stationary(nested.dense_transposed());
            assert!(same_outcome(&got, &want), "{got:?} vs {want:?}");
        });
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "stored as u32")]
    fn state_count_beyond_u32_rejected() {
        let _ = Ctmc::new(u32::MAX as usize + 1);
    }

    /// Birth-death chain helper: M/M/1/K with K+1 states.
    fn mm1k(lambda: f64, mu: f64, k: usize) -> Ctmc {
        let mut c = Ctmc::new(k + 1);
        for s in 0..k {
            c.add(s, s + 1, lambda);
            c.add(s + 1, s, mu);
        }
        c
    }

    #[test]
    fn two_state_chain_exact() {
        let mut c = Ctmc::new(2);
        c.add(0, 1, 3.0);
        c.add(1, 0, 1.0);
        let pi = c.solve().expect("converges");
        assert!((pi[0] - 0.25).abs() < 1e-10);
        assert!((pi[1] - 0.75).abs() < 1e-10);
        assert!(c.balance_residual(&pi) < 1e-10);
    }

    #[test]
    fn mm1k_matches_geometric_form() {
        let (lambda, mu, k) = (0.8, 1.0, 20);
        let c = mm1k(lambda, mu, k);
        let pi = c.solve().expect("converges");
        let rho: f64 = lambda / mu;
        let norm: f64 = (0..=k).map(|i| rho.powi(i as i32)).sum();
        for (i, &p) in pi.iter().enumerate() {
            let expect = rho.powi(i as i32) / norm;
            assert!((p - expect).abs() < 1e-9, "state {i}: {p} vs {expect}");
        }
    }

    #[test]
    fn dense_and_iterative_agree() {
        let c = mm1k(1.3, 1.0, 15); // overloaded truncated queue still has a steady state
        let a = c.solve().expect("gs");
        let b = c.solve_dense().expect("dense");
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-8, "{x} vs {y}");
        }
    }

    #[test]
    fn distribution_sums_to_one() {
        let c = mm1k(0.5, 1.0, 30);
        let pi = c.solve().expect("converges");
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(pi.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn expectation_computes_mean_queue() {
        let c = mm1k(0.5, 1.0, 60);
        let pi = c.solve().expect("converges");
        let l = c.expectation(&pi, |s| s as f64);
        // Practically M/M/1: L = rho/(1-rho) = 1.
        assert!((l - 1.0).abs() < 1e-6, "L = {l}");
    }

    #[test]
    fn transitions_iterator_roundtrips() {
        let mut c = Ctmc::new(3);
        c.add(0, 1, 1.0);
        c.add(1, 2, 2.0);
        c.add(2, 0, 3.0);
        let ts: Vec<Transition> = c.transitions().collect();
        assert_eq!(ts.len(), 3);
        assert!(ts.contains(&Transition {
            from: 1,
            to: 2,
            rate: 2.0
        }));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        Ctmc::new(2).add(1, 1, 1.0);
    }

    #[test]
    fn single_state_chain() {
        let c = Ctmc::new(1);
        assert_eq!(c.solve().expect("trivial"), vec![1.0]);
    }

    #[test]
    fn three_state_cycle_asymmetric() {
        // 0->1 (1), 1->2 (2), 2->0 (4): pi ∝ (1/out) along cycle flow:
        // flow f equal on all edges => pi_i = f/rate_i => pi ∝ (1, 1/2, 1/4).
        let mut c = Ctmc::new(3);
        c.add(0, 1, 1.0);
        c.add(1, 2, 2.0);
        c.add(2, 0, 4.0);
        let pi = c.solve().expect("converges");
        assert!((pi[0] - 4.0 / 7.0).abs() < 1e-9);
        assert!((pi[1] - 2.0 / 7.0).abs() < 1e-9);
        assert!((pi[2] - 1.0 / 7.0).abs() < 1e-9);
    }
}
