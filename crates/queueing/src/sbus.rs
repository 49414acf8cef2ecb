//! The single-shared-bus Markov chain (Section III, Fig. 3, eqs. (1)–(2)).
//!
//! A bus connects `p` processors to `r` identical resources. Tasks arrive at
//! each processor as a Poisson stream of rate λ (aggregate `Λ = pλ`), wait in
//! FIFO order, transmit over the bus for an `Exp(µ_n)` period once a free
//! resource exists, then occupy that resource for `Exp(µ_s)`; the bus is
//! released at end of transmission and resources have no queue.
//!
//! The state is `N^ℓ_{n,s}`: `ℓ` tasks queued (excluding the one on the bus),
//! `n ∈ {0,1}` tasks transmitting, and `s` busy resources. Two structural
//! rules from the paper shape the chain:
//!
//! * a queued task starts transmitting the instant the bus frees **and** a
//!   free resource exists — so for `ℓ ≥ 1` the bus is only idle when `s = r`;
//! * when a transmission finishes and fills the last resource
//!   (`N^ℓ_{1,r-1} → N^ℓ_{0,r}`), the queue length does not change, because
//!   the next task cannot begin transmission.
//!
//! The queueing delay `d` — the time from arrival until the task is allocated
//! a resource and begins transmission — follows from Little's formula over
//! the queued-task count (eq. (1)).
//!
//! Three solvers are provided:
//!
//! * [`SharedBusChain::solve`] — exact **matrix-geometric** solution. For
//!   stages `ℓ ≥ 1` the chain is a level-independent QBD, so
//!   `π_{ℓ+1} = π_ℓ R` where `R` solves `A0 + R·A1 + R²·A2 = 0`; the boundary
//!   (stage 0 and stage 1) is solved exactly and tail sums are closed forms
//!   in `(I−R)⁻¹`. This is the library's reference answer at every load.
//! * [`SharedBusChain::solve_paper_iterative`] — the paper's method: express
//!   every stage in terms of *elementary states* at stage `q+1` via the
//!   recursion of eq. (2), fix the elementary vector with the unused
//!   boundary balance equations plus normalization, and grow `q` until the
//!   delay estimate stops improving ("until d starts to decrease").
//! * [`SharedBusChain::solve_truncated`] — builds the truncated chain
//!   explicitly and solves all `(r+1)(q+1)` balance equations simultaneously
//!   (the paper's cross-check, which agreed "within four digits").
//!
//! Every solve is cold and standalone: the `R` iteration always starts from
//! zero and the stage recursion always starts at `q = 4`, so a solution
//! depends only on its parameters. Repeated points are deduplicated by
//! [`solve_shared_bus_cached`](crate::solve_shared_bus_cached), never by
//! reusing a neighbour's state.

use crate::error::SolveError;
use crate::linalg::{solve_linear, Mat};
use crate::markov::Ctmc;

/// Parameters of a single shared bus connecting processors to resources.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SharedBusParams {
    /// Number of processors attached to the bus (`p`).
    pub processors: u32,
    /// Number of resources attached to the bus (`r`).
    pub resources: u32,
    /// Task arrival rate per processor (`λ`).
    pub lambda: f64,
    /// Bus transmission rate (`µ_n`; mean transmission time `1/µ_n`).
    pub mu_n: f64,
    /// Resource service rate (`µ_s`; mean service time `1/µ_s`).
    pub mu_s: f64,
}

/// Steady-state metrics of the shared-bus chain.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SharedBusSolution {
    /// `d`: mean delay from arrival until resource allocation (transmission
    /// start), eq. (1).
    pub mean_queue_delay: f64,
    /// `d · µ_s`: delay normalized by the mean task service time, the unit
    /// used on the paper's figures.
    pub normalized_delay: f64,
    /// Mean time from arrival to service completion (`d + 1/µ_n + 1/µ_s`).
    pub mean_response_time: f64,
    /// Mean number of queued tasks (excludes the task on the bus).
    pub mean_queue_length: f64,
    /// Fraction of time the bus is transmitting.
    pub bus_utilization: f64,
    /// Mean fraction of busy resources.
    pub resource_utilization: f64,
    /// Queue stages represented by the solver (`usize::MAX` for the exact
    /// matrix-geometric solution, which carries the full infinite tail).
    pub stages: usize,
    /// Maximum balance-equation residual of the returned distribution.
    pub residual: f64,
}

/// The shared-bus Markov chain model.
///
/// # Examples
///
/// ```
/// use rsin_queueing::{SharedBusChain, SharedBusParams};
///
/// // One processor with two private resources (one partition of the paper's
/// // 16/16x1x1 SBUS/2 system) at moderate load.
/// let chain = SharedBusChain::new(SharedBusParams {
///     processors: 1,
///     resources: 2,
///     lambda: 0.3,
///     mu_n: 10.0,
///     mu_s: 1.0,
/// })?;
/// let sol = chain.solve()?;
/// assert!(sol.mean_queue_delay > 0.0);
/// assert!(sol.residual < 1e-8);
/// # Ok::<(), rsin_queueing::SolveError>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SharedBusChain {
    params: SharedBusParams,
}

/// Erlang-B via the stable recurrence (offered load `a`, `r` servers).
fn erlang_b(a: f64, r: u32) -> f64 {
    let mut b = 1.0;
    for k in 1..=r {
        b = a * b / (k as f64 + a * b);
    }
    b
}

impl SharedBusChain {
    /// Validates parameters and builds the model.
    ///
    /// # Errors
    ///
    /// [`SolveError::BadParameter`] for non-positive counts or rates;
    /// [`SolveError::Unstable`] when the offered load `pλ` meets or exceeds
    /// the saturation throughput of the bus–resource pipeline.
    pub fn new(params: SharedBusParams) -> Result<Self, SolveError> {
        if params.processors == 0 {
            return Err(SolveError::BadParameter {
                what: "processor count must be positive",
            });
        }
        if params.resources == 0 {
            return Err(SolveError::BadParameter {
                what: "resource count must be positive",
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
        let chain = SharedBusChain { params };
        let cap = chain.saturation_throughput();
        if chain.arrival_rate() >= cap {
            return Err(SolveError::Unstable {
                utilization: chain.arrival_rate() / cap,
            });
        }
        Ok(chain)
    }

    /// The model parameters.
    #[must_use]
    pub fn params(&self) -> SharedBusParams {
        self.params
    }

    /// Aggregate arrival rate `Λ = pλ`.
    #[must_use]
    pub fn arrival_rate(&self) -> f64 {
        self.params.processors as f64 * self.params.lambda
    }

    /// Maximum sustainable throughput of the coupled bus–resource system.
    ///
    /// In saturation the bus transmits whenever a resource is free, so the
    /// busy-resource count is a birth–death chain with birth rate `µ_n`
    /// (below `r`) and death rate `sµ_s`; the bus stalls with the Erlang-B
    /// probability of that chain, giving throughput
    /// `µ_n · (1 − B(µ_n/µ_s, r))`.
    #[must_use]
    pub fn saturation_throughput(&self) -> f64 {
        let a = self.params.mu_n / self.params.mu_s;
        self.params.mu_n * (1.0 - erlang_b(a, self.params.resources))
    }

    /// Offered load relative to saturation throughput (must be `< 1`).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.arrival_rate() / self.saturation_throughput()
    }

    // ---- QBD blocks -------------------------------------------------------
    //
    // In-level order for stages ℓ ≥ 1: index k < r ↦ N^ℓ_{1,k}, k = r ↦
    // N^ℓ_{0,r}. Row convention: π_{ℓ-1}·A0 + π_ℓ·A1 + π_{ℓ+1}·A2 = 0.

    fn block_a0(&self) -> Mat {
        let r = self.params.resources as usize;
        let lam = self.arrival_rate();
        let mut a0 = Mat::zeros(r + 1, r + 1);
        for k in 0..=r {
            a0[(k, k)] = lam;
        }
        a0
    }

    fn block_a1(&self) -> Mat {
        let r = self.params.resources as usize;
        let lam = self.arrival_rate();
        let (mu_n, mu_s) = (self.params.mu_n, self.params.mu_s);
        let mut a1 = Mat::zeros(r + 1, r + 1);
        for k in 0..r {
            a1[(k, k)] = -(lam + mu_n + k as f64 * mu_s);
            if k >= 1 {
                a1[(k, k - 1)] = k as f64 * mu_s;
            }
        }
        a1[(r - 1, r)] += mu_n; // N_{1,r-1} --µn--> N_{0,r}, same stage
        a1[(r, r)] = -(lam + r as f64 * mu_s);
        a1
    }

    fn block_a2(&self) -> Mat {
        let r = self.params.resources as usize;
        let (mu_n, mu_s) = (self.params.mu_n, self.params.mu_s);
        let mut a2 = Mat::zeros(r + 1, r + 1);
        for k in 0..r.saturating_sub(1) {
            a2[(k, k + 1)] = mu_n; // transmission ends, next task starts
        }
        a2[(r, r - 1)] = r as f64 * mu_s; // N_{0,r} --rµs--> N_{1,r-1} below
        a2
    }

    /// Iterates `R = −(A0 + R²·A2)·A1⁻¹` to convergence, from zero (the
    /// iteration is monotone from below, so it settles on the minimal
    /// nonnegative solution).
    fn rate_matrix(&self) -> Result<Mat, SolveError> {
        let a0 = self.block_a0();
        let a1 = self.block_a1();
        let a2 = self.block_a2();
        let a1_inv = a1.inverse().ok_or(SolveError::NoConvergence {
            iterations: 0,
            residual: f64::INFINITY,
        })?;
        let n = a0.n_rows;
        let mut r_mat = Mat::zeros(n, n);
        let budget = 2_000_000usize;
        let mut last_diff = f64::INFINITY;
        for it in 0..budget {
            let rr = r_mat.mul(&r_mat);
            let next = {
                let mut t = a0.add(&rr.mul(&a2));
                // negate then multiply by A1⁻¹
                for v in &mut t.a {
                    *v = -*v;
                }
                t.mul(&a1_inv)
            };
            let diff = next.max_abs_diff(&r_mat);
            r_mat = next;
            if diff < 1e-15 {
                return Ok(r_mat);
            }
            if !diff.is_finite() || diff > 1e9 {
                return Err(SolveError::NoConvergence {
                    iterations: it + 1,
                    residual: diff,
                });
            }
            last_diff = diff;
        }
        Err(SolveError::NoConvergence {
            iterations: budget,
            residual: last_diff,
        })
    }

    /// Exact matrix-geometric solution (the library's primary solver).
    ///
    /// # Errors
    ///
    /// [`SolveError::NoConvergence`] if the `R`-matrix iteration or the
    /// boundary system fails (does not occur for validated, stable
    /// parameters in practice).
    pub fn solve(&self) -> Result<SharedBusSolution, SolveError> {
        let r_mat = self.rate_matrix()?;
        let r = self.params.resources as usize;
        let lam = self.arrival_rate();
        let (mu_n, mu_s) = (self.params.mu_n, self.params.mu_s);
        let n1 = r + 1; // block size of repeating stages
        let n0 = 2 * r + 1; // stage-0 size

        let a1 = self.block_a1();
        let a2 = self.block_a2();

        // Stage-0 indexing: j ∈ 0..=r ↦ N^0_{0,j}; j ∈ r+1..=2r ↦ N^0_{1,j-r-1}.
        let i00 = |s: usize| s;
        let i01 = |s: usize| r + 1 + s;

        // B00: stage-0 internal generator (diagonal carries total outflow,
        // including flows that leave stage 0).
        let mut b00 = Mat::zeros(n0, n0);
        for s in 0..=r {
            b00[(i00(s), i00(s))] = -(lam + s as f64 * mu_s);
            if s >= 1 {
                b00[(i00(s), i00(s - 1))] = s as f64 * mu_s;
            }
            if s < r {
                b00[(i00(s), i01(s))] = lam;
            }
        }
        for s in 0..r {
            b00[(i01(s), i01(s))] = -(lam + mu_n + s as f64 * mu_s);
            b00[(i01(s), i00(s + 1))] = mu_n;
            if s >= 1 {
                b00[(i01(s), i01(s - 1))] = s as f64 * mu_s;
            }
        }
        // B01: stage 0 → stage 1 (arrivals).
        let mut b01 = Mat::zeros(n0, n1);
        b01[(i00(r), r)] = lam;
        for s in 0..r {
            b01[(i01(s), s)] = lam;
        }
        // B10: stage 1 → stage 0.
        let mut b10 = Mat::zeros(n1, n0);
        for s in 0..r.saturating_sub(1) {
            b10[(s, i01(s + 1))] = mu_n;
        }
        b10[(r, i01(r - 1))] = r as f64 * mu_s;

        // Unknowns x = [π0 (n0), π1 (n1)].
        // Equations: balance at each stage-0 state (π0·B00 + π1·B10 = 0),
        // balance at each stage-1 state (π0·B01 + π1·(A1 + R·A2) = 0),
        // with one equation replaced by normalization
        // π0·1 + π1·(I−R)⁻¹·1 = 1.
        let dim = n0 + n1;
        let mut m = Mat::zeros(dim, dim);
        let mut rhs = vec![0.0; dim];
        for j in 0..n0 {
            for i in 0..n0 {
                m[(j, i)] = b00[(i, j)];
            }
            for k in 0..n1 {
                m[(j, n0 + k)] = b10[(k, j)];
            }
        }
        let a1_ra2 = a1.add(&r_mat.mul(&a2));
        for j in 0..n1 {
            for i in 0..n0 {
                m[(n0 + j, i)] = b01[(i, j)];
            }
            for k in 0..n1 {
                m[(n0 + j, n0 + k)] = a1_ra2[(k, j)];
            }
        }
        let i_minus_r = Mat::identity(n1).sub(&r_mat);
        let sum_r = i_minus_r.inverse().ok_or(SolveError::NoConvergence {
            iterations: 0,
            residual: f64::INFINITY,
        })?;
        let tail_weights = sum_r.mat_vec(&vec![1.0; n1]);
        // Replace the first equation with normalization.
        for i in 0..n0 {
            m[(0, i)] = 1.0;
        }
        for k in 0..n1 {
            m[(0, n0 + k)] = tail_weights[k];
        }
        rhs[0] = 1.0;

        let x = solve_linear(&m, &rhs).ok_or(SolveError::NoConvergence {
            iterations: 0,
            residual: f64::INFINITY,
        })?;
        let pi0 = &x[..n0];
        let pi1 = &x[n0..];

        // Tail sums: Σ_{ℓ≥1} π_ℓ = π1·(I−R)⁻¹, Σ ℓ·π_ℓ = π1·(I−R)⁻².
        let tail_mass = sum_r.row_vec_mul(pi1);
        let tail_weighted = sum_r.row_vec_mul(&tail_mass);

        let mean_queue: f64 = tail_weighted.iter().sum();
        let mut bus_busy: f64 = (0..r).map(|s| pi0[i01(s)]).sum();
        bus_busy += tail_mass[..r].iter().sum::<f64>();
        let mut busy_res: f64 = (0..=r).map(|s| s as f64 * pi0[i00(s)]).sum();
        busy_res += (0..r).map(|s| s as f64 * pi0[i01(s)]).sum::<f64>();
        busy_res += tail_mass
            .iter()
            .enumerate()
            .map(|(k, &p)| if k < r { k as f64 * p } else { r as f64 * p })
            .sum::<f64>();

        // Residual diagnostic: balance at stages 0..2 with π2 = π1·R.
        let pi2 = r_mat.row_vec_mul(pi1);
        let pi3 = r_mat.row_vec_mul(&pi2);
        let mut residual = 0.0_f64;
        {
            let v0 = b00.row_vec_mul(pi0);
            let v1 = b10.row_vec_mul(pi1);
            for j in 0..n0 {
                residual = residual.max((v0[j] + v1[j]).abs());
            }
            let w0 = b01.row_vec_mul(pi0);
            let w1 = a1.row_vec_mul(pi1);
            let w2 = a2.row_vec_mul(&pi2);
            for j in 0..n1 {
                residual = residual.max((w0[j] + w1[j] + w2[j]).abs());
            }
            let a0 = self.block_a0();
            let u0 = a0.row_vec_mul(pi1);
            let u1 = a1.row_vec_mul(&pi2);
            let u2 = a2.row_vec_mul(&pi3);
            for j in 0..n1 {
                residual = residual.max((u0[j] + u1[j] + u2[j]).abs());
            }
        }

        let d = mean_queue / lam;
        Ok(SharedBusSolution {
            mean_queue_delay: d,
            normalized_delay: d * mu_s,
            mean_response_time: d + 1.0 / mu_n + 1.0 / mu_s,
            mean_queue_length: mean_queue,
            bus_utilization: bus_busy,
            resource_utilization: busy_res / r as f64,
            stages: usize::MAX,
            residual,
        })
    }

    /// The paper's iterative stage-recursion procedure.
    ///
    /// Solves with elementary stages `q = 4, 8, 16, …`, each time expressing
    /// all lower stages in terms of the elementary states via eq. (2) and
    /// fixing the elementary vector from the boundary balance equations plus
    /// normalization, and stops when the delay estimate stabilizes or starts
    /// to decrease (the paper's numeric-precision stopping rule).
    ///
    /// # Errors
    ///
    /// [`SolveError::NoConvergence`] if no `q` yields a solvable boundary
    /// system.
    pub fn solve_paper_iterative(&self) -> Result<SharedBusSolution, SolveError> {
        let mut best: Option<SharedBusSolution> = None;
        let mut q = 4;
        while q <= 4096 {
            if let Some(sol) = self.stage_recursion(q) {
                if let Some(prev) = best {
                    let change = sol.mean_queue_delay - prev.mean_queue_delay;
                    if change < 0.0 {
                        // Precision exhausted: keep the previous estimate.
                        return Ok(prev);
                    }
                    if change / sol.mean_queue_delay.max(1e-300) < 1e-12 {
                        return Ok(sol);
                    }
                }
                best = Some(sol);
            }
            q *= 2;
        }
        best.ok_or(SolveError::NoConvergence {
            iterations: 4096,
            residual: f64::INFINITY,
        })
    }

    /// One stage-recursion solve with elementary states at stage `q+1`.
    ///
    /// Runs the downward recursion once per elementary basis vector, then
    /// solves for the basis coefficients using the `r` boundary balance
    /// equations at `N^0_{1,s}` plus normalization.
    fn stage_recursion(&self, q: usize) -> Option<SharedBusSolution> {
        let r = self.params.resources as usize;
        let lam = self.arrival_rate();
        let (mu_n, mu_s) = (self.params.mu_n, self.params.mu_s);
        let width = r + 1;
        let stages = q + 1;

        struct BasisRun {
            total: f64,
            queue: f64,
            bus: f64,
            busy: f64,
            boundary_residual: Vec<f64>,
        }

        let mut runs = Vec::with_capacity(width);
        for b in 0..width {
            // u[ℓ] for ℓ in 1..=stages; stage index 0 of `u` is ℓ=1.
            let mut u = vec![vec![0.0_f64; width]; stages];
            u[stages - 1][b] = 1.0;
            for l in (2..=stages).rev() {
                let cur = u[l - 1].clone();
                let above = if l < stages {
                    u[l].clone()
                } else {
                    vec![0.0; width]
                };
                let prev = &mut u[l - 2];
                for s in 0..r {
                    let mut v = (lam + mu_n + s as f64 * mu_s) * cur[s];
                    if s < r - 1 {
                        v -= (s + 1) as f64 * mu_s * cur[s + 1];
                    }
                    if s >= 1 {
                        v -= mu_n * above[s - 1];
                    }
                    if s == r - 1 {
                        v -= r as f64 * mu_s * above[r];
                    }
                    prev[s] = v / lam;
                }
                prev[r] = ((lam + r as f64 * mu_s) * cur[r] - mu_n * cur[r - 1]) / lam;
                let m = prev.iter().fold(0.0_f64, |a, &v| a.max(v.abs()));
                if m > 1e220 {
                    for stage in u.iter_mut() {
                        for v in stage.iter_mut() {
                            *v *= 1e-200;
                        }
                    }
                }
            }
            // Stage-0 states from stage-1 balance.
            let s1 = u[0].clone();
            let s2 = if stages >= 2 {
                u[1].clone()
            } else {
                vec![0.0; width]
            };
            let mut zero_n1 = vec![0.0_f64; r];
            let mut zero_n0 = vec![0.0_f64; r + 1];
            for s in 0..r {
                let mut v = (lam + mu_n + s as f64 * mu_s) * s1[s];
                if s < r - 1 {
                    v -= (s + 1) as f64 * mu_s * s1[s + 1];
                }
                if s >= 1 {
                    v -= mu_n * s2[s - 1];
                }
                if s == r - 1 {
                    v -= r as f64 * mu_s * s2[r];
                }
                zero_n1[s] = v / lam;
            }
            zero_n0[r] = ((lam + r as f64 * mu_s) * s1[r] - mu_n * s1[r - 1]) / lam;
            for s in (0..r).rev() {
                let mut v = (s + 1) as f64 * mu_s * zero_n0[s + 1];
                if s >= 1 {
                    v += mu_n * zero_n1[s - 1];
                }
                zero_n0[s] = v / (lam + s as f64 * mu_s);
            }
            // Boundary residuals at N^0_{1,s} (the equations not yet used).
            let mut boundary = vec![0.0_f64; r];
            for (s, slot) in boundary.iter_mut().enumerate() {
                let mut inflow = lam * zero_n0[s];
                if s < r - 1 {
                    inflow += (s + 1) as f64 * mu_s * zero_n1[s + 1];
                }
                if s >= 1 {
                    inflow += mu_n * s1[s - 1];
                }
                if s == r - 1 {
                    inflow += r as f64 * mu_s * s1[r];
                }
                let outflow = (lam + mu_n + s as f64 * mu_s) * zero_n1[s];
                *slot = inflow - outflow;
            }
            // Linear functionals of this basis run.
            let mut total: f64 = zero_n0.iter().sum::<f64>() + zero_n1.iter().sum::<f64>();
            let mut queue = 0.0;
            let mut bus: f64 = zero_n1.iter().sum();
            let mut busy: f64 = zero_n0
                .iter()
                .enumerate()
                .map(|(s, &p)| s as f64 * p)
                .sum::<f64>()
                + zero_n1
                    .iter()
                    .enumerate()
                    .map(|(s, &p)| s as f64 * p)
                    .sum::<f64>();
            for (i, stage) in u.iter().enumerate() {
                let l = (i + 1) as f64;
                let mass: f64 = stage.iter().sum();
                total += mass;
                queue += l * mass;
                bus += stage[..r].iter().sum::<f64>();
                busy += stage
                    .iter()
                    .enumerate()
                    .map(|(k, &p)| if k < r { k as f64 * p } else { r as f64 * p })
                    .sum::<f64>();
            }
            runs.push(BasisRun {
                total,
                queue,
                bus,
                busy,
                boundary_residual: boundary,
            });
        }

        // Solve for coefficients: r boundary equations + normalization.
        let mut m = Mat::zeros(width, width);
        let mut rhs = vec![0.0; width];
        for s in 0..r {
            for (b, run) in runs.iter().enumerate() {
                m[(s, b)] = run.boundary_residual[s];
            }
        }
        for (b, run) in runs.iter().enumerate() {
            m[(r, b)] = run.total;
        }
        rhs[r] = 1.0;
        let c = solve_linear(&m, &rhs)?;

        let mean_queue: f64 = runs.iter().zip(&c).map(|(r_, &cb)| cb * r_.queue).sum();
        let bus_busy: f64 = runs.iter().zip(&c).map(|(r_, &cb)| cb * r_.bus).sum();
        let busy_res: f64 = runs.iter().zip(&c).map(|(r_, &cb)| cb * r_.busy).sum();
        if !(mean_queue.is_finite() && mean_queue >= 0.0) {
            return None;
        }
        let d = mean_queue / lam;
        Some(SharedBusSolution {
            mean_queue_delay: d,
            normalized_delay: d * mu_s,
            mean_response_time: d + 1.0 / mu_n + 1.0 / mu_s,
            mean_queue_length: mean_queue,
            bus_utilization: bus_busy,
            resource_utilization: busy_res / r as f64,
            stages: q + 1,
            residual: f64::NAN, // diagnostic defined only for the exact solvers
        })
    }

    /// Reference solver: builds the truncated chain explicitly (queue capped
    /// at `max_stage`) and solves every balance equation simultaneously via
    /// Gauss–Seidel — the comparison method mentioned in the paper.
    ///
    /// # Errors
    ///
    /// Propagates [`SolveError::NoConvergence`] from the CTMC solver.
    pub fn solve_truncated(&self, max_stage: usize) -> Result<SharedBusSolution, SolveError> {
        let r = self.params.resources as usize;
        let lam = self.arrival_rate();
        let (mu_n, mu_s) = (self.params.mu_n, self.params.mu_s);

        let stage0 = 2 * r + 1;
        let idx0_n0 = |s: usize| s;
        let idx0_n1 = |s: usize| r + 1 + s;
        let idx = |l: usize, k: usize| stage0 + (l - 1) * (r + 1) + k;
        let n = stage0 + max_stage * (r + 1);
        let mut c = Ctmc::new(n);

        for s in 0..=r {
            if s < r {
                c.add(idx0_n0(s), idx0_n1(s), lam);
            } else {
                c.add(idx0_n0(r), idx(1, r), lam);
            }
            if s >= 1 {
                c.add(idx0_n0(s), idx0_n0(s - 1), s as f64 * mu_s);
            }
        }
        for s in 0..r {
            c.add(idx0_n1(s), idx(1, s), lam);
            c.add(idx0_n1(s), idx0_n0(s + 1), mu_n);
            if s >= 1 {
                c.add(idx0_n1(s), idx0_n1(s - 1), s as f64 * mu_s);
            }
        }
        for l in 1..=max_stage {
            for s in 0..r {
                if l < max_stage {
                    c.add(idx(l, s), idx(l + 1, s), lam);
                }
                if s < r - 1 {
                    let dest = if l == 1 {
                        idx0_n1(s + 1)
                    } else {
                        idx(l - 1, s + 1)
                    };
                    c.add(idx(l, s), dest, mu_n);
                } else {
                    c.add(idx(l, s), idx(l, r), mu_n);
                }
                if s >= 1 {
                    c.add(idx(l, s), idx(l, s - 1), s as f64 * mu_s);
                }
            }
            if l < max_stage {
                c.add(idx(l, r), idx(l + 1, r), lam);
            }
            let dest = if l == 1 {
                idx0_n1(r - 1)
            } else {
                idx(l - 1, r - 1)
            };
            c.add(idx(l, r), dest, r as f64 * mu_s);
        }

        let pi = c.solve()?;
        let residual = c.balance_residual(&pi);

        let mut mean_queue = 0.0;
        let mut bus_busy = 0.0;
        let mut busy_res = 0.0;
        for s in 0..=r {
            busy_res += s as f64 * pi[idx0_n0(s)];
        }
        for s in 0..r {
            bus_busy += pi[idx0_n1(s)];
            busy_res += s as f64 * pi[idx0_n1(s)];
        }
        for l in 1..=max_stage {
            for k in 0..=r {
                let p = pi[idx(l, k)];
                mean_queue += l as f64 * p;
                if k < r {
                    bus_busy += p;
                    busy_res += k as f64 * p;
                } else {
                    busy_res += r as f64 * p;
                }
            }
        }
        let d = mean_queue / lam;
        Ok(SharedBusSolution {
            mean_queue_delay: d,
            normalized_delay: d * mu_s,
            mean_response_time: d + 1.0 / mu_n + 1.0 / mu_s,
            mean_queue_length: mean_queue,
            bus_utilization: bus_busy,
            resource_utilization: busy_res / r as f64,
            stages: max_stage,
            residual,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mm1::Mm1;
    use crate::mmr::Mmr;

    fn params(p: u32, r: u32, lambda: f64, mu_n: f64, mu_s: f64) -> SharedBusParams {
        SharedBusParams {
            processors: p,
            resources: r,
            lambda,
            mu_n,
            mu_s,
        }
    }

    #[test]
    fn rejects_bad_and_unstable_parameters() {
        assert!(SharedBusChain::new(params(0, 1, 1.0, 1.0, 1.0)).is_err());
        assert!(SharedBusChain::new(params(1, 0, 1.0, 1.0, 1.0)).is_err());
        assert!(SharedBusChain::new(params(1, 1, -1.0, 1.0, 1.0)).is_err());
        // Saturation for r=1, mu_n=mu_s=1: a=1, B=1/2, cap=0.5.
        assert!(matches!(
            SharedBusChain::new(params(1, 1, 0.6, 1.0, 1.0)),
            Err(SolveError::Unstable { .. })
        ));
        assert!(SharedBusChain::new(params(1, 1, 0.4, 1.0, 1.0)).is_ok());
    }

    #[test]
    fn saturation_throughput_closed_form() {
        let c = SharedBusChain::new(params(1, 2, 0.1, 1.0, 1.0)).expect("stable");
        // a=1, r=2: b1 = 1/2, b2 = .5/(2+.5) = .2 → cap = 0.8.
        assert!((c.saturation_throughput() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn matrix_geometric_matches_truncated_solver() {
        for (p, r, lam, mu_n, mu_s) in [
            (4, 2, 0.05, 1.0, 0.5),
            (1, 3, 0.2, 2.0, 1.0),
            (8, 4, 0.03, 1.0, 1.0),
            (2, 1, 0.1, 1.0, 2.0),
        ] {
            let chain = SharedBusChain::new(params(p, r, lam, mu_n, mu_s)).expect("stable");
            let a = chain.solve().expect("matrix-geometric");
            let b = chain.solve_truncated(96).expect("gs converges");
            let rel =
                (a.mean_queue_delay - b.mean_queue_delay).abs() / b.mean_queue_delay.max(1e-12);
            assert!(
                rel < 1e-5,
                "p={p} r={r}: exact {} vs truncated {} (rel {rel})",
                a.mean_queue_delay,
                b.mean_queue_delay
            );
            assert!((a.bus_utilization - b.bus_utilization).abs() < 1e-5);
            assert!((a.resource_utilization - b.resource_utilization).abs() < 1e-5);
        }
    }

    #[test]
    fn paper_iterative_matches_matrix_geometric() {
        for (p, r, lam, mu_n, mu_s) in [
            (4, 2, 0.05, 1.0, 0.5),
            (1, 3, 0.2, 2.0, 1.0),
            (16, 2, 0.004, 1.0, 0.1),
        ] {
            let chain = SharedBusChain::new(params(p, r, lam, mu_n, mu_s)).expect("stable");
            let exact = chain.solve().expect("exact").mean_queue_delay;
            let paper = chain
                .solve_paper_iterative()
                .expect("paper method")
                .mean_queue_delay;
            // The paper reports its two methods agree "within four digits";
            // hold the reimplementation to the same standard.
            let rel = (exact - paper).abs() / exact.max(1e-12);
            assert!(
                rel < 5e-4,
                "p={p} r={r}: exact {exact} vs paper {paper} (rel {rel})"
            );
        }
    }

    #[test]
    fn paper_iterative_degrades_gracefully_under_heavy_load() {
        // At ~70% utilization the elementary-state columns become nearly
        // collinear and the paper's method loses digits before the tail is
        // fully captured — the behavior the paper describes as "maximum
        // precision ... attained". It must still land within a few percent.
        let chain = SharedBusChain::new(params(16, 2, 0.008, 1.0, 0.1)).expect("stable");
        let exact = chain.solve().expect("exact").mean_queue_delay;
        let paper = chain
            .solve_paper_iterative()
            .expect("paper method")
            .mean_queue_delay;
        let rel = (exact - paper).abs() / exact;
        assert!(rel < 0.05, "exact {exact} vs paper {paper} (rel {rel})");
    }

    #[test]
    fn fast_transmission_limit_is_mmr() {
        // mu_n huge: waiting is dominated by waiting for a free resource.
        let (p, r, lam, mu_s) = (4, 3, 0.6, 1.0);
        let chain = SharedBusChain::new(params(p, r, lam, 1e5, mu_s)).expect("stable");
        let sol = chain.solve().expect("converges");
        let mmr = Mmr::new(p as f64 * lam, mu_s, r).expect("stable");
        let rel =
            (sol.mean_queue_delay - mmr.mean_wait_in_queue()).abs() / mmr.mean_wait_in_queue();
        assert!(
            rel < 0.01,
            "chain d {} vs M/M/r Wq {}",
            sol.mean_queue_delay,
            mmr.mean_wait_in_queue()
        );
    }

    #[test]
    fn fast_service_limit_is_mm1() {
        // mu_s huge: resources always free; bus is an M/M/1 server.
        let (p, r, lam, mu_n) = (4, 2, 0.15, 1.0);
        let chain = SharedBusChain::new(params(p, r, lam, mu_n, 1e5)).expect("stable");
        let sol = chain.solve().expect("converges");
        let mm1 = Mm1::new(p as f64 * lam, mu_n).expect("stable");
        let rel =
            (sol.mean_queue_delay - mm1.mean_wait_in_queue()).abs() / mm1.mean_wait_in_queue();
        assert!(
            rel < 0.01,
            "chain d {} vs M/M/1 Wq {}",
            sol.mean_queue_delay,
            mm1.mean_wait_in_queue()
        );
    }

    #[test]
    fn many_resources_limit_is_mm1() {
        // r large: a free resource always exists.
        let chain = SharedBusChain::new(params(2, 64, 0.3, 1.0, 0.05)).expect("stable");
        let sol = chain.solve().expect("converges");
        let mm1 = Mm1::new(0.6, 1.0).expect("stable");
        let rel =
            (sol.mean_queue_delay - mm1.mean_wait_in_queue()).abs() / mm1.mean_wait_in_queue();
        assert!(rel < 0.02, "rel {rel}");
    }

    #[test]
    fn delay_increases_with_load() {
        let mut prev = 0.0;
        for i in 1..8 {
            let lam = 0.05 * i as f64;
            let chain = SharedBusChain::new(params(1, 2, lam, 1.0, 1.0)).expect("stable");
            let d = chain.solve().expect("converges").mean_queue_delay;
            assert!(d > prev, "delay must grow with load: {d} after {prev}");
            prev = d;
        }
    }

    #[test]
    fn utilizations_match_flow_arguments() {
        let chain = SharedBusChain::new(params(4, 3, 0.05, 1.0, 0.5)).expect("stable");
        let sol = chain.solve().expect("converges");
        // Bus carries all Λ at rate mu_n: utilization = Λ/µ_n.
        assert!((sol.bus_utilization - 0.2 / 1.0).abs() < 1e-6);
        // Resources carry Λ at rate µ_s each: E[s] = Λ/µ_s; util = Λ/(rµ_s).
        assert!((sol.resource_utilization - 0.2 / (3.0 * 0.5)).abs() < 1e-6);
    }

    #[test]
    fn normalized_delay_and_response_consistent() {
        let chain = SharedBusChain::new(params(2, 2, 0.1, 2.0, 1.0)).expect("stable");
        let sol = chain.solve().expect("converges");
        assert!((sol.normalized_delay - sol.mean_queue_delay * 1.0).abs() < 1e-12);
        assert!((sol.mean_response_time - (sol.mean_queue_delay + 0.5 + 1.0)).abs() < 1e-12);
        assert!((sol.mean_queue_length - 0.2 * sol.mean_queue_delay).abs() < 1e-9);
    }

    #[test]
    fn heavy_load_still_solves() {
        // 95% of saturation.
        let cap = SharedBusChain::new(params(16, 2, 1e-6, 1.0, 1.0))
            .expect("stable")
            .saturation_throughput();
        let lam = 0.95 * cap / 16.0;
        let chain = SharedBusChain::new(params(16, 2, lam, 1.0, 1.0)).expect("stable");
        let sol = chain.solve().expect("converges");
        assert!(sol.mean_queue_delay > 5.0, "heavy load ⇒ long delay");
        assert!(sol.residual < 1e-8);
    }

    #[test]
    fn exact_solution_has_tiny_residual() {
        let chain = SharedBusChain::new(params(8, 4, 0.02, 1.0, 0.2)).expect("stable");
        let sol = chain.solve().expect("converges");
        assert!(sol.residual < 1e-10, "residual {}", sol.residual);
    }
}
