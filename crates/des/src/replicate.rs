//! Independent replications of a stochastic experiment.
//!
//! The RSIN simulation studies report steady-state means; running `R`
//! independent replications with derived seeds gives iid estimates whose
//! spread yields an honest confidence interval (see
//! [`stats::replication_interval`](crate::stats::replication_interval)).
//!
//! Replications are embarrassingly parallel: replication `i` draws from the
//! independent stream `base.derive(i)` and nothing else, so [`replicate_par`]
//! distributes them over scoped threads ([`scope_map`](crate::scope_map))
//! and collects the estimates by index — the [`Replicated`] output is
//! **bitwise identical** for any worker count, `jobs = 1` (sequential,
//! inline) included.

use crate::parallel::scope_map_indexed;
use crate::rng::SimRng;
use crate::stats::{replication_interval, ConfidenceInterval};

/// Outcome of a replicated experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct Replicated {
    /// Per-replication point estimates, in replication order.
    pub estimates: Vec<f64>,
    /// Confidence interval across replications (`None` for fewer than 2).
    pub interval: Option<ConfidenceInterval>,
}

impl Replicated {
    /// Grand mean over replications, or `None` when there are none.
    ///
    /// [`replicate_par`] asserts `reps > 0`, so a `Replicated` it produces
    /// always has a mean; this accessor exists for callers constructing the
    /// struct by hand.
    #[must_use]
    pub fn try_mean(&self) -> Option<f64> {
        if self.estimates.is_empty() {
            None
        } else {
            Some(self.estimates.iter().sum::<f64>() / self.estimates.len() as f64)
        }
    }

    /// Grand mean over replications.
    ///
    /// # Panics
    ///
    /// Panics if there are no replications. [`replicate_par`] asserts
    /// `reps > 0` up front, for every worker count; use
    /// [`Replicated::try_mean`] for hand-built values.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.try_mean().expect("no replications")
    }
}

/// Runs `reps` independent replications of `experiment` on up to `jobs`
/// scoped threads.
///
/// Each replication receives its index and an independent RNG derived from
/// `base` (`base.derive(i)`); the closure returns a point estimate (e.g. a
/// mean delay). The result is bitwise equal for any `jobs`; `jobs <= 1`
/// runs inline with no thread machinery.
///
/// # Panics
///
/// Panics if `reps == 0` or `level` is outside `(0, 1)`.
pub fn replicate_par<F>(
    base: &SimRng,
    reps: usize,
    level: f64,
    jobs: usize,
    experiment: F,
) -> Replicated
where
    F: Fn(usize, SimRng) -> f64 + Sync,
{
    assert!(reps > 0, "need at least one replication");
    assert!(level > 0.0 && level < 1.0, "level must be in (0,1)");
    let estimates = scope_map_indexed(reps, jobs, |i| experiment(i, base.derive(i as u64)));
    let interval = replication_interval(&estimates, level);
    Replicated {
        estimates,
        interval,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replications_use_distinct_seeds() {
        let base = SimRng::new(1);
        let out = replicate_par(&base, 4, 0.95, 1, |_, mut rng| rng.uniform());
        let mut sorted = out.estimates.clone();
        sorted.sort_by(f64::total_cmp);
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            4,
            "estimates should differ: {:?}",
            out.estimates
        );
    }

    #[test]
    fn sequential_and_parallel_agree_exactly() {
        let base = SimRng::new(42);
        let f = |i: usize, mut rng: SimRng| rng.uniform() + i as f64;
        let seq = replicate_par(&base, 7, 0.9, 1, f);
        let par = replicate_par(&base, 7, 0.9, 4, f);
        assert_eq!(seq, par, "jobs = 1 and jobs = 4 must be bit-equal");
    }

    #[test]
    fn interval_present_with_two_or_more_reps() {
        let base = SimRng::new(9);
        let one = replicate_par(&base, 1, 0.95, 1, |_, mut rng| rng.uniform());
        assert!(one.interval.is_none());
        let two = replicate_par(&base, 2, 0.95, 1, |_, mut rng| rng.uniform());
        assert!(two.interval.is_some());
    }

    #[test]
    fn mean_is_average_of_estimates() {
        let base = SimRng::new(3);
        let out = replicate_par(&base, 3, 0.95, 1, |i, _| i as f64);
        assert!((out.mean() - 1.0).abs() < 1e-12);
        assert_eq!(out.try_mean(), Some(out.mean()));
    }

    #[test]
    fn try_mean_is_none_when_empty() {
        let empty = Replicated {
            estimates: Vec::new(),
            interval: None,
        };
        assert_eq!(empty.try_mean(), None);
        let r = std::panic::catch_unwind(move || empty.mean());
        assert!(r.is_err(), "mean() panics on the empty struct");
    }

    #[test]
    fn zero_reps_panics_identically_in_both_runners() {
        // The inline (`jobs = 1`) and threaded paths.
        let base = SimRng::new(1);
        let seq = std::panic::catch_unwind(|| replicate_par(&base, 0, 0.95, 1, |_, _| 0.0));
        let par = std::panic::catch_unwind(|| replicate_par(&base, 0, 0.95, 4, |_, _| 0.0));
        let msg = |e: Box<dyn std::any::Any + Send>| {
            e.downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| e.downcast_ref::<String>().cloned())
                .unwrap_or_default()
        };
        assert_eq!(
            msg(seq.expect_err("seq must panic")),
            msg(par.expect_err("par must panic")),
            "panic messages must not diverge"
        );
    }

    #[test]
    fn estimator_converges_to_truth() {
        let base = SimRng::new(7);
        let out = replicate_par(&base, 10, 0.95, 1, |_, mut rng| {
            (0..20_000).map(|_| rng.exponential(2.0)).sum::<f64>() / 20_000.0
        });
        let ci = out.interval.expect("10 reps");
        assert!(ci.contains(0.5), "CI {ci} should contain 0.5");
    }
}
