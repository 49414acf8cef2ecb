//! Confidence intervals for steady-state simulation output.
//!
//! A single long run produces autocorrelated observations, so the naive
//! standard error is biased low. Independent replications are not: each
//! run's mean is one independent observation, and a Student-t interval
//! over those means is honest.

use super::quantile::t_quantile;
use super::welford::Welford;

/// A two-sided confidence interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate (mean).
    pub mean: f64,
    /// Half-width of the interval.
    pub half_width: f64,
    /// Confidence level, e.g. `0.95`.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Lower bound of the interval.
    #[must_use]
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound of the interval.
    #[must_use]
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether `x` falls inside the interval.
    #[must_use]
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo() && x <= self.hi()
    }

    /// Relative half-width (`half_width / |mean|`); infinite at mean zero.
    #[must_use]
    pub fn relative_half_width(&self) -> f64 {
        if self.mean == 0.0 {
            f64::INFINITY
        } else {
            self.half_width / self.mean.abs()
        }
    }
}

impl std::fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.6} ± {:.6} ({:.0}% CI)",
            self.mean,
            self.half_width,
            self.level * 100.0
        )
    }
}

/// Builds a confidence interval from independent replication means.
///
/// Returns `None` with fewer than two replications.
///
/// # Panics
///
/// Panics unless `0 < level < 1`.
#[must_use]
pub fn replication_interval(means: &[f64], level: f64) -> Option<ConfidenceInterval> {
    assert!(level > 0.0 && level < 1.0, "level must be in (0,1)");
    if means.len() < 2 {
        return None;
    }
    let mut w = Welford::new();
    for &m in means {
        w.push(m);
    }
    let t = t_quantile(w.count() - 1, 0.5 + level / 2.0);
    Some(ConfidenceInterval {
        mean: w.mean(),
        half_width: t * w.std_error(),
        level,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_interval_matches_hand_computation() {
        let means = [1.0, 2.0, 3.0];
        let ci = replication_interval(&means, 0.95).expect("3 reps");
        assert!((ci.mean - 2.0).abs() < 1e-12);
        // s = 1, se = 1/sqrt(3), t(2, .975) = 4.303.
        assert!((ci.half_width - 4.303 / 3f64.sqrt()).abs() < 0.01);
        assert!(replication_interval(&[1.0], 0.95).is_none());
    }

    #[test]
    fn ci_accessors_consistent() {
        let ci = ConfidenceInterval {
            mean: 10.0,
            half_width: 2.0,
            level: 0.95,
        };
        assert_eq!(ci.lo(), 8.0);
        assert_eq!(ci.hi(), 12.0);
        assert!(ci.contains(9.0));
        assert!(!ci.contains(12.5));
        assert!((ci.relative_half_width() - 0.2).abs() < 1e-12);
        assert!(!format!("{ci}").is_empty());
    }
}
