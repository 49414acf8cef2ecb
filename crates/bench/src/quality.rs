//! Run-quality presets shared by the experiment regenerators.

use crate::flags;
use rsin_core::{ConfigError, SimOptions};

/// How much simulation effort to spend per point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunQuality {
    /// Warm-up allocations per replication.
    pub warmup: u64,
    /// Measured allocations per replication.
    pub measured: u64,
    /// Independent replications per simulation point.
    pub reps: usize,
    /// Monte Carlo trials (blocking experiment).
    pub trials: u32,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads for the parallel stages; `0` means auto
    /// ([`rsin_des::default_jobs`]: the machine's available parallelism).
    /// Results are byte-identical for every value.
    pub jobs: usize,
}

impl RunQuality {
    /// Fast preset for smoke tests and CI (seconds per figure).
    #[must_use]
    pub fn quick() -> Self {
        RunQuality {
            warmup: 1_000,
            measured: 8_000,
            reps: 2,
            trials: 2_000,
            seed: 1983,
            jobs: 0,
        }
    }

    /// Publication preset: on a 2-vCPU VM, `all --full --jobs 2` finished
    /// in 21.4 s wall (42.8 s of summed task time, the longest task 11.0 s).
    #[must_use]
    pub fn full() -> Self {
        RunQuality {
            warmup: 5_000,
            measured: 40_000,
            reps: 5,
            trials: 20_000,
            seed: 1983,
            jobs: 0,
        }
    }

    /// Chooses the preset from the process arguments: `--full` selects the
    /// publication preset; `--jobs N` (or `--jobs=N`) pins the worker
    /// count, which changes only wall-clock time, never the results.
    ///
    /// A malformed `--jobs` value is an actionable error on stderr followed
    /// by exit code 2 — silently falling back to a default would make a
    /// typo'd run differ from the one the user asked for.
    #[must_use]
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        match RunQuality::try_from_args(&args) {
            Ok(q) => q,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    /// [`RunQuality::from_args`] over an explicit argument list, returning
    /// a typed error instead of exiting.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Parse`] when `--jobs` is present but its value is
    /// missing, not an integer, or zero.
    pub fn try_from_args(args: &[String]) -> Result<Self, ConfigError> {
        let mut q = if flags::switch(args, "--full") {
            RunQuality::full()
        } else {
            RunQuality::quick()
        };
        q.jobs = flags::parsed(
            args,
            "--jobs",
            "a positive worker count, e.g. --jobs 4",
            |v| v.parse().ok().filter(|&n| n >= 1),
        )?
        .unwrap_or(0);
        Ok(q)
    }

    /// A stable fingerprint of everything that determines the suite's
    /// *results* (worker count excluded — it never changes artifacts).
    /// Resume manifests record it so a `--resume` against artifacts from a
    /// different preset recomputes instead of mixing qualities.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        format!(
            "warmup={} measured={} reps={} trials={} seed={}",
            self.warmup, self.measured, self.reps, self.trials, self.seed
        )
    }

    /// The resolved worker count: the explicit value, or
    /// [`rsin_des::default_jobs`] when `jobs == 0`.
    #[must_use]
    pub fn jobs(&self) -> usize {
        if self.jobs == 0 {
            rsin_des::default_jobs()
        } else {
            self.jobs
        }
    }

    /// Simulator options for this preset.
    #[must_use]
    pub fn sim_options(&self) -> SimOptions {
        SimOptions {
            warmup_tasks: self.warmup,
            measured_tasks: self.measured,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_string()).collect()
    }

    fn jobs_of(line: &[&str]) -> Result<usize, ConfigError> {
        RunQuality::try_from_args(&args(line)).map(|q| q.jobs)
    }

    #[test]
    fn jobs_flag_is_parsed_in_both_spellings() {
        assert_eq!(jobs_of(&["bin", "--jobs", "4"]), Ok(4));
        assert_eq!(jobs_of(&["bin", "--jobs=8", "--full"]), Ok(8));
        assert_eq!(jobs_of(&["bin", "--full"]), Ok(0));
    }

    #[test]
    fn malformed_jobs_is_a_typed_actionable_error() {
        for bad in [
            args(&["bin", "--jobs"]),
            args(&["bin", "--jobs", "zero"]),
            args(&["bin", "--jobs=0"]),
            args(&["bin", "--jobs=-2"]),
        ] {
            let err = RunQuality::try_from_args(&bad).expect_err("must reject");
            assert!(
                err.to_string().contains("--jobs"),
                "error must name the flag: {err}"
            );
        }
    }

    #[test]
    fn fingerprint_tracks_result_relevant_fields_only() {
        let q = RunQuality::quick();
        let same_but_parallel = RunQuality { jobs: 8, ..q };
        assert_eq!(q.fingerprint(), same_but_parallel.fingerprint());
        let other = RunQuality { seed: 7, ..q };
        assert_ne!(q.fingerprint(), other.fingerprint());
        assert_ne!(q.fingerprint(), RunQuality::full().fingerprint());
    }

    #[test]
    fn zero_jobs_resolves_to_a_positive_default() {
        let q = RunQuality::quick();
        assert_eq!(q.jobs, 0);
        assert!(q.jobs() >= 1);
        let pinned = RunQuality {
            jobs: 3,
            ..RunQuality::quick()
        };
        assert_eq!(pinned.jobs(), 3);
    }

    #[test]
    fn quick_is_cheaper_than_full() {
        let q = RunQuality::quick();
        let f = RunQuality::full();
        assert!(q.measured < f.measured);
        assert!(q.reps <= f.reps);
        assert!(q.trials < f.trials);
        assert_eq!(q.sim_options().measured_tasks, q.measured);
    }
}
