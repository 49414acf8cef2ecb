//! A tiny self-contained micro-benchmark harness.
//!
//! The workspace builds without network access, so the benches use this
//! `std::time::Instant`-based runner instead of an external harness. Each
//! `[[bench]]` target is a plain `fn main()` that calls [`bench()`] (or
//! [`bench_with_setup`] when each iteration needs fresh state) and prints
//! one line per benchmark:
//!
//! ```text
//! calendar_schedule_pop_1k      42_113 ns/iter  (n = 2048)
//! ```
//!
//! The runner auto-calibrates the iteration count so each measurement
//! takes roughly [`TARGET_MEASURE_TIME`], reports the median of
//! [`SAMPLES`] samples, and is intentionally simple: no outlier rejection
//! or statistical tests, just a stable, dependency-free number for
//! before/after comparisons.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall-clock budget for each measurement sample.
pub const TARGET_MEASURE_TIME: Duration = Duration::from_millis(40);

/// Number of measurement samples taken; the median is reported.
pub const SAMPLES: usize = 7;

/// Runs `f` repeatedly and prints the median per-iteration time.
///
/// The closure's return value is passed through [`black_box`] so the
/// computation cannot be optimised away.
pub fn bench<T, F: FnMut() -> T>(name: &str, f: F) {
    report(name, measure_ns(f) / 1e9);
}

/// Measures `f` like [`bench()`] but returns the median per-iteration time in
/// nanoseconds instead of printing it.
pub fn measure_ns<T, F: FnMut() -> T>(f: F) -> f64 {
    measure_ns_with(Statistic::Median, f)
}

/// Measures `f` and returns the *minimum* per-iteration time over the
/// samples, in nanoseconds. The minimum is the classic noise-robust
/// estimator of a CPU-bound kernel's true cost — scheduler preemption and
/// frequency dips only ever inflate a sample — so `perf_report` persists
/// and regression-checks floor times rather than medians, which keeps the
/// 1.5x CI gate from tripping on shared-runner noise.
pub fn measure_ns_floor<T, F: FnMut() -> T>(f: F) -> f64 {
    measure_ns_with(Statistic::Min, f)
}

fn measure_ns_with<T, F: FnMut() -> T>(stat: Statistic, mut f: F) -> f64 {
    measure_with(stat, |iters| {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        start.elapsed()
    }) * 1e9
}

/// Like [`bench()`], but re-creates the input with `setup` outside the
/// timed region of every iteration (the analogue of batched iteration).
pub fn bench_with_setup<S, T, Setup, F>(name: &str, mut setup: Setup, mut f: F)
where
    Setup: FnMut() -> S,
    F: FnMut(S) -> T,
{
    let per_iter = measure(|iters| {
        let inputs: Vec<S> = (0..iters).map(|_| setup()).collect();
        let start = Instant::now();
        for input in inputs {
            black_box(f(input));
        }
        start.elapsed()
    });
    report(name, per_iter);
}

/// Which order statistic of the samples a measurement reports.
#[derive(Clone, Copy, Debug)]
enum Statistic {
    Median,
    Min,
}

/// Calibrates an iteration count against [`TARGET_MEASURE_TIME`], then
/// returns the median per-iteration duration over [`SAMPLES`] samples.
fn measure<F: FnMut(u64) -> Duration>(run: F) -> f64 {
    measure_with(Statistic::Median, run)
}

/// Calibrates an iteration count against [`TARGET_MEASURE_TIME`], then
/// returns the chosen order statistic of the per-iteration duration over
/// [`SAMPLES`] samples.
fn measure_with<F: FnMut(u64) -> Duration>(stat: Statistic, mut run: F) -> f64 {
    // Warm up and calibrate: grow the batch until it is long enough to
    // time reliably.
    let mut iters = 1u64;
    loop {
        let elapsed = run(iters);
        if elapsed >= TARGET_MEASURE_TIME / 4 || iters >= 1 << 24 {
            let scale = TARGET_MEASURE_TIME.as_secs_f64() / elapsed.as_secs_f64().max(1e-9);
            iters = ((iters as f64 * scale).ceil() as u64).clamp(1, 1 << 24);
            break;
        }
        iters *= 4;
    }
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| run(iters).as_secs_f64() / iters as f64)
        .collect();
    samples.sort_by(f64::total_cmp);
    match stat {
        Statistic::Median => samples[samples.len() / 2],
        Statistic::Min => samples[0],
    }
}

fn report(name: &str, per_iter_secs: f64) {
    let ns = per_iter_secs * 1e9;
    if ns >= 1e6 {
        println!("{name:<44} {:>12.3} ms/iter", ns / 1e6);
    } else if ns >= 1e3 {
        println!("{name:<44} {:>12.3} µs/iter", ns / 1e3);
    } else {
        println!("{name:<44} {:>12.1} ns/iter", ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_positive_time() {
        let t = measure(|iters| {
            let start = Instant::now();
            let mut acc = 0u64;
            for i in 0..iters * 10 {
                acc = acc.wrapping_add(black_box(i));
            }
            black_box(acc);
            start.elapsed()
        });
        assert!(t > 0.0 && t.is_finite());
    }
}
