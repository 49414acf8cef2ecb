//! A tiny self-contained kernel timer for `perf_report`.
//!
//! The workspace builds without network access, so `perf_report` times its
//! gated kernels with this `std::time::Instant`-based runner instead of an
//! external harness. [`measure_ns_floor`] auto-calibrates the iteration
//! count so each sample takes roughly [`TARGET_MEASURE_TIME`], and reports
//! the fastest of [`SAMPLES`] samples. It is intentionally simple: no
//! outlier rejection or statistical tests, just a stable, dependency-free
//! number for the 1.5x regression gate.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall-clock budget for each measurement sample.
pub const TARGET_MEASURE_TIME: Duration = Duration::from_millis(40);

/// Number of measurement samples taken; the minimum is reported.
pub const SAMPLES: usize = 7;

/// Measures `f` and returns the *minimum* per-iteration time over the
/// samples, in nanoseconds. The minimum is the classic noise-robust
/// estimator of a CPU-bound kernel's true cost — scheduler preemption and
/// frequency dips only ever inflate a sample — so `perf_report` persists
/// and regression-checks floor times rather than medians, which keeps the
/// 1.5x CI gate from tripping on shared-runner noise.
///
/// The closure's return value is passed through [`black_box`] so the
/// computation cannot be optimised away.
pub fn measure_ns_floor<T, F: FnMut() -> T>(mut f: F) -> f64 {
    floor_secs(|iters| {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        start.elapsed()
    }) * 1e9
}

/// Calibrates an iteration count against [`TARGET_MEASURE_TIME`], then
/// returns the minimum per-iteration duration, in seconds, over
/// [`SAMPLES`] samples.
fn floor_secs<F: FnMut(u64) -> Duration>(mut run: F) -> f64 {
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
    samples[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_positive_time() {
        let t = measure_ns_floor(|| {
            let mut acc = 0u64;
            for i in 0..10u64 {
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        });
        assert!(t > 0.0 && t.is_finite());
    }
}
